"""Recovery manager (§3.8, §5).

*"This tool will restart processes after they fail, or if a site
recovers.  The recovery manager runs an algorithm similar to the one in
[Skeen] to distinguish the total failure of a process group from the
partial failure of a member, and will advise the recovering process
either to restart the group (if it was one of the last to fail) or to
wait for it to restart elsewhere and then rejoin."*

Mechanics:

* Applications **register** a (group name, program) pair at the sites
  where the service may be restarted; registrations persist on stable
  storage.
* A site's **position** in a group is what its kernel write-ahead log
  (``IsisConfig.durability``) recorded: the ``(view_id, deliveries)``
  pair as recovered at boot.  The WAL is the one durable log; the
  manager writes nothing to stable storage but its registrations.  The
  winner of an election rebuilds the service from its checkpoint + log
  before re-creating the group.  With durability off no site holds a
  position, every site abstains, and the group restarts cold.
* When a site (re)boots, its recovery manager waits for the site view to
  settle, then for each registration:

  - if the group exists somewhere (namespace lookup succeeds), this is a
    **partial failure**: the program is restarted in ``mode="join"``;
  - otherwise it polls the other recovery managers for their logged
    positions ([Skeen]: the last process to fail knows the final state).
    Votes are explicit about *having no log at all* — a site that never
    hosted the group abstains rather than voting ``view 0``, so it can
    never win the election over a site with real knowledge.  Ties on
    ``(view, deliveries)`` break toward the lowest site id.  If **no**
    reachable site (including this one) holds a log, the lowest site id
    among the responders restarts the group cold — registration alone
    is then the best surviving knowledge.

Program factories are looked up in the cluster's program registry and
invoked as ``factory(process, mode, group_name)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.kernel import ProtocolsProcess
from ..errors import NoSuchGroup
from ..msg.message import Message
from ..sim.tasks import Promise, sleep

_REG_PREFIX = "rm/prog/"

#: How long a booting manager waits for the site view to settle before
#: it looks for its registered groups.
SETTLE_DELAY = 8.0
#: How long a poll of the other managers waits for their votes.
POLL_TIMEOUT = 3.0
#: The pause before the next round of the election loop.
RETRY_DELAY = 5.0
#: Rounds a site that hears no vote retries before it restarts alone.
LONELY_ROUNDS = 3

#: A vote in the restart election: (has_log, view, deliveries, alive).
#: ``alive`` means the answering site currently hosts a live member —
#: the asker should rejoin, not contend.
Vote = Tuple[bool, int, int, bool]


class RecoveryManager:
    """The per-site recovery service."""

    def __init__(self, kernel: ProtocolsProcess):
        self.kernel = kernel
        self.sim = kernel.sim
        self.site = kernel.site
        self._pending_polls: Dict[int, Tuple[Promise, Set[int],
                                             Dict[int, Vote]]] = {}
        self._next_poll = 1
        kernel.attach("rm.q", self._on_query)
        kernel.attach("rm.a", self._on_answer)
        self._recover_registered()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, group_name: str, program: str) -> Promise:
        """Persistently register ``program`` to recover ``group_name`` here."""
        self.sim.trace.bump("tool.rm_register")
        return self.site.stable.write(
            _REG_PREFIX + group_name, program.encode("utf-8"))

    def registered_groups(self) -> List[str]:
        return [k[len(_REG_PREFIX):] for k in self.site.stable.keys(_REG_PREFIX)]

    def last_logged(self, group_name: str) -> Optional[Tuple[int, int]]:
        """This site's logged ``(view, deliveries)`` — or ``None`` when
        it never logged the group, or runs without a WAL.  ``None`` and
        ``(0-ish, 0)`` are very different votes: only the former
        abstains from the election."""
        wal = self.kernel.wal
        return wal.logged_position(group_name) if wal is not None else None

    # ------------------------------------------------------------------
    # Recovery on boot
    # ------------------------------------------------------------------
    def _recover_registered(self) -> None:
        for group_name in self.registered_groups():
            raw = self.site.stable.read(_REG_PREFIX + group_name)
            program = raw.decode("utf-8")
            self.kernel.process.spawn(
                self._recover(group_name, program), f"rm.{group_name}")

    def _recover(self, group_name: str, program: str):
        yield sleep(self.sim, SETTLE_DELAY)
        lonely = 0
        while self.kernel.alive:
            # Partial failure? The group may be running elsewhere.
            gid = None
            try:
                gid = yield self.kernel.lookup_name(group_name)
            except NoSuchGroup:
                gid = None
            if gid is not None:
                self.sim.trace.bump("tool.rm_rejoins")
                self._launch(program, "join", group_name)
                return
            # Total failure: am I the one who should restart it?
            mine = self.last_logged(group_name)
            votes = yield from self._poll_peers(group_name)
            votes[self.site.site_id] = (
                (True, mine[0], mine[1], False) if mine
                else (False, 0, 0, False))
            if any(v[3] for v in votes.values()):
                # Some site answered that it is hosting the group right
                # now (it restarted it while our poll was in flight):
                # back off and rejoin through the loop's lookup path.
                yield sleep(self.sim, RETRY_DELAY)
                continue
            if len(votes) == 1 and lonely < LONELY_ROUNDS:
                # Nobody answered — most likely this site has not yet
                # rejoined the site view after its own restart.  Two
                # freshly restarted sites would otherwise each see an
                # empty election and both "win" (a split brain).  Retry
                # a few rounds; only a persistently lonely site may
                # conclude it really is the sole survivor.
                lonely += 1
                self.sim.trace.bump("tool.rm_lonely_polls")
                yield sleep(self.sim, RETRY_DELAY)
                continue
            lonely = 0
            if self._winner(votes) == self.site.site_id:
                # Last look before claiming the restart: another winner
                # may have re-created the group while we deliberated.
                try:
                    gid = yield self.kernel.lookup_name(group_name)
                except NoSuchGroup:
                    gid = None
                if gid is not None:
                    self.sim.trace.bump("tool.rm_rejoins")
                    self._launch(program, "join", group_name)
                    return
                self.sim.trace.bump("tool.rm_restarts")
                self.sim.trace.log("rm.restart", (self.site.site_id, group_name))
                self._launch(program, "create", group_name)
                return
            # Someone with later knowledge will restart it; wait and rejoin.
            yield sleep(self.sim, RETRY_DELAY)

    def _winner(self, votes: Dict[int, Vote]) -> int:
        """The site that should restart the group, given the votes.

        Sites *with* a log compete on ``(view, deliveries)``, lowest
        site id breaking ties.  Only when nobody at all holds a log does
        the lowest responding site restart cold.
        """
        voters = [(v[1], v[2], -site)
                  for site, v in votes.items() if v[0]]
        if voters:
            view, cnt, neg_site = max(voters)
            return -neg_site
        return min(votes)

    def _launch(self, program: str, mode: str, group_name: str) -> None:
        factory = self.site.cluster.programs.lookup(program)
        process = self.site.spawn_process(name=f"{program}[{mode}]")
        factory(process, mode, group_name)
        if mode == "create" and self.kernel.wal is not None:
            # Election winner: rebuild the service state from the local
            # checkpoint + log (paper §5) before the factory's create
            # round installs the fresh group.  The factory has bound its
            # handlers and transfer segments by now; the replay streams
            # straight into them.
            replayed = self.kernel.wal.restore(process, group_name)
            if replayed is not None:
                self.sim.trace.bump("tool.rm_restored")
                self.sim.trace.log(
                    "rm.restore", (self.site.site_id, group_name, replayed))

    # ------------------------------------------------------------------
    # Peer polling ("rm.q" / "rm.a")
    # ------------------------------------------------------------------
    def _poll_peers(self, group_name: str):
        view = self.kernel.site_view
        peers = set(view.sites()) - {self.site.site_id} if view else set()
        results: Dict[int, Vote] = {}
        if not peers:
            return results
        poll_id = self._next_poll
        self._next_poll += 1
        done = Promise(label=f"rm.poll({group_name})")
        self._pending_polls[poll_id] = (done, set(peers), results)
        for site in peers:
            self.kernel.send_to_site(site, Message(
                _proto="rm.q", poll=poll_id, group=group_name,
                origin=self.site.site_id))
        # Deadline via idempotent resolve rather than an exception: a
        # last vote landing in the same instant the timer fires must not
        # race the poll bookkeeping — whichever settles ``done`` first
        # wins and the other is a no-op, and either way the snapshot
        # below is taken only after settlement.
        self.sim.post(POLL_TIMEOUT, done.resolve, None)
        yield done
        self._pending_polls.pop(poll_id, None)
        return dict(results)

    def _on_query(self, src_site: int, record: tuple) -> None:
        _, poll, group, _origin = record
        pos = self.last_logged(group)
        self.kernel.send_to_site(src_site, Message(
            _proto="rm.a", poll=poll,
            has=1 if pos else 0,
            view=pos[0] if pos else 0,
            cnt=pos[1] if pos else 0,
            alive=1 if self._group_alive(group) else 0,
            site=self.site.site_id))

    def _on_answer(self, src_site: int, record: tuple) -> None:
        _, poll, has, view, cnt, alive, site = record
        entry = self._pending_polls.get(poll)
        if entry is None:
            return  # the poll already closed (late vote)
        done, waiting, results = entry
        results[site] = (bool(has), view, cnt, bool(alive))
        waiting.discard(site)
        if not waiting:
            done.resolve(results)

    def _group_alive(self, group_name: str) -> bool:
        """Is a member of the named group running at this site now?"""
        return any(self._name_of(engine) == group_name
                   for engine in self.kernel.engines.values())

    def _name_of(self, engine) -> Optional[str]:
        if engine.name:
            return engine.name
        for name, gid in self.kernel.namespace.entries().items():
            if gid.process() == engine.gid.process():
                return name
        return None


def install_recovery(system) -> Dict[int, RecoveryManager]:
    """Attach a recovery manager to every site (now and on future boots).

    Returns the (live-updated) mapping site_id → manager.
    """
    managers: Dict[int, RecoveryManager] = {}

    def attach(site) -> None:
        managers[site.site_id] = RecoveryManager(site.kernel)

    for site in system.cluster.sites.values():
        site.on_boot(attach)
        if site.up and getattr(site, "kernel", None) is not None:
            attach(site)
    return managers
