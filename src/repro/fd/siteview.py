"""Site-view membership: which sites are up, agreed upon by all sites.

The protocols processes (one per site, Figure 1) maintain a shared *site
view* — an agreed, ordered list of operational (site, incarnation) pairs.
All higher layers hang off it: group views shrink when a site leaves the
site view, transport channels are reset, and §3.7's "clean failures"
property comes from everyone installing the same sequence of site views.

Protocol (coordinator-driven two-phase):

* The **coordinator** is the oldest member of the current view.  It
  batches suspicions (from the heartbeat detector) and join requests
  (from booting sites) into a proposal ``view_id+1``, collects acks from
  every member of the *new* view, then commits.
* Members ack proposals at most once per view id; a commit installs the
  view and reports joined/departed sites to the kernel.
* If the coordinator itself dies, the next-oldest member that suspects
  every member older than itself takes over and proposes.
* A live site that finds itself *excluded* from a committed view
  self-destructs and recovers (§3.7: *"The failed entity will have to
  undergo recovery even if it was actually experiencing a transient
  communication problem"*).
* After a **total** failure there is no coordinator; a restarting site
  that hears only join requests from higher-numbered sites for a full
  bootstrap window forms a singleton view and admits the rest.

The partition rule (§2.1, §3.7) is one predicate, :func:`is_primary`:
a component may go on iff it holds more than half of the previous view,
or exactly half including that view's oldest member.  It answers both
questions a partition asks.  *May it install the next site view?*  The
coordinator judges the component it trusts.  *May its group flushes
commit?*  A kernel judges the sites it does not suspect
(:meth:`SiteViewAgent.may_commit`), so a group wholly inside a stalled
minority commits no view and no GBCAST either.  Only one half of an
even view holds its oldest member, so any two components the rule
entitles share a site and at most one chain of views exists.  The
other parts hang, probing, until communication is restored; the
primary's commit then excludes them and they self-destruct and rejoin.
The price is liveness after crashes: an exact half without the oldest
member cannot tell the other half's crash from a partition, and stalls
(the two oldest of four sites crash, or the oldest of two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..msg.message import Message
from ..runtime.driver import CpuLike
from ..sim.core import Simulator, Timer

SiteIncarnation = Tuple[int, int]

# What these must satisfy against the other layers' timers is one
# table, ARCHITECTURE.md "Timing budget" (tests/test_timing_budget.py).
#: The coordinator proposes again if a round's acks don't all arrive.
ACK_TIMEOUT = 4.0
#: A booting (or stalled) site re-sends its join requests (probes).
JOIN_RETRY = 1.0
#: A lone restarter that heard no older site's join requests this long
#: forms a singleton view.
BOOTSTRAP_TIMEOUT = 6.0
#: Settle window before the coordinator proposes a new view: near-
#: simultaneous suspicions (correlated site deaths, a partition)
#: coalesce into one round with merged removals instead of N serial
#: view changes — and therefore one group flush instead of N flush
#: restarts.
SUSPICION_SETTLE = 0.05


def is_primary(previous: Sequence[SiteIncarnation],
               component: Sequence[SiteIncarnation]) -> bool:
    """May ``component`` go on from the view whose members were
    ``previous``: more than half of them, or exactly half with the
    oldest?  "At least half" alone would let both halves of an even
    view install."""
    twice = 2 * len(component)
    if twice != len(previous):
        return twice > len(previous)
    return previous[0] in component


@dataclass(frozen=True)
class SiteView:
    """An agreed membership epoch: (site, incarnation) pairs, oldest first."""

    view_id: int
    members: Tuple[SiteIncarnation, ...]

    def sites(self) -> Tuple[int, ...]:
        return tuple(site for site, _ in self.members)

    def coordinator_site(self) -> int:
        return self.members[0][0]

    def contains_site(self, site_id: int) -> bool:
        return any(site == site_id for site, _ in self.members)

    def incarnation_of(self, site_id: int) -> Optional[int]:
        for site, inc in self.members:
            if site == site_id:
                return inc
        return None


class SiteViewAgent:
    """One site's participant (and potential coordinator) in the protocol."""

    def __init__(
        self,
        sim: Simulator,
        cpu: CpuLike,
        site_id: int,
        incarnation: int,
        all_sites: Sequence[int],
        send: Callable[[int, Message], None],
        on_view: Callable[[SiteView, Set[int], Set[int]], None],
        self_destruct: Callable[[], None],
    ):
        self.sim = sim
        self.cpu = cpu
        self.site_id = site_id
        self.incarnation = incarnation
        self.all_sites = list(all_sites)
        self.send = send
        self.on_view = on_view
        self.self_destruct = self_destruct
        self.view: Optional[SiteView] = None
        self._suspected: Set[int] = set()
        self._pending_joins: Set[SiteIncarnation] = set()
        self._pending_removals: Set[int] = set()
        self._last_acked_view = 0
        self._round: Optional[int] = None          # view_id being proposed
        self._round_members: Tuple[SiteIncarnation, ...] = ()
        self._round_acks: Set[int] = set()
        self._round_removals: Set[int] = set()
        self._round_joins: Set[SiteIncarnation] = set()
        self._round_timer: Optional[Timer] = None
        self._settle_timer: Optional[Timer] = None
        self._settle_done = False
        self._join_timer: Optional[Timer] = None
        self._joins_heard: Dict[int, float] = {}
        self._bootstrap_deadline: Optional[float] = None
        self._stalled = False
        self._probe_timer: Optional[Timer] = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def genesis(self, members: Sequence[SiteIncarnation]) -> None:
        """Install the initial view directly (cluster bootstrap)."""
        self._install(SiteView(view_id=1, members=tuple(members)))

    def stop(self) -> None:
        self._stopped = True
        for timer in (self._round_timer, self._settle_timer,
                      self._join_timer, self._probe_timer):
            if timer is not None:
                timer.cancel()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def in_view(self) -> bool:
        return self.view is not None and any(
            m == (self.site_id, self.incarnation) for m in self.view.members
        )

    def is_coordinator(self) -> bool:
        """Am I the acting coordinator (oldest non-suspected member)?"""
        if self.view is None or not self.in_view:
            return False
        for site, _ in self.view.members:
            if site == self.site_id:
                return True
            if site not in self._suspected:
                return False
        return False

    def may_commit(self) -> bool:
        """May this site's group flushes commit?  Only where the sites
        it does not suspect are a primary component of the current
        view.  With all-to-all heartbeats every site on the losing side
        of a partition suspects the whole other side, so the verdict is
        local yet agrees across the component."""
        if self.view is None:
            return True
        return is_primary(self.view.members, tuple(
            m for m in self.view.members if m[0] not in self._suspected))

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def suspect(self, site_id: int) -> None:
        """A peer went silent (from the heartbeat monitor)."""
        if self._stopped or self.view is None:
            return
        if not self.view.contains_site(site_id):
            return
        self._suspected.add(site_id)
        if self.is_coordinator():
            self._remove(site_id)
        else:
            # Tell the acting coordinator (it may not share our timeout).
            coordinator = self._acting_coordinator()
            if coordinator is not None and coordinator != self.site_id:
                self.send(coordinator, Message(
                    _proto="sv.suspect", suspect=site_id))

    def request_join(self) -> None:
        """Start the boot-time join loop (site is up but not in any view)."""
        if self._stopped:
            return
        self._bootstrap_deadline = self.sim.now + BOOTSTRAP_TIMEOUT
        self._joins_heard[self.site_id] = self.sim.now
        self._send_join_round()

    def _send_join_round(self) -> None:
        if self._stopped or self.in_view:
            return
        for site in self.all_sites:
            if site != self.site_id:
                self.send(site, Message(
                    _proto="sv.join",
                    site=self.site_id,
                    incarnation=self.incarnation,
                ))
        if (self._bootstrap_deadline is not None
                and self.sim.now >= self._bootstrap_deadline):
            heard = [s for s, t in self._joins_heard.items()
                     if t >= self.sim.now - BOOTSTRAP_TIMEOUT]
            if heard and min(heard) == self.site_id:
                # Nobody older is out there: form a singleton view.
                self.sim.trace.log("sv.bootstrap", self.site_id)
                self._install(SiteView(
                    view_id=self._last_acked_view + 1,
                    members=((self.site_id, self.incarnation),),
                ))
                return
        self._join_timer = self.sim.call_after(
            JOIN_RETRY, self._send_join_round)

    # ------------------------------------------------------------------
    # Message handling (proto "sv.*")
    # ------------------------------------------------------------------
    def handle(self, src_site: int, record: tuple) -> None:
        """One ``sv.<name>`` message, parsed against its declaration
        (``msg/wire.py``: the message, then its fields), to ``_on_<name>``."""
        if not self._stopped:
            getattr(self, "_on_" + record[0]["_proto"][3:])(src_site, record)

    def _on_suspect(self, src_site: int, record: tuple) -> None:
        """A member's suspicion, relayed to the acting coordinator.  A
        site this view already excluded is not heard: it has not yet
        learnt that it left, and its silence is no evidence."""
        suspect = record[1]
        if self.is_coordinator() and self.view is not None \
                and self.view.contains_site(src_site) \
                and self.view.contains_site(suspect):
            self._remove(suspect)

    def _on_join(self, src_site: int, record: tuple) -> None:
        _, site, incarnation = record
        self._joins_heard[site] = self.sim.now
        if self.view is None:
            return  # still booting ourselves; the join loop handles races
        if self.is_coordinator():
            current_inc = self.view.incarnation_of(site)
            if current_inc == incarnation:
                # Already in: re-send the commit (the joiner missed it).
                self.send(site, self._commit_message(self.view))
                return
            self._pending_joins.add((site, incarnation))
            if current_inc is not None:
                # An older incarnation is still listed: remove it first.
                self._pending_removals.add(site)
            self._maybe_start_round()
        else:
            coordinator = self._acting_coordinator()
            if coordinator is not None and coordinator != self.site_id:
                self.send(coordinator, Message(
                    _proto="sv.join", site=site, incarnation=incarnation))

    # -- coordinator side ----------------------------------------------------
    def _acting_coordinator(self) -> Optional[int]:
        if self.view is None:
            return None
        for site, _ in self.view.members:
            if site not in self._suspected:
                return site
        return None

    def _remove(self, site_id: int) -> None:
        """Queue the removal of ``site_id``, a member of the current
        view.  An open round that still lists it would wait out
        ``ACK_TIMEOUT`` for its ack, or install it dead: it is dropped
        and proposed again, merged with the suspicions still to come."""
        self._suspected.add(site_id)
        self._pending_removals.add(site_id)
        listed = (site_id, self.view.incarnation_of(site_id))
        if self._round is not None and listed in self._round_members:
            self._drop_round()
        self._maybe_start_round()

    def _drop_round(self) -> None:
        self._round = None
        if self._round_timer is not None:
            self._round_timer.cancel()
            self._round_timer = None

    def _maybe_start_round(self) -> None:
        if self._round is not None or self._stopped:
            return
        if not (self._pending_joins or self._pending_removals):
            return
        if not self.is_coordinator() or self.view is None:
            return
        if not self._settle_done:
            # Let near-simultaneous suspicions and joins accumulate:
            # they merge into one proposed view.
            if self._settle_timer is None:
                self._settle_timer = self.sim.call_after(
                    SUSPICION_SETTLE, self._settle_expired)
            return
        self._settle_done = False
        removals = set(self._pending_removals)
        joins = {
            (site, inc) for site, inc in self._pending_joins
            if site not in {s for s, _ in self.view.members} or site in removals
        }
        survivors = tuple(
            m for m in self.view.members if m[0] not in removals
        )
        # Suspicions recorded before we became acting coordinator were
        # relayed away, not queued as removals; they still mark sites we
        # cannot reach.  The rule judges this trusted set, not the
        # survivors, which a stale coordinator can overstate: a healed
        # minority site could otherwise commit a view built on members
        # it cannot talk to and depose the live primary.
        trusted = tuple(
            m for m in survivors
            if m[0] == self.site_id or m[0] not in self._suspected
        )
        if not is_primary(self.view.members, trusted):
            # We are on the losing side of a partition (§2.1): hang,
            # probing, until communication is restored; the primary's
            # commit then excludes us and we self-destruct into
            # recovery (§3.7).
            self._enter_stalled()
            return
        new_members = survivors + tuple(sorted(joins))
        new_view_id = max(self.view.view_id, self._last_acked_view) + 1
        self._round = new_view_id
        self._round_members = new_members
        self._round_acks = set()
        self._round_removals = removals
        self._round_joins = joins
        proposal = Message(
            _proto="sv.propose",
            view_id=new_view_id,
            members=[[s, i] for s, i in new_members],
        )
        self.sim.trace.log("sv.propose", (self.site_id, new_view_id, new_members))
        for site, _ in new_members:
            if site == self.site_id:
                self._round_acks.add(site)
            else:
                self.send(site, proposal)
        self._round_timer = self.sim.call_after(
            ACK_TIMEOUT + self.cpu.backlog, self._round_timed_out)
        self._check_round_complete()

    def _settle_expired(self) -> None:
        self._settle_timer = None
        self._settle_done = True
        if len(self._pending_removals) > 1:
            self.sim.trace.bump("sv.batched_removals")
        self._maybe_start_round()

    def _round_timed_out(self) -> None:
        if self._round is None:
            return
        silent = {s for s, _ in self._round_members} - self._round_acks
        self._round_timer = None
        self._drop_round()
        # Silence is no verdict: only the detector removes a site.
        self._pending_removals |= silent & self._suspected
        self._maybe_start_round()

    def _on_ack(self, src_site: int, record: tuple) -> None:
        view_id = record[1]
        if self._round is not None and view_id == self._round:
            self._round_acks.add(src_site)
            self._check_round_complete()

    def _check_round_complete(self) -> None:
        if self._round is None:
            return
        if self._round_acks != {s for s, _ in self._round_members}:
            return
        view = SiteView(view_id=self._round, members=self._round_members)
        self._drop_round()
        commit = self._commit_message(view)
        removed = set(self._round_removals)
        # Only consume what this round actually handled: suspicions and
        # joins that arrived mid-round stay pending for the next one.
        self._pending_joins -= self._round_joins
        self._pending_joins = {
            j for j in self._pending_joins if j not in set(view.members)
        }
        self._pending_removals -= self._round_removals
        for site, _ in view.members:
            if site != self.site_id:
                self.send(site, commit)
        # Best-effort notice to excluded (possibly live) sites: §3.7 says
        # they must observe their exclusion and go through recovery.
        for site in removed:
            self.send(site, commit)
        self._install(view)
        self._maybe_start_round()

    def _enter_stalled(self) -> None:
        if self._stalled or self._stopped:
            return
        self._stalled = True
        self.sim.trace.bump("sv.stalls")
        self._probe_round()

    def _probe_round(self) -> None:
        if self._stopped or not self._stalled:
            return
        for site in self.all_sites:
            if site != self.site_id:
                self.send(site, Message(
                    _proto="sv.probe",
                    site=self.site_id,
                    incarnation=self.incarnation,
                ))
        self._probe_timer = self.sim.call_after(
            JOIN_RETRY, self._probe_round)

    def _on_probe(self, src_site: int, record: tuple) -> None:
        """A hung (excluded) site asks where it stands."""
        if self.view is None or self._stalled:
            return
        prober = record[1:]
        if prober not in self.view.members:
            # It was excluded: the commit tells it so, triggering recovery.
            self.send(prober[0], self._commit_message(self.view))

    def _commit_message(self, view: SiteView) -> Message:
        return Message(
            _proto="sv.commit",
            view_id=view.view_id,
            members=[[s, i] for s, i in view.members],
        )

    # -- member side --------------------------------------------------------
    def _on_propose(self, src_site: int, record: tuple) -> None:
        view_id = record[1]
        current = self.view.view_id if self.view is not None else 0
        if view_id <= current:
            return
        self._last_acked_view = max(self._last_acked_view, view_id)
        self.send(src_site, Message(_proto="sv.ack", view_id=view_id))

    def _on_commit(self, src_site: int, record: tuple) -> None:
        _, view_id, members = record
        view = SiteView(view_id=view_id, members=tuple(members))
        current = self.view.view_id if self.view is not None else 0
        if view.view_id <= current:
            return
        me = (self.site_id, self.incarnation)
        if self.view is not None and me not in view.members:
            # We were excluded while alive: crash and recover (§3.7).
            self.sim.trace.bump("sv.self_destructs")
            self.self_destruct()
            return
        if me not in view.members:
            return  # commit for a view we're not part of (still joining)
        self._install(view)

    def _install(self, view: SiteView) -> None:
        old_sites = set(self.view.sites()) if self.view is not None else set()
        self.view = view
        self._last_acked_view = max(self._last_acked_view, view.view_id)
        new_sites = set(view.sites())
        self._suspected &= new_sites
        self._stalled = False
        if self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None
        departed = old_sites - new_sites
        joined = new_sites - old_sites
        self.sim.trace.log("sv.install", (self.site_id, view.view_id, view.members))
        self.sim.trace.bump("sv.views_installed")
        self.on_view(view, departed, joined)
