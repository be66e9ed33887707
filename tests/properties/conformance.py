"""Virtual synchrony, stated once: one scenario runner and one checker.

The runner (:class:`Run`, on the simulator; :class:`Recorder`, the part
that also watches an asyncio deployment) deploys one member process per
site, creates named groups and joins them in batches, drives a traffic
plan of :class:`Task` s, applies a timed fault script and runs a tail.
It returns one :class:`Record`: what every process was handed, in order,
as ``(group, view id, sender, tag)``, the views every site installed,
and what was left standing.

The checker (:func:`check`) states the paper's §2.4 guarantees over that
record in the trace style of Lynch's "Building a Theory of Distributed
Systems": each rule is a predicate on the delivery sequences, and a
record that breaks one is refused with the rule's name.

1. ``exactly-once``: a process is handed each multicast at most once,
   only one that was sent, and only in the group it was sent to.  A
   delivery replayed from its site's log rebuilds state (each rebuild
   starts from a checkpoint) and may repeat; a live one may not repeat
   it.  The other rules read live deliveries only: a replay is in no
   view and no order.
2. ``fifo``: one sender's task is delivered to one group in send order,
   kind by kind (an ABCAST waits for its place in the total order, and a
   CBCAST the same task sends after it need not).
3. ``abcast-order``: two processes' common ABCASTs of one group appear
   in the same order.
4. ``same-view-set``: processes that outlive a view (install the next
   one together) were handed the same set in it; so were processes that
   end the run in the same quiescent view.  A GBCAST delivered as view
   ``v`` installs closes view ``v - 1``.  A view is its id and its
   member list, so the two sides of a partition that both install a view
   ``v`` are two views (Arnon & Sharma's per-view and partition cases).
5. ``gbcast-order``: a multicast precedes a GBCAST of its group at one
   process iff it does at every other that delivered both.
6. ``cross-group-causal``: a CBCAST task that alternates groups is
   delivered in send order across them, in a run with no view change
   once traffic started (a flush cut delivers a group's leftovers
   whatever other groups they wait on, ``GroupEngine.apply_commit``).
7. ``one-view-per-id``: no two sites install different member lists
   for one group view: only the primary component commits a view
   (§2.1), so a split never yields two chains.
8. ``durable-replica``: a process restored from its site's log holds a
   prefix of what its predecessor held when it crashed: a crash may eat
   an unsynced suffix, never the middle.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import IsisCluster, IsisConfig
from repro.sim.tasks import sleep

#: The entry every member binds its deliveries to.
ENTRY = 16


# ----------------------------------------------------------------------
# What a run is made of
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    """One planned multicast: the task that sends it, its place in that
    task, its kind and its group."""

    task: str
    index: int
    kind: str
    group: str


@dataclass(frozen=True)
class Task:
    """``count`` multicasts; the ``i``-th goes to ``groups[i % len]`` as
    ``kind[i % len]`` tagged ``tag.format(i=i, k=kind[:2])``.

    With one ``sender`` the task runs in that process: it looks its
    groups up, then sends, sleeping ``gap`` after each.  With several it
    is paced from outside: the runner sends the ``i``-th from
    ``sender[i % len]`` and then runs the clock for ``gap``.
    """

    name: str
    sender: Union[str, Tuple[str, ...]]
    groups: Tuple[str, ...]
    kind: Union[str, Tuple[str, ...]]
    count: int
    tag: str
    gap: float = 0.0

    def plan(self):
        """``(index, sender, group, kind, tag)`` of every send."""
        senders = (self.sender,) if isinstance(self.sender, str) \
            else self.sender
        kinds = (self.kind,) if isinstance(self.kind, str) else self.kind
        for i in range(self.count):
            kind = kinds[i % len(kinds)]
            yield (i, senders[i % len(senders)],
                   self.groups[i % len(self.groups)], kind,
                   self.tag.format(i=i, k=kind[:2]))


@dataclass
class Scenario:
    """A run as data.  ``creates`` and each join batch list
    ``(site, groups, task name)``: the member at ``site`` creates (or
    joins, one after the other) ``groups`` in one task.  After each join
    batch the clock runs for the batch's wait.  ``faults`` are
    ``(wait, action)`` steps once the traffic started (see
    :meth:`Run.act`), then the clock runs for ``tail``."""

    n_sites: int
    seed: int = 0
    config: Optional[IsisConfig] = None
    loss_rate: float = 0.0
    storage_faults: Any = None
    #: Each site's member process, formatted with ``site``.
    member: str = "m{site}"
    #: Members carry their delivered tags as transferable state.
    state: bool = False
    creates: Tuple = ()
    settle: float = 3.0
    joins: Tuple = ()
    traffic: Tuple[Task, ...] = ()
    faults: Tuple = ()
    tail: float = 120.0


@dataclass
class Record:
    """What a run did, as the checker reads it."""

    #: process -> what it was handed, ``(group, view id, sender, tag)``;
    #: a delivery replayed from the site's log is in no view (None).
    streams: Dict[str, List[Tuple[str, Optional[int], str, str]]]
    #: tag -> its planned send.
    sent: Dict[str, Send]
    #: site -> ``(group, view id, member names)`` of every view it
    #: installed (a group's first view at its creator, then each commit).
    installed: Dict[int, List[Tuple[str, int, Tuple[str, ...]]]] = \
        field(default_factory=dict)
    #: process -> group -> the view it ended in: alive, handed all it
    #: was sent, and the group not wedged.
    final: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: process -> its site.
    sites: Dict[str, int] = field(default_factory=dict)
    #: No view installed once traffic started.
    steady: bool = False
    #: process -> the tags it holds as state (a state transfer replaces it).
    states: Dict[str, List[str]] = field(default_factory=dict)
    #: process -> (predecessor, the state it held once restored).
    restored: Dict[str, Tuple[str, List[str]]] = field(default_factory=dict)
    #: Sites up at the end, their views (group -> View) and kernels.
    survivors: List[int] = field(default_factory=list)
    views: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    kernels: Dict[int, Any] = field(default_factory=dict)
    gids: Dict[str, Any] = field(default_factory=dict)
    trace: Any = None

    def tags(self, process: str) -> List[str]:
        return [tag for _, _, _, tag in self.streams[process]]

    def final_members(self) -> set:
        """The distinct member lists, as sorted address strings, of the
        views the surviving sites end with."""
        return {tuple(sorted(str(m) for m in view.members))
                for views in self.views.values() for view in views.values()}

    def survivor_sent(self) -> set:
        """What the members ``m<site>`` on surviving sites were handed of
        the GBCASTs and of what members on surviving sites sent: the
        part no flush cut may drop (a survivor's kernel reports its own
        sends)."""
        return {tag for site in self.survivors
                for _, _, sender, tag in self.streams[f"m{site}"]
                if self.sent[tag].kind == "gbcast"
                or self.sites.get(sender) in self.survivors}


# ----------------------------------------------------------------------
# The recorder: any deployment, either driver
# ----------------------------------------------------------------------
class Recorder:
    """Records a deployment as it runs: what each attached process is
    handed and which views each site's kernel installs (its
    ``on_view_installed`` is wrapped at every boot)."""

    def __init__(self, cluster, state: bool = False):
        self.cluster = cluster
        self.state = state
        self.procs: Dict[str, Any] = {}
        self.isis: Dict[str, Any] = {}
        self.streams: Dict[str, list] = {}
        self.states: Dict[str, list] = {}
        self.sites: Dict[str, int] = {}
        self.sent: Dict[str, Send] = {}
        self.gids: Dict[str, Any] = {}
        self.installed: Dict[int, list] = defaultdict(list)
        self.restored: Dict[str, Tuple[str, list]] = {}
        self._names: Dict[Any, str] = {}
        self._installs = 0
        self._traffic_from: Optional[int] = None
        for site in cluster.sites.values():
            site.on_boot(self._watch)
            if site.up:
                self._watch(site)

    def _watch(self, site) -> None:
        kernel = site.kernel
        install = kernel.on_view_installed

        def on_view_installed(engine, old_view, new_view, event):
            self._installs += 1
            self.installed[site.site_id].append(
                (self.group_name(engine.gid), new_view.view_id,
                 tuple(self._names.get(m.process(), str(m))
                       for m in new_view.members)))
            install(engine, old_view, new_view, event)

        kernel.on_view_installed = on_view_installed

    def group_name(self, gid) -> str:
        for name, known in self.gids.items():
            if known.process() == gid.process():
                return name
        return str(gid)

    # -- processes -------------------------------------------------------
    def spawn(self, site: int, name: str):
        """A member process at ``site``, attached; returns its name."""
        process, isis = self.cluster.spawn(site, name)
        return self.attach(process, name, isis)

    def attach(self, process, name: str, isis=None) -> str:
        """Record what ``process`` is handed at :data:`ENTRY`, under
        ``name`` (suffixed with the site's incarnation if a predecessor
        had it); with ``state``, it also holds the tags as a transferable
        JSON list."""
        if name in self.streams:
            name = f"{name}.{process.site.incarnation}"
        stream = self.streams[name] = []
        self.procs[name] = process
        self.isis[name] = isis
        self.sites[name] = process.site.site_id
        self._names[process.address.process()] = name
        held = None
        if self.state:
            held = self.states[name] = []
            process.xfer_segments["log"] = (
                lambda: [json.dumps(held).encode()],
                lambda blocks: (
                    held.clear(), held.extend(json.loads(blocks[0])),
                ) if blocks else None,
            )

        def on_delivery(msg):
            sender = msg.get("_sender")
            stream.append((
                self.group_name(msg["_group"]),
                None if msg.get("_replay") else msg["_view_id"],
                self._names.get(sender.process(), str(sender))
                if sender is not None else None,
                msg["tag"]))
            if held is not None:
                held.append(msg["tag"])

        process.bind(ENTRY, on_delivery)
        return name

    def restored_from(self, name: str, predecessor: str) -> None:
        """``name`` was rebuilt from its site's log of ``predecessor``:
        the state it holds now is what the durable-replica rule checks."""
        self.restored[name] = (predecessor, list(self.states[name]))

    # -- group operations, as task bodies ----------------------------------
    def creating(self, name: str, groups):
        """Task body: ``name`` creates ``groups``.  A group re-created
        under a name in use (a total failure's restart) is recorded
        under the name suffixed with the site's incarnation."""
        isis = self.isis[name]
        site = self.sites[name]
        for group in groups:
            gid = yield isis.pg_create(group)
            if group in self.gids:
                group = f"{group}.{gid.incarnation}"
            self.gids[group] = gid
            self.installed[site].append((group, 1, (name,)))

    def joining(self, name: str, groups):
        """Task body: ``name`` joins ``groups`` one after the other."""
        isis = self.isis[name]
        for group in groups:
            gid = yield isis.pg_lookup(group)
            yield isis.pg_join(gid)

    def deploy(self, scenario: Scenario) -> List[Tuple[Any, Any]]:
        """On this deployment, ``scenario``'s member at each of its
        sites, its groups created and its join batches run; the members'
        ``(process, isis)``."""
        names = [self.spawn(site, scenario.member.format(site=site))
                 for site in range(scenario.n_sites)]
        for site, groups, task in scenario.creates:
            self.procs[names[site]].spawn(
                self.creating(names[site], groups), task)
        self.cluster.run_for(scenario.settle)
        for wait, batch in scenario.joins:
            for site, groups, task in batch:
                process = self.procs[names[site]]
                if process.alive:  # loss can evict a site early
                    process.spawn(self.joining(names[site], groups), task)
            self.cluster.run_for(wait)
        return [(self.procs[name], self.isis[name]) for name in names]

    def start(self, task: Task):
        """Spawn a one-sender ``task`` in its process; returns the task,
        or None if the sender is dead."""
        self.expect(task)
        process = self.procs[task.sender]
        if not process.alive:
            return None
        return process.spawn(self._sending(task), task.name)

    def expect(self, task: Task) -> None:
        if self._traffic_from is None:
            self._traffic_from = self._installs
        for i, _, group, kind, tag in task.plan():
            self.sent[tag] = Send(task.name, i, kind, group)

    def _sending(self, task: Task):
        isis = self.isis[task.sender]
        gids = {}
        for group in dict.fromkeys(task.groups):
            gids[group] = yield isis.pg_lookup(group)
        for _, _, group, kind, tag in task.plan():
            yield isis.bcast(gids[group], ENTRY, kind=kind, tag=tag)
            if task.gap:
                yield sleep(self.cluster.sim, task.gap)

    # -- the record --------------------------------------------------------
    def record(self) -> Record:
        survivors, views, kernels = [], {}, {}
        for site_id, site in sorted(self.cluster.sites.items()):
            if not site.up or site.kernel is None:
                continue
            survivors.append(site_id)
            kernels[site_id] = site.kernel
            views[site_id] = {
                self.group_name(gid): engine.view
                for gid, engine in site.kernel.engines.items()
                if engine.installed and engine.view is not None}
        final = {}
        for name, process in self.procs.items():
            kernel = kernels.get(self.sites[name])
            if (not process.alive or kernel is None
                    or process.address.process() in kernel.joins.gated):
                continue
            final[name] = {
                self.group_name(gid): engine.view.view_id
                for gid, engine in kernel.engines.items()
                if engine.installed and engine.view is not None
                and not engine.wedged
                and engine.view.contains(process.address)}
        return Record(
            streams={n: list(s) for n, s in self.streams.items()},
            sent=dict(self.sent),
            installed={s: list(rows) for s, rows in self.installed.items()},
            final=final,
            sites=dict(self.sites),
            steady=(self._traffic_from is not None
                    and self._installs == self._traffic_from),
            states={n: list(s) for n, s in self.states.items()},
            restored=dict(self.restored),
            survivors=survivors,
            views=views,
            kernels=kernels,
            gids=dict(self.gids),
            trace=getattr(self.cluster.sim, "trace", None),
        )


# ----------------------------------------------------------------------
# The runner: a scenario on the simulator
# ----------------------------------------------------------------------
class Run(Recorder):
    """One :class:`Scenario` on a simulated deployment.  :meth:`play`
    runs it whole; its steps are public for suites that go on by hand."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.system = IsisCluster(
            n_sites=scenario.n_sites, seed=scenario.seed,
            loss_rate=scenario.loss_rate, isis_config=scenario.config,
            storage_faults=scenario.storage_faults)
        super().__init__(self.system, state=scenario.state)
        self.members = [scenario.member.format(site=site)
                        for site in range(scenario.n_sites)]

    def play(self, setup=None) -> Record:
        """Deploy, create, join, call ``setup(self)``, start the traffic,
        apply the faults, run the tail; the record."""
        self.deploy(self.scenario)
        if setup is not None:
            setup(self)
        for task in self.scenario.traffic:
            self.send(task)
        for wait, action in self.scenario.faults:
            self.system.run_for(wait)
            self.act(action)
        self.system.run_for(self.scenario.tail)
        return self.record()

    def send(self, task: Task) -> None:
        """Start ``task``: spawned in its sender, or, with several
        senders, sent from here one ``gap`` apart."""
        if isinstance(task.sender, str):
            self.start(task)
            return
        self.expect(task)
        for _, sender, group, kind, tag in task.plan():
            self.isis[sender].bcast(self.gids[group], ENTRY, 0, kind, tag=tag)
            self.system.run_for(task.gap)

    def act(self, action: tuple) -> None:
        """One fault or event.  A GBCAST comes from the first member
        still alive, a join only at a site that is up: neither a dead
        sender nor a down site can be scripted.

        * ``("kill", process)``, ``("crash", site)``, ``("restart", site)``
        * ``("partition", components)``, ``("heal",)``
        * ``("gbcast", group, tag, task name)``
        * ``("join", site, process name, groups)``: a new process
        * ``("send", task)``: more traffic
        """
        kind, args = action[0], action[1:]
        sites = self.system.cluster
        if kind == "kill":
            if self.procs[args[0]].alive:
                self.procs[args[0]].kill()
        elif kind == "crash":
            if sites.site(args[0]).up:
                self.system.crash_site(args[0])
        elif kind == "restart":
            if not sites.site(args[0]).up:
                self.system.restart_site(args[0])
        elif kind == "partition":
            sites.lan.partition(args[0])
        elif kind == "heal":
            sites.lan.heal()
        elif kind == "gbcast":
            group, tag, task = args
            live = [name for name in self.members if self.procs[name].alive]
            if live:
                self.expect(Task(task, live[0], (group,), "gbcast", 1, tag))
                self.procs[live[0]].spawn(
                    self._gbcast(live[0], group, tag), task)
        elif kind == "join":
            site, name, groups = args
            if sites.site(site).up:
                name = self.spawn(site, name)
                self.procs[name].spawn(self.joining(name, groups), name)
        elif kind == "send":
            self.send(args[0])
        else:
            raise ValueError(f"unknown action {action!r}")

    def _gbcast(self, name, group, tag):
        isis = self.isis[name]
        gid = yield isis.pg_lookup(group)
        yield isis.bcast(gid, ENTRY, kind="gbcast", tag=tag)


def one_group(group: str, n_sites: int, join_wait: float,
              join_task: str = "join", **fields) -> Scenario:
    """Member 0 creates ``group``; the others join it one by one (task
    ``join_task`` + site), ``join_wait`` apart."""
    return Scenario(
        n_sites=n_sites, creates=((0, (group,), "create"),),
        joins=tuple((join_wait, ((site, (group,), f"{join_task}{site}"),))
                    for site in range(1, n_sites)),
        **fields)


def partition_heal(split: float, seed: int = 77) -> Scenario:
    """Four members of ``ph`` each CBCAST 25 tagged messages on a LAN
    that loses 2 % of its frames; 0.3 s into the traffic sites {0, 1}
    and {2, 3} are split for ``split`` seconds."""
    return one_group(
        "ph", 4, 20.0, "j", seed=seed, loss_rate=0.02,
        traffic=tuple(Task(f"d{site}", f"m{site}", ("ph",), "cbcast", 25,
                           f"d{site}:" + "{i}") for site in range(4)),
        faults=((0.3, ("partition", [[0, 1], [2, 3]])), (split, ("heal",))))


def two_groups(a: str, b: str, n_sites: int, **fields) -> Scenario:
    """Member 0 creates groups ``a`` and ``b``; the others join both
    (task ``join`` + site), 25 s apart."""
    return Scenario(
        n_sites=n_sites, creates=((0, (a, b), "create"),),
        joins=tuple((25.0, ((site, (a, b), f"join{site}"),))
                    for site in range(1, n_sites)),
        **fields)


def tap_wire(system, n_sites: int) -> List[Any]:
    """Every message the kernels of sites ``0 .. n_sites - 1`` hand to
    ``send_to_site`` from now on."""
    sent = []
    for site in range(n_sites):
        kernel = system.kernel(site)

        def tapped(dst_site, msg, send=kernel.send_to_site):
            sent.append(msg)
            return send(dst_site, msg)

        kernel.send_to_site = tapped
    return sent


def deploy_group(system, group: str, n_sites: int, join_wait: float = 20.0,
                 entry: int = ENTRY, field: Optional[str] = None):
    """:func:`one_group`'s set-up on an existing ``system``.  Returns the
    members' ``(process, isis)`` and, per site, what its member is handed
    at ``entry``: each message, or its ``field``."""
    members = Recorder(system).deploy(one_group(group, n_sites, join_wait))
    handed = {site: [] for site in range(n_sites)}
    for site, (process, _) in enumerate(members):
        process.bind(entry, lambda msg, s=site: handed[s].append(
            msg if field is None else msg[field]))
    return members, handed


def replicas(n_sites: int, seed: int, config: IsisConfig,
             **fields) -> Scenario:
    """Members ``app<site>`` that hold what they deliver as transferable
    state; member 0 creates ``grp`` and the others join it 5 s apart."""
    return one_group("grp", n_sites, 5.0, seed=seed, config=config,
                     member="app{site}", state=True, settle=8.0, **fields)


def bursts(plan, group: str) -> Tuple[Task, ...]:
    """A plan of ``(sender site, kind, burst)``: task ``blast<t>`` sends
    ``burst`` multicasts of one kind, tagged ``<k>:<t>:<i>``, at once."""
    return tuple(
        Task(f"blast{t}", f"m{site}", (group,), kind, burst,
             "{k}:" + f"{t}:" + "{i}")
        for t, (site, kind, burst) in enumerate(plan))


def churn(seed: int, script, n_sites: int = 4, group: str = "ff",
          sends: int = 14, config: Optional[IsisConfig] = None) -> Scenario:
    """The churn family: member 0 creates ``group`` and the others join
    it 15 s apart; every member then sends ``sends`` multicasts 0.11 s
    apart, CBCAST and ABCAST in turn, while ``script``'s steps play
    1.2 s apart.  A step is ``(kind, arg)``: ``kill`` member ``arg``,
    ``crash`` site ``arg``, ``gbcast``, ``join`` a new process at site
    ``arg``, or ``partition`` the sites in two halves for 0.8 s (below
    the failure-detection timeout)."""
    halves = [list(range(n_sites // 2)), list(range(n_sites // 2, n_sites))]
    faults = []
    for step, (kind, arg) in enumerate(script):
        if kind == "partition":
            faults += [(1.2, ("partition", halves)), (0.8, ("heal",))]
        elif kind == "gbcast":
            faults.append((1.2, ("gbcast", group, f"gb:{step}", f"gb{step}")))
        elif kind == "join":
            faults.append((1.2, ("join", arg, f"late{step}", (group,))))
        elif kind == "kill":
            faults.append((1.2, ("kill", f"m{arg}")))
        else:
            faults.append((1.2, (kind, arg)))
    return one_group(
        group, n_sites, 15.0, "j", seed=seed, config=config,
        traffic=tuple(
            Task(f"t{site}", f"m{site}", (group,),
                 ("abcast", "cbcast") if site % 2 else ("cbcast", "abcast"),
                 sends, f"s{site}:" + "{k}:{i}", gap=0.11)
            for site in range(n_sites)),
        faults=tuple(faults))


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def check(record: Record) -> None:
    """Raise AssertionError, naming the rule, if ``record`` breaks one."""
    for rule, predicate in RULES:
        problem = predicate(record)
        if problem:
            raise AssertionError(f"{rule}: {problem}")


def _exactly_once(record):
    for process, stream in record.streams.items():
        seen, replayed = set(), set()
        for group, view_id, _, tag in stream:
            send = record.sent.get(tag)
            if send is None:
                return f"{process} was handed {tag!r}, which nobody sent"
            if send.group != group:
                return (f"{process} was handed {tag!r} in {group}; it was "
                        f"sent to {send.group}")
            if view_id is None:     # a rebuild from the log may repeat
                replayed.add(tag)
                continue
            if tag in seen or tag in replayed:
                return f"{process} was handed {tag!r} twice"
            seen.add(tag)
    return None


def _in_send_order(record, key):
    """The first live delivery, anywhere, that comes after a later send
    of its ``key`` (``key(sender, send, group)``; None: not checked)."""
    for process, stream in record.streams.items():
        last = {}
        for group, _, sender, tag in _live(stream):
            send = record.sent[tag]
            k = key(sender, send, group)
            if k is not None and last.get(k, -1) >= send.index:
                return (f"{process} was handed {tag!r} after #{last[k]} "
                        f"of {sender}'s task {send.task}")
            if k is not None:
                last[k] = send.index
    return None


def _fifo(record):
    return _in_send_order(record, lambda sender, send, group:
                          (sender, send.task, group, send.kind))


def _live(stream):
    """A stream without its replays from the log: those rebuild state
    (the durable-replica rule's business) and are in no view and no
    order."""
    return [entry for entry in stream if entry[1] is not None]


def _by_group(record, stream):
    out = defaultdict(list)
    for group, _, _, tag in _live(stream):
        out[group].append(tag)
    return out


def _abcast_order(record):
    orders = {}
    for process, stream in record.streams.items():
        orders[process] = {
            group: [t for t in tags if record.sent[t].kind == "abcast"]
            for group, tags in _by_group(record, stream).items()}
    for a, b in combinations(sorted(orders), 2):
        for group in orders[a].keys() & orders[b].keys():
            common = set(orders[a][group]) & set(orders[b][group])
            seq_a = [t for t in orders[a][group] if t in common]
            seq_b = [t for t in orders[b][group] if t in common]
            if seq_a != seq_b:
                return (f"{a} and {b} order the ABCASTs of {group} "
                        f"differently: {seq_a} vs {seq_b}")
    return None


def _same_view_set(record):
    # (group, view id) -> the member lists installed under that id.
    lists = defaultdict(set)
    for rows in record.installed.values():
        for group, view_id, members in rows:
            lists[(group, view_id)].add(frozenset(members))

    def members_of(process, group, view_id):
        return next((members for members in lists.get((group, view_id), ())
                     if process in members), None)

    # (group, view id, member list, "outlived" | "ended") -> process -> set
    held = defaultdict(dict)
    for process, stream in record.streams.items():
        by_view = defaultdict(set)
        last = {}
        for group, view_id, _, tag in _live(stream):
            closes = view_id - 1 if record.sent[tag].kind == "gbcast" \
                else view_id
            by_view[(group, closes)].add(tag)
            last[group] = max(last.get(group, 0), view_id)
        ended = record.final.get(process, {})
        for group in last.keys() | ended.keys():
            joined = [v for (g, v), ls in lists.items()
                      if g == group and any(process in m for m in ls)]
            first = min(joined) if joined else min(
                (v for (g, v) in by_view if g == group), default=0)
            end = ended.get(group, last.get(group, 0))
            for view_id in range(first, end):
                key = (group, view_id, members_of(process, group, view_id),
                       "outlived")
                held[key][process] = frozenset(by_view[(group, view_id)])
            if group in ended:
                key = (group, end, members_of(process, group, end), "ended")
                held[key][process] = frozenset(by_view[(group, end)])
    for (group, view_id, _, how), sets in held.items():
        (a, set_a), *rest = sorted(sets.items())
        for b, set_b in rest:
            if set_b != set_a:
                return (f"{a} and {b} {how} view {view_id} of {group} "
                        f"holding different sets: only {a} "
                        f"{sorted(set_a - set_b)}, only {b} "
                        f"{sorted(set_b - set_a)}")
    return None


def _gbcast_order(record):
    places = {}
    for process, stream in record.streams.items():
        places[process] = {group: {t: i for i, t in enumerate(tags)}
                           for group, tags in _by_group(record, stream).items()}
    for a, b in combinations(sorted(places), 2):
        for group in places[a].keys() & places[b].keys():
            at_a, at_b = places[a][group], places[b][group]
            common = at_a.keys() & at_b.keys()
            for gb in common:
                if record.sent[gb].kind != "gbcast":
                    continue
                for m in common:
                    if (at_a[m] < at_a[gb]) != (at_b[m] < at_b[gb]):
                        return (f"{m!r} and GBCAST {gb!r} are delivered in "
                                f"one order at {a}, the other at {b}")
    return None


def _cross_group_causal(record):
    if not record.steady:
        return None
    groups, kinds = defaultdict(set), defaultdict(set)
    for send in record.sent.values():
        groups[send.task].add(send.group)
        kinds[send.task].add(send.kind)
    alternating = {task for task in groups
                   if len(groups[task]) > 1 and kinds[task] == {"cbcast"}}
    return _in_send_order(record, lambda sender, send, group:
                          (sender, send.task) if send.task in alternating
                          else None)


def _one_view_per_id(record):
    seen = {}
    for site, rows in sorted(record.installed.items()):
        for group, view_id, members in rows:
            first = seen.setdefault((group, view_id), (site, set(members)))
            if first[1] != set(members):
                return (f"sites {first[0]} and {site} installed view "
                        f"{view_id} of {group} as {sorted(first[1])} and "
                        f"{sorted(members)}")
    return None


def _durable_replica(record):
    for process, (predecessor, held) in record.restored.items():
        before = record.states[predecessor]
        if held != before[:len(held)]:
            return (f"{process} restored {held} from the log of "
                    f"{predecessor}, which held {before}: not a prefix")
    return None


RULES = (
    ("exactly-once", _exactly_once),
    ("fifo", _fifo),
    ("abcast-order", _abcast_order),
    ("same-view-set", _same_view_set),
    ("gbcast-order", _gbcast_order),
    ("cross-group-causal", _cross_group_causal),
    ("one-view-per-id", _one_view_per_id),
    ("durable-replica", _durable_replica),
)
