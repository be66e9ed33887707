"""Causal delivery: the one engine against its references and its spec.

``repro.core`` has one CBCAST drain (dependency-indexed: FIFO wake-ups,
WaitIndex thresholds, view-change wakes) and one two-phase ABCAST drain
(a lazy heap).  The simple versions they replaced live in
``reference_causal.py``; here the two are compared where the code
differs, at the receiver, on random arrival orders, and at the kernel,
whose drain over 2-3 groups must leave nothing pending that a rescan of
every group would deliver.  At system level
the random workloads (multi-group, loss, a mid-stream crash) are checked
against what virtual synchrony promises, and two fixed-seed workloads
against per-site delivery digests recorded from the scan engine at the
last commit that had one.
"""

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_causal as reference
from reference_causal import VectorClock, causal_fields
from conformance import Run, Scenario, Task, check, partition_heal, two_groups
from stub_engine import StubEngine
from repro import IsisCluster
from repro.core.cbcast import CausalReceiver, SenderChain
from repro.core.vectorclock import (
    ContextEncoder,
    apply_context_delta,
    parse_context_delta,
)
from repro.msg import (Address, Message, make_group_address,
                       make_process_address)


# ----------------------------------------------------------------------
# System level: two fully overlapping groups
# ----------------------------------------------------------------------
PATTERNS = {"a": ("da",), "b": ("db",), "ab": ("da", "db")}


def _two_groups(seed, plan, loss, crash_site=None, crash_after=None):
    """Member 0 creates ``da`` and ``db``, the others join both; then a
    plan of ``(sender, group pattern, kind, burst)`` tasks."""
    return two_groups(
        "da", "db", 3, seed=seed, loss_rate=loss,
        traffic=tuple(
            Task(f"blast{t}", f"m{site}", PATTERNS[pattern], kind, burst,
                 "{k}:" + f"{t}:" + "{i}")
            for t, (site, pattern, kind, burst) in enumerate(plan)),
        faults=() if crash_site is None
        else ((crash_after, ("crash", crash_site)),),
        tail=251.0)


@given(
    seed=st.integers(0, 500),
    loss=st.sampled_from([0.0, 0.03, 0.08]),
    plan=st.lists(
        st.tuples(st.integers(0, 2),                    # sender index
                  st.sampled_from(["a", "b", "ab"]),    # group pattern
                  st.sampled_from(["cbcast", "abcast"]),
                  st.integers(1, 5)),                   # burst length
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=10, deadline=None)
def test_multi_group_workloads_conform(seed, loss, plan):
    record = Run(_two_groups(seed, plan, loss)).play()
    check(record)
    if loss == 0.0:
        assert record.steady
        sent = sum(burst for _, _, _, burst in plan)
        assert all(len(record.streams[f"m{s}"]) == sent for s in range(3))


@given(
    seed=st.integers(0, 500),
    crash_site=st.integers(1, 2),
    crash_after=st.floats(0.05, 1.5),
)
@settings(max_examples=6, deadline=None)
def test_workloads_conform_across_view_changes(seed, crash_site, crash_after):
    plan = [(i, "ab", "cbcast", 6) for i in range(3)]
    record = Run(_two_groups(seed, plan, 0.05, crash_site=crash_site,
                             crash_after=crash_after)).play()
    final = record.final
    assert f"m{crash_site}" not in final and final
    check(record)
    # Everything a survivor sent reaches every survivor it ends with.
    views = {member: record.views[record.sites[member]] for member in final}
    for member in final:
        for sender in final:
            if len(final[member]) == 2 and views[sender] == views[member]:
                assert sum(1 for _, _, who, _ in record.streams[member]
                           if who == sender) == 6


def _digests(streams):
    return {site: hashlib.sha256(repr(stream).encode()).hexdigest()[:16]
            for site, stream in streams.items()}


#: The deep backlog's split, short enough that no site is suspected
#: whatever the heartbeats' phase and if one heartbeat is lost: the
#: silence it leaves is at most the split and two heartbeat intervals
#: (a row of ``tests/test_timing_budget.py``).  A 1.0 s split is not
#: (``test_fast_flush_properties.py``,
#: ``test_found_by_the_partition_heal_backlog``).
SPLIT = 0.4


def test_deep_backlog_partition_heal_matches_recorded_scan_order():
    """Deterministic deep-buffer case: a partition builds a causal
    backlog, the heal floods it in.  The engine drains it in the order
    the scan engine did, and leaves no index state."""
    record = Run(partition_heal(SPLIT)).play()
    # The split is below failure detection: traffic queues, no view moves.
    assert record.trace.value("fd.suspicions") == 0
    for site in range(4):
        stats = record.kernels[site].stats()
        assert stats["wait_index.size"] == 0
        assert stats["causal.pending"] == 0
        # Everyone got all 100 messages.
        assert len(record.streams[f"m{site}"]) == 100
    # The spec first, the recorded order second: only a conforming order
    # is worth freezing.
    check(record)
    assert _digests({site: record.tags(f"m{site}") for site in range(4)}) \
        == DEEP_BACKLOG_DIGESTS


# ----------------------------------------------------------------------
# System level: ring-overlapping groups of partial membership
# ----------------------------------------------------------------------
def _ring(seed, loss, burst, crash_site, crash_after, n_sites=4, span=3):
    """Group *i* spans sites *i .. i+span-1* (mod n): every site sits in
    ``span`` groups, no two groups have the same members, and a sender's
    context names groups most of its receivers are not in."""
    return Run(Scenario(
        n_sites=n_sites, seed=seed, loss_rate=loss,
        creates=tuple((site, (f"ring{site}",), f"create{site}")
                      for site in range(n_sites)),
        joins=tuple(
            (25.0, tuple(((group + hop) % n_sites, (f"ring{group}",),
                          f"join{group}.{(group + hop) % n_sites}")
                         for group in range(n_sites)))
            for hop in range(1, span)),
        traffic=tuple(
            Task(f"blast{site}", f"m{site}",
                 tuple(f"ring{(site - back) % n_sites}"
                       for back in range(span)),
                 "cbcast", burst, f"cb:{site}:" + "{i}")
            for site in range(n_sites)),
        faults=((crash_after, ("crash", crash_site)),), tail=251.0)).play()


@given(
    seed=st.integers(0, 500),
    loss=st.sampled_from([0.0, 0.03, 0.06]),
    burst=st.integers(3, 9),
    crash_site=st.integers(0, 3),
    crash_after=st.floats(0.05, 2.0),
)
@settings(max_examples=8, deadline=None)
def test_ring_overlapping_groups_conform(seed, loss, burst, crash_site,
                                         crash_after):
    record = _ring(seed, loss, burst, crash_site, crash_after)
    assert any(record.streams.values())
    assert f"m{crash_site}" not in record.final
    check(record)


@pytest.mark.parametrize("seed,loss", [(472, 0.06)])
def test_found_by_the_ring_search(seed, loss):
    """The one draw of ``test_ring_overlapping_groups_conform`` in seeds
    0-500 at 6 % loss that failed: during the joins, before any traffic
    and before the crash, the site-view coordinator removed live site 1
    on the word of site 2, which the site view had already excluded, and
    site 3 then committed its own view 4 of ring1 beside site 1's.  A
    suspicion now counts only from a member (``fd/siteview.py``
    ``_on_suspect``)."""
    check(_ring(seed, loss, burst=5, crash_site=0, crash_after=0.5))


def test_ring_with_crash_matches_recorded_scan_order():
    record = _ring(seed=7, loss=0.03, burst=9, crash_site=2, crash_after=0.8)
    assert sorted(record.final) == ["m0", "m1", "m3"]
    check(record)   # before any re-recording
    gid = {group: (addr.site, addr.local_id)
           for group, addr in record.gids.items()}
    assert _digests({site: [(gid[group], tag)
                            for group, _, _, tag in record.streams[f"m{site}"]]
                     for site in range(4)}) == RING_DIGESTS


#: Per-site digests of the ordered delivery streams of the two fixed-seed
#: workloads above, recorded at commit 200a7b1 with the scan engine
#: selected: the order it delivered in, frozen when it left ``src/``.
#:
#: Both LANs are lossy and CPU time is charged per byte, so a shorter
#: ``g.cb`` moves which retransmission lands first; what moves is the
#: interleaving of *concurrent* messages, never a sender's own order, and
#: each new order passed the conformance check before it was frozen.
#:
#: * When the stability piggyback shrank to one blob (21 bytes a ``g.cb``),
#:   ``RING_DIGESTS[3]`` f6ecff9f2e21c60b -> afe7cd3e8878ed59: site 3 swapped
#:   its own ``cb:3:7`` / ``cb:3:8`` against site 2's ``cb:2:6`` / ``cb:2:7``.
#: * When a chained ``cb_ctx`` took positions for addresses (13 bytes a
#:   single-group ``g.cb``), ``RING_DIGESTS[3]`` -> 1677888c360ed601: site 3
#:   delivers ``cb:3:7`` before ``cb:2:6`` in group (2, 1), nothing else
#:   moves; and the deep backlog's sites 0-2 (cdd1630c04739be6,
#:   00d5934764e2d447, 7ce0840f692d61f2 before): site 0 swaps ``d2:11`` and
#:   ``d3:11``; site 1 takes ``d2:k`` before ``d0:k`` for k = 2, 3,
#:   ``d1:24`` before ``d0:23`` and ``d2:k`` before ``d3:k`` from k = 10 on;
#:   site 2 takes ``d2:2`` before ``d0:1`` and ``d2:3`` before ``d3:2``,
#:   alternates ``d2`` / ``d3`` through 21 where it ran ``d2:14-24`` ahead,
#:   and sees ``d1:8`` one place sooner.  Site 3 kept its digest, as did
#:   ring sites 0-2.
#: * When the pipeline protocols took their positional form (a ``g.cb``
#:   about 135 bytes shorter, an ordering or stability note a fifth of
#:   its size), every site of both workloads moved.  Deep backlog (before:
#:   b04d479ae56ea874, 1928a3db33bcec66, 431e8721f5e04fec,
#:   e35ea5858e493a68): sites 0-3 flip 79 / 172 / 128 / 84 pairs of
#:   concurrent deliveries, and 64 / 70 / 71 / 61 of their 100 take
#:   another place.  Ring (before: 9a8cf05e59bd3323, 4c974e9b48bde899,
#:   f348ae62a5992550, 1677888c360ed601): sites 0, 2 and 3 flip 39 / 18 /
#:   24 pairs; site 1 only delivers ``cb:1:3`` in group (1, 1) before
#:   ``cb:2:2`` in group (0, 1).  No two messages of one sender flip.
#: * When every other declared protocol took its positional form too (a
#:   flush report or commit, a join or a welcome a fifth to a ninth of its
#:   size), the deep backlog's three joins finish sooner and every site
#:   moved (before: a79088cde560c2b2, 9ed55459fafb3251, a33a2064f3d1ff5b,
#:   5bce96942191f804): sites 0-3 flip 85 / 86 / 67 / 12 pairs of
#:   concurrent deliveries, and 31 / 40 / 25 / 14 of their 100 take
#:   another place; no two messages of one sender flip.  The ring, whose
#:   groups are made before any traffic, kept its digests.
#: * When the flat stability round (``g.stab.q``, answers, cut) became
#:   the collection wave over a one-level tree (leaves push ``g.stab.up``
#:   to the root), the stability traffic under the 2 % loss changed and
#:   three sites moved (before: d1fa0430f70dabcd, 08224dc8bc426b63,
#:   8d2b3daf4ed2baf9): the tail of the heal interleaves two concurrent
#:   senders otherwise.  Site 0 delivers d3:21-23 each one place earlier
#:   among d2:22-24 (6 pairs flip, places 93-98); site 1 delivers
#:   d3:22-24 before d2:20-22 (6 pairs, places 92-97); site 2 delivers
#:   d1:18-21 each one place earlier among d0:19-23 (7 pairs, places
#:   87-95).  No two messages of one sender flip; site 3 kept its order.
#: * When the kernel's causal drain went from one pass in creation order,
#:   skipping the arriving group, to a fixpoint (a group woken behind the
#:   pass is drained in the same call, not at the next arrival), ring
#:   site 1 moved (before: 1f2587a51c1876b8): of its 27 deliveries, places
#:   15-26 take another order.  Site 3's ``cb:3:3``, ``cb:3:5``,
#:   ``cb:3:6`` and ``cb:3:8`` each come sooner (places 17 / 19 / 23 / 25
#:   -> 15 / 18 / 20 / 21), site 0's ``cb:0:4``, ``cb:0:6`` and ``cb:0:7``
#:   later (18 / 21 / 24 -> 22 / 23 / 26); 12 pairs flip, each of two
#:   senders.  Sites 0, 2 and 3 and the deep backlog kept their digests.
#: * When a ``cb_ctx`` took view ranks for member addresses (a chain head
#:   8 bytes shorter per member, a moved entry one byte shorter), the deep
#:   backlog's site 3 moved (before: d2e5f2924c808cad): it delivers
#:   site 2's ``d2:1`` before its own ``d3:2`` (places 8 and 9 swap), one
#:   pair of concurrent deliveries; nothing else moves, and the ring kept
#:   its digests.
#: * When a moved ``cb_ctx`` entry dropped its position when adjacent and
#:   its ranks when they are a prefix (an entry of k counters up to k + 1
#:   bytes shorter), every deep-backlog site moved (before: e1637bf46ba22c34,
#:   e5a3346d62ef7274, 753590ddf659331f, c4af8aa94e7eeed1): shorter frames
#:   cost less CPU per byte, so the concurrent senders' copies reach each
#:   site in another interleaving.  Site 0 flips 152 pairs (places 9-89
#:   differ, first ``d2:2`` / ``d1:2``), site 1 126 (17-99, first ``d0:4``
#:   now before ``d2:4``, ``d3:4`` and ``d1:5``), site 2 106 (13-98, first
#:   ``d0:3`` / ``d1:3``), site 3 115 (9-96, first ``d0:2`` and ``d1:2``
#:   before ``d2:2``).  No two messages of one sender flip, each site
#:   delivers the same 100, and ``check`` passes; the ring kept its digests.
#: * When the deep backlog's split went from 1.0 s to ``SPLIT`` (0.4 s),
#:   it became another run (before: 87f9ffc0e9ffe8b2, 8fb52c6d9a9dbf9f,
#:   3ec2682d9a016728, 869571943f3f8171).  The 1.0 s split stayed below
#:   failure detection only by the heartbeats' phase, and a shorter
#:   ``g.cb`` moved that phase (``test_found_by_the_partition_heal_backlog``
#:   in ``test_fast_flush_properties.py``).  With the caller in the user
#:   message the 0.4 s split reads 74c424f251d20552, c1a9a6f1d645029b,
#:   f9bf130c6927c811, f75fb1e6d40da0bc.  A member's ``g.cb`` naming its
#:   caller once, in the envelope (57 bytes shorter), then moves every
#:   site: sites 0-3 flip 18 / 96 / 46 / 32 pairs of concurrent
#:   deliveries, and 30 / 35 / 32 / 46 of their 100 take another place.
#:   No two messages of one sender flip, each site delivers the same 100,
#:   and ``check`` passes; the ring kept its digests.
#: * When a moved ``cb_ctx`` entry whose every counter advanced by one
#:   became a unit entry (one byte, where it was one plus a count per
#:   member), every site of both workloads moved: the shorter copies
#:   reach each site in another interleaving.  Deep backlog (before:
#:   1d47dec2012546c7, 77e10f56e5780671, 29a2bad9bc240d3d,
#:   edc7c161f12221a9): sites 0-3 flip 35 / 22 / 72 / 32 pairs of
#:   concurrent deliveries, and 28 / 19 / 68 / 23 of their 100 take
#:   another place.  Ring (before: 2ebece2e2512de68, c408df4f74afa027,
#:   1b74cc83a136f248, 56edb8b4e39c7328): sites 0-3 flip 29 / 12 / 20 /
#:   23 pairs, and 14 / 9 / 13 / 14 of their 27 take another place.  No
#:   two messages of one sender flip, each site delivers the same
#:   messages, and ``check`` passes.
DEEP_BACKLOG_DIGESTS = {0: "d3dadc9ba6ac267e", 1: "194b822f4b74ba2d",
                        2: "4e8d936c97ebfc9d", 3: "d17a452282dcfb23"}
RING_DIGESTS = {0: "ea0b18090931d4ac", 1: "34552b657f7c4e64",
                2: "06bf655fe288cce4", 3: "afd0b6628c6e7aed"}


# ----------------------------------------------------------------------
# Receiver level: CausalReceiver == the scan, on one message stream
# ----------------------------------------------------------------------
CTX_GROUPS = [make_group_address(0, n) for n in range(1, 5)]
CTX_MEMBERS = [make_process_address(s, 0, 7) for s in range(3)]
#: Every view of every group here: the three members, oldest first.
VIEW = tuple(CTX_MEMBERS)
#: The same, as a ``cb_ctx`` row carries it.
PACKED_VIEW = tuple(member.pack() for member in VIEW)
#: The group whose receiver is under test; the kernel also hosts
#: CTX_GROUPS[1:3], and may join CTX_GROUPS[3] late.
HERE = CTX_GROUPS[0]


def _view(view_id):
    return SimpleNamespace(view_id=view_id, members=VIEW)


class _LocalGroup:
    """What the context check reads of a group engine: its view and its
    delivered vector, packed member -> count."""

    def __init__(self, view_id, counts):
        self.installed = True
        self.new_view(view_id)
        for member, count in counts.items():
            self.deliver(member.pack(), count)

    def deliver(self, member, count):
        self.causal.delivered[member] = count

    def new_view(self, view_id):
        self.view = _view(view_id)
        self.causal = SimpleNamespace(delivered={})


def _local_vectors(kernel, here=None):
    """The view and delivered vector of every group installed at
    ``kernel``, addresses unpacked: what :func:`reference.walk_context`
    takes.  ``here``, if given, stands in for HERE's vector."""
    local = {}
    for gid, group in kernel.engines.items():
        if group.installed and group.view is not None:
            local[gid] = (group.view.view_id, group.view.members, VectorClock(
                {Address.unpack(m): c
                 for m, c in group.causal.delivered.items()}))
    if here is not None:
        local[HERE] = local[HERE][:2] + (here,)
    return local


def _install(kernel, gid, view_id, counts):
    """A group becomes installed at the kernel, as a join's welcome does."""
    kernel.causal_check.installs += 1
    kernel.engines[gid] = _LocalGroup(view_id, counts)
    kernel._note_engine(gid)


def _install_receiver(kernel, gid, sink):
    """``gid`` becomes installed with the library's receiver, wired to the
    kernel's context check and WaitIndex as ``CausalOrdering`` wires it;
    what the kernel's drain delivers goes to ``sink``."""
    receiver = CausalReceiver(
        delta_check=lambda chain, delta, key:
            kernel.causal_check.check_delta_and_register(
                chain, delta, (gid, key)),
        on_advance=lambda sender, seq:
            kernel.causal_check.note_advance(gid.pack(), sender, seq),
        on_refuse=lambda: kernel.sim.trace.bump("kernel.bad_message"),
        layouts=kernel.causal_check.layouts)
    kernel.causal_check.installs += 1
    kernel.engines[gid] = SimpleNamespace(
        installed=True, view=_view(1), causal=receiver, deliver_env=sink)
    kernel._note_engine(gid)
    return receiver


class _Sender:
    """One member's send side: its live delivered counts in every group
    it belongs to, and its ``cb_ctx`` chain in HERE's current view."""

    def __init__(self, member, view_id):
        self.member = member
        self.seq = 0
        self.encoder = ContextEncoder({})
        #: packed gid -> [view id, packed member -> count]
        self.live = {HERE.pack(): [view_id, {}]}
        #: packed gid -> the view it left that group in: joining is a
        #: view change, so it comes back in a later one.
        self.left = {}

    def send(self, tag):
        groups = {gid: (self.live[gid][0], PACKED_VIEW, self.live[gid][1])
                  for gid in sorted(self.live)}
        self.seq += 1
        msg = Message(_proto="g.cb", cb_sender=self.member, cb_seq=self.seq,
                      cb_ctx=self.encoder.encode(groups), tag=tag)
        self.live[HERE.pack()][1][self.member.pack()] = self.seq
        return msg


def _draw_stream(data, view_id):
    """A causally consistent send history of the three members in HERE's
    view ``view_id``: between sends they deliver each other's messages
    and see other groups move (counters, views, joins, leaves)."""
    senders = [_Sender(member, view_id) for member in CTX_MEMBERS]
    stream = []
    for _ in range(data.draw(st.integers(1, 14), label="history steps")):
        sender = data.draw(st.sampled_from(senders))
        what = data.draw(st.sampled_from(
            ["send", "send", "deliver", "observe", "view", "leave"]))
        other = data.draw(st.sampled_from(CTX_GROUPS[1:])).pack()
        if what == "send":
            stream.append(sender.send(f"v{view_id}:{len(stream)}"))
        elif what == "deliver":
            peer = data.draw(st.sampled_from(senders))
            seen = sender.live[HERE.pack()][1]
            if seen.get(peer.member.pack(), 0) < peer.seq:
                seen[peer.member.pack()] = seen.get(peer.member.pack(), 0) + 1
        elif what == "observe":
            if other not in sender.live:
                sender.live[other] = [sender.left.pop(other, 0) + 1, {}]
            counts = sender.live[other][1]
            member = data.draw(st.sampled_from(CTX_MEMBERS)).pack()
            counts[member] = counts.get(member, 0) + data.draw(
                st.integers(1, 3))
        elif what == "view" and other in sender.live:
            sender.live[other] = [sender.live[other][0] + 1, {}]
        elif what == "leave" and other in sender.live:
            sender.left[other] = sender.live.pop(other)[0]
    return stream


class _ReceiverPair:
    """One kernel's HERE receiver twice over the same inputs: the
    library's, wired to the real context check and WaitIndex, and the
    scan, given the delivery rule as the reference walk of the whole
    context."""

    def __init__(self):
        self.kernel = kernel = IsisCluster(n_sites=1, seed=0).kernel(0)
        self.got, self.want = [], []
        self.engine = _install_receiver(kernel, HERE, self.got.append)
        self.scan = reference.ScanCausalReceiver(self._satisfied)
        self.view_id = 1
        for gid in CTX_GROUPS[1:3]:
            _install(kernel, gid, 1, {})

    def _satisfied(self, context):
        return reference.walk_context(
            context, _local_vectors(self.kernel, here=self.scan.delivered))[0]

    def offer(self, msg):
        self.got += self.engine.offer(msg, causal_fields(msg))
        self.kernel.causal_check.recheck()
        self.want += self.scan.offer(msg)

    def other_group_moved(self, gid, member=None, count=0):
        """HERE's kernel delivered up to ``count`` of ``member`` in
        ``gid``, or (no member) installed its next view."""
        group = self.kernel.engines[gid]
        if member is None:
            group.new_view(group.view.view_id + 1)
            self.kernel.causal_check.note_view_event(gid)
        else:
            member = member.pack()
            for seq in range(group.causal.delivered.get(member, 0) + 1,
                             count + 1):
                group.deliver(member, seq)
                self.kernel.causal_check.note_advance(gid.pack(), member, seq)
        self.kernel.causal_check.recheck()
        self.want += self.scan.recheck()

    def new_view(self):
        """As ``CausalOrdering.on_new_view`` does at a flush commit."""
        self.view_id += 1
        self.kernel.engines[HERE].view = _view(self.view_id)
        self.engine.on_new_view()
        self.kernel.causal_check.note_view_event(HERE)
        self.scan.on_new_view()

    def assert_same(self):
        def tags(msgs):
            return [m["tag"] for m in msgs]

        assert tags(self.got) == tags(self.want)
        assert (tags(self.engine.pending_messages())
                == tags(self.scan.pending_messages()))
        assert self.engine.peak_pending == self.scan.peak_pending


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_receiver_matches_scan_on_random_arrival_orders(data):
    pair = _ReceiverPair()
    for view_id in (1, 2):
        stream = data.draw(st.permutations(_draw_stream(data, view_id)))
        if view_id == 1:
            # The view ends mid-stream: the rest is never offered (the
            # pipeline drops old-view envelopes).
            stream = stream[:data.draw(st.integers(0, len(stream)))]
        for msg in stream:
            pair.offer(msg)
            pair.assert_same()
            # Meanwhile the kernel's other groups move on a schedule of
            # their own, and it may join a group the contexts name.
            move = data.draw(st.sampled_from(
                ["none", "none", "counter", "view", "join"]))
            gid = data.draw(st.sampled_from(CTX_GROUPS[1:3]))
            if move == "counter":
                pair.other_group_moved(
                    gid, data.draw(st.sampled_from(CTX_MEMBERS)),
                    data.draw(st.integers(1, 9)))
            elif move == "view":
                pair.other_group_moved(gid)
            elif move == "join" and CTX_GROUPS[3] not in pair.kernel.engines:
                _install(pair.kernel, CTX_GROUPS[3],
                         data.draw(st.integers(1, 3)), {})
            pair.assert_same()
        if view_id == 1:
            pair.new_view()
            pair.assert_same()
            assert len(pair.kernel.causal_check.wait_index) == 0
    # Every other group moves past anything a context can name: what is
    # left depends on HERE alone, and a consistent history drains.
    for gid in CTX_GROUPS[1:]:
        if gid in pair.kernel.engines:
            for _ in range(16):
                pair.other_group_moved(gid)
    pair.assert_same()
    assert pair.engine.pending_count == 0
    assert len(pair.kernel.causal_check.wait_index) == 0
    assert pair.engine.cache_sizes()[1] == 0


# ----------------------------------------------------------------------
# Kernel level: the drain leaves nothing deliverable pending
# ----------------------------------------------------------------------
@st.composite
def _cross_group_histories(draw):
    """``(n_groups, sends, arrivals)``: a CBCAST history over the first
    ``n_groups`` of CTX_GROUPS and the order one kernel receives it in.

    ``sends[i] = (member, group, learned)``: before its send the member
    has delivered every send before ``learned`` (or more, if it already
    had) and all of its own.  A prefix of the send order plus one's own
    sends is causally closed, so each history is one a run could make,
    and all of it is deliverable once all of it has arrived."""
    n_groups = draw(st.integers(2, 3))
    sends = draw(st.lists(st.tuples(st.integers(0, len(CTX_MEMBERS) - 1),
                                    st.integers(0, n_groups - 1),
                                    st.integers(0, 12)),
                          min_size=1, max_size=12))
    return n_groups, sends, draw(st.permutations(range(len(sends))))


def _cross_group_messages(n_groups, sends):
    """Each send's group and ``g.cb``, tagged with its index: its
    ``cb_ctx`` is what its member had delivered in every group, chained
    per member and group as ``CausalOrdering.stamp`` chains it."""
    learned = [0] * len(CTX_MEMBERS)
    encoders, out = {}, []
    for index, (member, group, learns) in enumerate(sends):
        learned[member] = min(index, max(learned[member], learns))
        counts = [{} for _ in range(n_groups)]
        for i, (m, g, _) in enumerate(sends[:index]):
            if i < learned[member] or m == member:
                packed = CTX_MEMBERS[m].pack()
                counts[g][packed] = counts[g].get(packed, 0) + 1
        groups = dict(sorted((CTX_GROUPS[g].pack(), (1, PACKED_VIEW, counts[g]))
                             for g in range(n_groups)))
        encoder = encoders.setdefault((member, group),
                                      ContextEncoder({}))
        out.append((CTX_GROUPS[group], Message(
            _proto="g.cb", cb_sender=CTX_MEMBERS[member],
            cb_seq=counts[group].get(CTX_MEMBERS[member].pack(), 0) + 1,
            cb_ctx=encoder.encode(groups), tag=index)))
    return out


@given(history=_cross_group_histories())
@example(history=(2, [(0, 0, 0), (2, 1, 1), (1, 0, 2)], [2, 1, 0]))
@settings(max_examples=200, deadline=None)
def test_drain_leaves_nothing_deliverable_pending(history):
    """One kernel hosts 2-3 groups, each with the library's receiver, and
    receives a cross-group history in a drawn order, calling only
    ``causal_check.recheck()`` after each arrival.  After every arrival
    it has delivered exactly what the reference scans, rescanned until
    no group progresses, deliver.

    The example: A (the first group's) waits on B (the second's), B on P;
    P arrives in the first group last, and all three are deliverable.  A
    drain that made one pass in creation order, or skipped the arriving
    group, left A pending there."""
    n_groups, sends, arrivals = history
    messages = _cross_group_messages(n_groups, sends)
    gids = CTX_GROUPS[:n_groups]
    kernel = IsisCluster(n_sites=1, seed=0).kernel(0)
    got = []
    receivers = {gid: _install_receiver(kernel, gid, got.append)
                 for gid in gids}
    scans = {}
    for gid in gids:
        scans[gid] = reference.ScanCausalReceiver(
            lambda context: reference.walk_context(context, {
                g: (1, VIEW, scan.delivered) for g, scan in scans.items()})[0])
    want = []

    def tags(msgs):
        return {m["tag"] for m in msgs}

    for index in arrivals:
        gid, msg = messages[index]
        # As CausalOrdering.ingest does.
        got.extend(receivers[gid].offer(msg, causal_fields(msg)))
        kernel.causal_check.recheck()
        want.extend(scans[gid].offer(msg))
        progress = True
        while progress:
            progress = False
            for scan in scans.values():
                more = scan.recheck()
                want.extend(more)
                progress = progress or bool(more)
        assert tags(got) == tags(want) and len(got) == len(want)
        assert not kernel.causal_check.wakes
        assert ({m["tag"] for rx in receivers.values()
                 for m in rx.pending_messages()}
                == {m["tag"] for scan in scans.values()
                    for m in scan.pending_messages()})
    assert len(got) == len(sends)
    assert len(kernel.causal_check.wait_index) == 0


# ----------------------------------------------------------------------
# Stage level: TotalOrdering's heap == a scan for the minimum
# ----------------------------------------------------------------------
REFS = [(origin, gseq) for origin in range(3) for gseq in range(1, 5)]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_total_order_heap_matches_min_scan(data):
    site, scan = StubEngine("two_phase", site_id=0), reference.ScanTotalOrder(0)
    heap = site.stage
    proposed, used = {}, set()

    def same(got, want):
        assert [m["ref"] for m in got] == [m["ref"] for m in want]
        assert len(heap._queue) == scan.pending_count

    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(
            ["propose", "propose", "finalize", "finalize", "cut", "view"]))
        ref = data.draw(st.sampled_from(REFS))
        if op == "propose":
            msg = site.envelope(ref, ref=list(ref))
            heap.ingest(msg)
            proposed[ref] = heap._queue[ref].priority
            assert proposed[ref] == scan.propose(ref, msg)
        elif op == "finalize" and ref in proposed:
            # The maximum over all sites' proposals: ours, or a larger
            # one another site made (priorities are globally unique).
            final = data.draw(st.one_of(
                st.just(proposed[ref]),
                st.tuples(st.integers(proposed[ref][0], proposed[ref][0] + 4),
                          st.integers(1, 2))))
            if final in used:
                continue
            used.add(final)
            same(site.final(ref, final), scan.finalize(ref, final))
        elif op == "cut":
            # A flush's agreed order for whatever is still queued.
            order = [[list(r), [100 + i, 1]] for i, r in enumerate(
                data.draw(st.permutations(sorted(proposed))))]
            same(heap.force_order(order), scan.force_order(order))
        elif op == "view":
            heap.on_new_view()
            scan.on_new_view()
            proposed.clear()
    same([], [])


# ----------------------------------------------------------------------
# Delta-only context check == the reference walk of the absolute context
# ----------------------------------------------------------------------
#: The evaluated message, as a WaitIndex waiter.
WAITER = (CTX_GROUPS[0], (CTX_MEMBERS[0].pack(), 1))


def _slot(kernel):
    """Where the waiter waits: ``(packed gid, (packed member, count))``,
    ``(packed gid, None)`` for a view, or None."""
    return kernel.causal_check.wait_index._slots.get(WAITER)


def _packed(threshold):
    """A :data:`reference.Threshold` as the kernel's wait index keys it."""
    if threshold is None:
        return None
    gid, counter = threshold
    if counter is None:
        return gid.pack(), None
    return gid.pack(), (counter[0].pack(), counter[1])


def _check_both_ways(kernel, chain, data, absolute):
    """One evaluation of one message: the kernel's check on the chain,
    and the reference walk of the rebuilt absolute context.  Same
    verdict, same threshold."""
    delta = parse_context_delta(data)
    satisfied = kernel.causal_check.check_delta_and_register(
        chain, delta, WAITER)
    walked, threshold = reference.walk_context(absolute,
                                               _local_vectors(kernel))
    assert satisfied == walked
    assert _slot(kernel) == _packed(threshold)
    return satisfied, delta


counts_st = st.dictionaries(st.sampled_from(CTX_MEMBERS), st.integers(1, 6))
context_st = st.dictionaries(
    st.sampled_from(CTX_GROUPS), st.tuples(st.integers(1, 3), counts_st),
    min_size=1)


def _drawn_move(data, context):
    """The sender's state moves on: counters grow, views advance, groups
    come and go."""
    for gid, (view_id, counts) in data.draw(context_st).items():
        before = context.get(gid)
        if before is not None and before[0] >= view_id:
            merged = dict(before[2].items())
            for member, count in counts.items():
                merged[member] = merged.get(member, 0) + count
            context[gid] = (before[0], VIEW, VectorClock(merged))
        else:
            context[gid] = (view_id, VIEW, VectorClock(counts))
    for gid in data.draw(st.sets(st.sampled_from(CTX_GROUPS),
                                 max_size=1)):
        if len(context) > 1:
            context.pop(gid, None)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_delta_only_check_matches_full_walk(data):
    """The kernel's one check — on the delta, or after a group install
    on the advanced chain taken as a head — against the reference walk."""
    _check_chain_against_absolute(data, _drawn_move)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_unit_entries_check_and_apply_as_absolute_contexts(data):
    """The steady case, drawn often: every member of a held group
    delivered one more, which the delta carries as a unit entry.  Its
    check wants each count one past the chain's, waits where the walk of
    the absolute context waits, and its apply leaves the chain equal to
    that context."""
    def move(data, context):
        if not context or data.draw(st.integers(0, 3)) == 0:
            _drawn_move(data, context)
        for gid in data.draw(st.sets(st.sampled_from(sorted(context)),
                                     min_size=1)):
            view_id, members, vc = context[gid]
            context[gid] = (view_id, members, VectorClock(
                {member: vc.get(member) + 1 for member in members}))
    _check_chain_against_absolute(data, move)


def _check_chain_against_absolute(data, move):
    """Play one sender's chain, its state moved by ``move(data,
    context)`` between sends, against a receiver kernel; each message is
    checked both ways (:func:`_check_both_ways`) until deliverable, then
    applied, and the chain must equal the absolute context rebuilt from
    the same bytes."""
    system = IsisCluster(n_sites=1, seed=0)
    kernel = system.kernel(0)
    # The receiver: member of some groups, its view of each behind, level
    # with or ahead of what the sender will name.
    for gid, (view_id, counts) in data.draw(context_st).items():
        _install(kernel, gid, view_id, counts)
    chain = SenderChain()
    #: The sender's absolute context as last encoded, in the chain's
    #: order: what the next delta's positions count from, and what the
    #: absolute receiver rebuilds.
    rebuilt = None
    context = {}
    for _ in range(data.draw(st.integers(1, 5))):
        move(data, context)
        wire = reference.encode_context_compact(context, rebuilt)
        rebuilt = reference.decode_context_compact(wire, rebuilt)
        # The receiver evaluates, and re-evaluates as each registered
        # threshold is crossed, until the message is deliverable.
        for _ in range(64):
            satisfied, delta = _check_both_ways(kernel, chain, wire, rebuilt)
            if satisfied:
                break
            packed_gid, counter = _slot(kernel)
            gid = Address.unpack(packed_gid)
            group = kernel.engines[gid]
            if counter is None:
                group.new_view(rebuilt[gid][0])
                # The kernel reads views through a table it rebuilds at
                # every install; the waiter's own slot must outlive this
                # one, so the table alone is dropped, not the group's
                # waits with it (``note_view_event``).
                kernel.causal_check.engines_changed()
            else:
                group.deliver(*counter)
            if data.draw(st.booleans()):
                # Meanwhile the receiver joins a group this chain may
                # already name (skipped so far as "not a member").
                late = data.draw(st.sampled_from(CTX_GROUPS))
                if late not in kernel.engines:
                    _install(kernel, late, data.draw(st.integers(1, 3)),
                             data.draw(counts_st))
        else:
            raise AssertionError("context never became satisfiable")
        assert chain.installs == kernel.causal_check.installs
        apply_context_delta(chain.context, delta, kernel.causal_check.layouts)
        assert list(reference.unpacked_context(chain.context).items()) \
            == list(rebuilt.items())
        if data.draw(st.booleans()):
            late = data.draw(st.sampled_from(CTX_GROUPS))
            if late not in kernel.engines:
                _install(kernel, late, data.draw(st.integers(1, 3)),
                         data.draw(counts_st))
    assert len(kernel.causal_check.wait_index) == 0


def test_group_installed_mid_chain_forces_one_full_walk():
    """The delta-only check's one exception: an entry skipped as "not a
    member" when the predecessor was checked, testable now.  The same
    check runs over the whole advanced chain, counted as a full walk and
    not as delta entries."""
    system = IsisCluster(n_sites=1, seed=0)
    kernel = system.kernel(0)
    g_here, g_late = CTX_GROUPS[:2]
    m = CTX_MEMBERS[0]
    _install(kernel, g_here, 1, {m: 1})
    chain = SenderChain()
    first = {g_here: (1, VIEW, VectorClock({m: 1})),
             g_late: (1, VIEW, VectorClock({m: 5}))}
    wire = reference.encode_context_compact(first)
    satisfied, delta = _check_both_ways(
        kernel, chain, wire, reference.decode_context_compact(wire))
    assert satisfied            # g_late: not a member, cannot wait
    apply_context_delta(chain.context, delta, kernel.causal_check.layouts)
    _install(kernel, g_late, 1, {m: 2})
    second = {g_here: (1, VIEW, VectorClock({m: 1})),
              g_late: (1, VIEW, VectorClock({m: 5}))}
    wire2 = reference.encode_context_compact(
        second, reference.decode_context_compact(wire))
    assert wire2 == b"\x01\x00\x00\x00"                 # names nothing
    satisfied, delta = _check_both_ways(
        kernel, chain, wire2, reference.decode_context_compact(
            wire2, reference.decode_context_compact(wire)))
    assert not satisfied
    assert _slot(kernel) == (g_late.pack(), (m.pack(), 5))
    assert kernel.counters.value("causal.ctx_full_walks") == 1
    assert kernel.counters.value("causal.ctx_delta_entries") == 2
    kernel.engines[g_late].deliver(m.pack(), 5)
    satisfied, delta = _check_both_ways(
        kernel, chain, wire2, reference.decode_context_compact(
            wire2, reference.decode_context_compact(wire)))
    assert satisfied and chain.installs == kernel.causal_check.installs
    # Once it passed, the chain is checked by delta alone again.
    _check_both_ways(kernel, chain, wire2, reference.decode_context_compact(
        wire2, reference.decode_context_compact(wire)))
    assert kernel.counters.value("causal.ctx_full_walks") == 2
    assert kernel.counters.value("causal.ctx_delta_entries") == 2


# ----------------------------------------------------------------------
# A position that names nothing, whoever runs the recheck
# ----------------------------------------------------------------------
@pytest.mark.parametrize("caller", ["offer", "recheck", "flush"])
@pytest.mark.parametrize("bad_ctx", [
    b"\x01\x00\x01\x06\x00\x02\x00",    # group 1 of 1 (a prefix, gap 0)
    b"\x01\x00\x01\x05\x03\x02\x00",    # rank 3 of 3, in group 0
    # The group the head named, in the same view 1, whole: 2 or 4
    # counts for the receiver's view of 3 members.
    b"\x01\x01" + CTX_GROUPS[1].pack() + b"\x01\x02\x00\x00\x00\x00",
    b"\x01\x01" + CTX_GROUPS[1].pack() + b"\x01\x04" + bytes(4) + b"\x00\x00",
], ids=["group", "rank", "short-vector", "long-vector"])
def test_position_naming_nothing_is_dropped_whoever_rechecks(caller, bad_ctx):
    """Positions, and a rank's view, can only be judged once the
    predecessor is delivered, which any of three callers may be the one
    to see: the arrival itself, the kernel's ``causal_check.recheck``
    when another group's advance wakes the predecessor, or the flush's
    first step.  Two of them have no ``CodecError`` handler above them."""
    kernel = IsisCluster(n_sites=1, seed=0).kernel(0)
    first, second = CTX_GROUPS[:2]
    _, q, r = CTX_MEMBERS
    got = []
    receiver = _install_receiver(kernel, first, got.append)
    _install(kernel, second, 1, {})
    context = {second: (1, VIEW, VectorClock({r: 1}))}  # waits for r's first
    head = Message(cb_sender=q, cb_seq=1, tag="head",
                   cb_ctx=reference.encode_context_compact(context))
    bad = Message(cb_sender=q, cb_seq=2, tag="bad", cb_ctx=bad_ctx)
    after = Message(cb_sender=q, cb_seq=3, tag="after",
                    cb_ctx=b"\x01\x00\x00\x00")

    def arrive(msg):                    # as CausalOrdering.ingest does
        got.extend(receiver.offer(msg, causal_fields(msg)))
        kernel.causal_check.recheck()

    def r_delivers():
        kernel.engines[second].deliver(r.pack(), 1)
        kernel.causal_check.note_advance(second.pack(), r.pack(), 1)

    if caller == "offer":
        r_delivers()
        arrive(head)
        arrive(after)
        arrive(bad)                     # refused by its own arrival
    else:
        arrive(bad)                     # before its predecessor
        arrive(after)
        arrive(head)
        assert got == [] and len(kernel.causal_check.wait_index) == 1
        r_delivers()                    # wakes the head
        if caller == "recheck":
            kernel.causal_check.recheck()
        else:
            got.extend(receiver.recheck())      # engine.py, flush step 1
    assert [m["tag"] for m in got] == ["head"]
    assert kernel.sim.trace.value("kernel.bad_message") == 1
    # Everything is where the head's delivery left it.
    assert [m["tag"] for m in receiver.pending_messages()] == ["after"]
    assert not receiver._ready and not receiver._ready_set
    assert receiver.delivered == {q.pack(): 1}
    held = reference.unpacked_context(receiver._chains[q.pack()].context)
    assert held == reference.ranked(context)
    assert len(kernel.causal_check.wait_index) == 0
    assert receiver.recheck() == []
