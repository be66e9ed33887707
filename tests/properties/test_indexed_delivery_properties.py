"""Differential properties: indexed vs legacy-scan causal delivery.

``IsisConfig.indexed_delivery`` selects between two delivery engines —
the dependency-indexed O(1) drain and the legacy O(pending²) re-scan.
They must be *observationally identical*: on any workload, every site
delivers the same messages in the same order, and the wire traffic is
byte-for-byte the same (delivery timing feeds back into causal contexts,
so any divergence shows up in these counters).  Randomized multi-group
workloads with loss and a mid-stream crash probe exactly the paths where
the two engines take different code: FIFO wakeups, cross-group WaitIndex
thresholds, view-change wakes, and flush leftovers.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IsisCluster, LanConfig
from repro.core.cbcast import SenderChain
from repro.core.kernel import IsisConfig
from repro.core.vectorclock import (
    VectorClock,
    apply_context_delta,
    decode_context_compact,
    encode_context_compact,
    parse_context_delta,
)
from repro.msg import make_group_address, make_process_address


def _run_workload(indexed, seed, plan, loss, crash_site=None,
                  crash_after=None, n_sites=3):
    system = IsisCluster(
        n_sites=n_sites, seed=seed,
        lan_config=LanConfig(loss_rate=loss),
        isis_config=IsisConfig(indexed_delivery=indexed),
    )
    deliveries = {s: [] for s in range(n_sites)}
    members = []
    for site in range(n_sites):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(16, lambda msg, s=site: deliveries[s].append(
            (msg["_group"].local_id, msg["tag"])))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("da")
        yield members[0][1].pg_create("db")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, n_sites):
        if not members[i][0].alive:
            # Loss can (deterministically) evict a site during setup;
            # both engines see the identical eviction.
            continue

        def join(isis=members[i][1]):
            for name in ("da", "db"):
                gid = yield isis.pg_lookup(name)
                yield isis.pg_join(gid)

        members[i][0].spawn(join(), f"join{i}")
        system.run_for(25.0)

    for task_id, (sender_idx, group_pattern, kind, burst) in enumerate(plan):
        proc, isis = members[sender_idx]
        if not proc.alive:
            # Heavy loss can (deterministically) evict a site during
            # setup; both engines see the identical eviction, so the
            # differential comparison still holds without this sender.
            continue

        def blast(isis=isis, task_id=task_id, pattern=group_pattern,
                  kind=kind, burst=burst):
            ga = yield isis.pg_lookup("da")
            gb = yield isis.pg_lookup("db")
            groups = {"a": [ga], "b": [gb], "ab": [ga, gb]}[pattern]
            for i in range(burst):
                gid = groups[i % len(groups)]
                yield isis.bcast(gid, 16, kind=kind,
                                 tag=f"{kind[:2]}:{task_id}:{i}")

        proc.spawn(blast(), f"blast{task_id}")
    if crash_site is not None:
        system.run_for(crash_after)
        system.crash_site(crash_site)
    system.run_for(250.0)
    trace = system.sim.trace
    wire = (trace.value("lan.frames"), trace.value("lan.bytes"),
            trace.value("transport.messages"), trace.value("transport.bytes"))
    return deliveries, wire


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
def test_indexed_matches_legacy_trajectories(seed, loss, plan):
    indexed, wire_i = _run_workload(True, seed, plan, loss)
    legacy, wire_l = _run_workload(False, seed, plan, loss)
    assert indexed == legacy, (
        "delivery trajectories diverged between indexed and legacy engines"
    )
    assert wire_i == wire_l, "wire traffic diverged between engines"


@given(
    seed=st.integers(0, 500),
    crash_site=st.integers(1, 2),
    crash_after=st.floats(0.05, 1.5),
)
@settings(max_examples=6, deadline=None)
def test_indexed_matches_legacy_across_view_changes(seed, crash_site,
                                                    crash_after):
    plan = [(i, "ab", "cbcast", 6) for i in range(3)]
    indexed, wire_i = _run_workload(True, seed, plan, 0.05,
                                    crash_site=crash_site,
                                    crash_after=crash_after)
    legacy, wire_l = _run_workload(False, seed, plan, 0.05,
                                   crash_site=crash_site,
                                   crash_after=crash_after)
    assert indexed == legacy
    assert wire_i == wire_l


def test_deep_backlog_partition_heal_differential():
    """Deterministic deep-buffer case: a partition builds a causal
    backlog, the heal floods it in — both engines must drain it to the
    same trajectory (and the indexed engine must leave no index state)."""
    results = {}
    for indexed in (True, False):
        system = IsisCluster(
            n_sites=4, seed=77,
            lan_config=LanConfig(loss_rate=0.02),
            isis_config=IsisConfig(indexed_delivery=indexed),
        )
        deliveries = {s: [] for s in range(4)}
        members = []
        for site in range(4):
            proc, isis = system.spawn(site, f"m{site}")
            proc.bind(16, lambda msg, s=site: deliveries[s].append(msg["tag"]))
            members.append((proc, isis))

        def create():
            yield members[0][1].pg_create("ph")

        members[0][0].spawn(create(), "create")
        system.run_for(3.0)
        for i in range(1, 4):
            def join(isis=members[i][1]):
                gid = yield isis.pg_lookup("ph")
                yield isis.pg_join(gid)

            members[i][0].spawn(join(), f"j{i}")
            system.run_for(20.0)
        for idx in range(4):
            proc, isis = members[idx]

            def gen(isis=isis, idx=idx):
                gid = yield isis.pg_lookup("ph")
                for i in range(25):
                    yield isis.cbcast(gid, 16, tag=f"d{idx}:{i}")

            proc.spawn(gen(), f"d{idx}")
        system.run_for(0.3)
        # Short split (below failure-detection timeouts): traffic queues.
        system.cluster.lan.partition([[0, 1], [2, 3]])
        system.run_for(1.0)
        system.cluster.lan.heal()
        system.run_for(120.0)
        results[indexed] = deliveries
        if indexed:
            for site in range(4):
                stats = system.kernel(site).stats()
                assert stats["wait_index.size"] == 0
                assert stats["causal.pending"] == 0
        # Everyone got all 100 messages, FIFO per sender.
        for site in range(4):
            assert len(deliveries[site]) == 100
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# Ring-overlapping groups of partial membership
# ----------------------------------------------------------------------
def _run_ring(indexed, seed, loss, burst, crash_site, crash_after,
              n_sites=4, span=3):
    """Group *i* spans sites *i .. i+span-1* (mod n): every site sits in
    ``span`` groups, no two groups have the same members, and a sender's
    context names groups most of its receivers are not in."""
    system = IsisCluster(
        n_sites=n_sites, seed=seed,
        lan_config=LanConfig(loss_rate=loss),
        isis_config=IsisConfig(indexed_delivery=indexed),
    )
    deliveries = {s: [] for s in range(n_sites)}
    members = []
    for site in range(n_sites):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(16, lambda msg, s=site: deliveries[s].append(
            (msg["_group"].local_id, msg["_group"].site, msg["tag"])))
        members.append((proc, isis))
    for site in range(n_sites):
        def create(isis=members[site][1], name=f"ring{site}"):
            yield isis.pg_create(name)

        members[site][0].spawn(create(), f"create{site}")
    system.run_for(3.0)
    for hop in range(1, span):
        for group in range(n_sites):
            joiner = (group + hop) % n_sites
            if not members[joiner][0].alive:
                continue    # evicted by loss during set-up, on both engines

            def join(isis=members[joiner][1], name=f"ring{group}"):
                gid = yield isis.pg_lookup(name)
                yield isis.pg_join(gid)

            members[joiner][0].spawn(join(), f"join{group}.{joiner}")
        system.run_for(25.0)
    for site in range(n_sites):
        proc, isis = members[site]
        if not proc.alive:
            continue

        def blast(isis=isis, site=site):
            gids = []
            for back in range(span):
                gid = yield isis.pg_lookup(f"ring{(site - back) % n_sites}")
                gids.append(gid)
            for i in range(burst):
                yield isis.cbcast(gids[i % span], 16, tag=f"r{site}:{i}")

        proc.spawn(blast(), f"blast{site}")
    system.run_for(crash_after)
    system.crash_site(crash_site)
    system.run_for(250.0)
    trace = system.sim.trace
    wire = (trace.value("lan.frames"), trace.value("lan.bytes"),
            trace.value("transport.messages"), trace.value("transport.bytes"))
    return deliveries, wire


@given(
    seed=st.integers(0, 500),
    loss=st.sampled_from([0.0, 0.03, 0.06]),
    burst=st.integers(3, 9),
    crash_site=st.integers(0, 3),
    crash_after=st.floats(0.05, 2.0),
)
@settings(max_examples=8, deadline=None)
def test_indexed_matches_legacy_on_ring_overlapping_groups(
        seed, loss, burst, crash_site, crash_after):
    indexed, wire_i = _run_ring(True, seed, loss, burst, crash_site,
                                crash_after)
    legacy, wire_l = _run_ring(False, seed, loss, burst, crash_site,
                               crash_after)
    assert indexed == legacy
    assert wire_i == wire_l
    assert any(indexed.values())


# ----------------------------------------------------------------------
# Delta-only context check == full walk of the absolute context
# ----------------------------------------------------------------------
CTX_GROUPS = [make_group_address(0, n) for n in range(1, 5)]
CTX_MEMBERS = [make_process_address(s, 0, 7) for s in range(3)]
#: The two evaluations of one message, as WaitIndex waiters.
DELTA_WAITER = (CTX_GROUPS[0], (CTX_MEMBERS[0], 1))
WALK_WAITER = (CTX_GROUPS[0], (CTX_MEMBERS[0], 2))


class _LocalGroup:
    """What the context check reads of a group engine."""

    def __init__(self, view_id, counts):
        self.installed = True
        self.view = SimpleNamespace(view_id=view_id)
        self.causal = SimpleNamespace(delivered=VectorClock(),
                                      delivered_packed={})
        for member, count in counts.items():
            self.deliver(member, count)

    def deliver(self, member, count):
        self.causal.delivered.set(member, count)
        self.causal.delivered_packed[member.pack()] = count

    def new_view(self, view_id):
        self.view = SimpleNamespace(view_id=view_id)
        self.causal = SimpleNamespace(delivered=VectorClock(),
                                      delivered_packed={})


def _install(kernel, gid, view_id, counts):
    """A group becomes installed at the kernel, as a join's welcome does."""
    kernel._group_installs += 1
    kernel.engines[gid] = _LocalGroup(view_id, counts)
    kernel._note_engine(gid)


def _slot(kernel, waiter):
    for part in kernel.wait_index._parts:
        if waiter in part._slots:
            return part._slots[waiter]
    return None


def _check_both_ways(kernel, chain, data, absolute):
    """One evaluation of one message: delta-only on the chain, full walk
    on the rebuilt absolute context.  Same verdict, same threshold."""
    delta = parse_context_delta(data)
    by_delta = kernel.check_delta_and_register(chain, delta, DELTA_WAITER)
    by_walk = kernel.check_context_and_register(absolute, WALK_WAITER)
    assert by_delta == by_walk
    assert _slot(kernel, DELTA_WAITER) == _slot(kernel, WALK_WAITER)
    return by_delta, delta


counts_st = st.dictionaries(st.sampled_from(CTX_MEMBERS), st.integers(1, 6))
context_st = st.dictionaries(
    st.sampled_from(CTX_GROUPS), st.tuples(st.integers(1, 3), counts_st),
    min_size=1)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_delta_only_check_matches_full_walk(data):
    system = IsisCluster(n_sites=1, seed=0)
    kernel = system.kernel(0)
    # The receiver: member of some groups, its view of each behind, level
    # with or ahead of what the sender will name.
    for gid, (view_id, counts) in data.draw(context_st).items():
        _install(kernel, gid, view_id, counts)
    chain = SenderChain()
    sent = None         # sender's absolute context, as last encoded
    rebuilt = None      # the same, as the old receiver rebuilt it
    context = {}
    for _ in range(data.draw(st.integers(1, 5))):
        # The sender's state moves on: counters grow, views advance,
        # groups come and go.
        for gid, (view_id, counts) in data.draw(context_st).items():
            before = context.get(gid)
            if before is not None and before[0] >= view_id:
                merged = dict(before[1].items())
                for member, count in counts.items():
                    merged[member] = merged.get(member, 0) + count
                context[gid] = (before[0], VectorClock(merged))
            else:
                context[gid] = (view_id, VectorClock(counts))
        for gid in data.draw(st.sets(st.sampled_from(CTX_GROUPS),
                                     max_size=1)):
            if len(context) > 1:
                context.pop(gid, None)
        wire = encode_context_compact(context, sent)
        rebuilt = decode_context_compact(wire, rebuilt)
        sent = {gid: (v, vc.copy()) for gid, (v, vc) in context.items()}
        # The receiver evaluates, and re-evaluates as each registered
        # threshold is crossed, until the message is deliverable.
        for _ in range(64):
            satisfied, delta = _check_both_ways(kernel, chain, wire, rebuilt)
            if satisfied:
                break
            gid, counter = _slot(kernel, DELTA_WAITER)
            group = kernel.engines[gid]
            if counter is None:
                group.new_view(rebuilt[gid][0])
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
        assert chain.installs == kernel._group_installs
        apply_context_delta(chain.context, delta)
        if data.draw(st.booleans()):
            late = data.draw(st.sampled_from(CTX_GROUPS))
            if late not in kernel.engines:
                _install(kernel, late, data.draw(st.integers(1, 3)),
                         data.draw(counts_st))
    assert len(kernel.wait_index) == 0


def test_group_installed_mid_chain_forces_one_full_walk():
    """The delta-only check's one exception: an entry skipped as "not a
    member" when the predecessor was checked, testable now."""
    system = IsisCluster(n_sites=1, seed=0)
    kernel = system.kernel(0)
    g_here, g_late = CTX_GROUPS[:2]
    m = CTX_MEMBERS[0]
    _install(kernel, g_here, 1, {m: 1})
    chain = SenderChain()
    first = {g_here: (1, VectorClock({m: 1})),
             g_late: (1, VectorClock({m: 5}))}
    wire = encode_context_compact(first)
    satisfied, delta = _check_both_ways(
        kernel, chain, wire, decode_context_compact(wire))
    assert satisfied            # g_late: not a member, cannot wait
    apply_context_delta(chain.context, delta)
    _install(kernel, g_late, 1, {m: 2})
    second = {g_here: (1, VectorClock({m: 1})),
              g_late: (1, VectorClock({m: 5}))}
    wire2 = encode_context_compact(second, first)
    assert parse_context_delta(wire2).entries == []     # names nothing
    satisfied, delta = _check_both_ways(
        kernel, chain, wire2, decode_context_compact(
            wire2, decode_context_compact(wire)))
    assert not satisfied
    assert _slot(kernel, DELTA_WAITER) == (g_late, (m, 5))
    assert kernel._ctx_full_walks == 1
    kernel.engines[g_late].deliver(m, 5)
    satisfied, delta = _check_both_ways(
        kernel, chain, wire2, decode_context_compact(
            wire2, decode_context_compact(wire)))
    assert satisfied and chain.installs == kernel._group_installs
    # Once it passed, the chain is checked by delta alone again.
    _check_both_ways(kernel, chain, wire2, decode_context_compact(
        wire2, decode_context_compact(wire)))
    assert kernel._ctx_full_walks == 2
