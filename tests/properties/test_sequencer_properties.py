"""Property tests: the two total-order engines against each other.

Under a fixed seed with no failures, both ordering engines (two-phase,
sequencer) must give a *valid* virtually synchronous execution: every
member delivers the same ABCAST sequence, per-task FIFO holds, and the
delivered message set is identical between the modes (the chosen
interleavings may differ — priority order vs token-arrival order — but
neither may lose, duplicate, or diverge).  The compact causal-context codec is also
chain-checked here against randomly grown contexts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_causal as reference
from reference_causal import VectorClock
from repro import IsisCluster, IsisConfig
from repro.core.vectorclock import (
    ChainContext,
    ContextEncoder,
    apply_context_delta,
    check_delta_positions,
    parse_context_delta,
)
from repro.msg.address import make_group_address, make_process_address


def _run_workload(seed, plan, mode, batch_window):
    config = IsisConfig(abcast_mode=mode, batch_window=batch_window)
    system = IsisCluster(n_sites=3, seed=seed, isis_config=config)
    deliveries = {site: [] for site in range(3)}
    members = []
    for site in range(3):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(16, lambda msg, s=site: deliveries[s].append(msg["tag"]))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("modes")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in (1, 2):
        def join(isis=members[i][1]):
            gid = yield isis.pg_lookup("modes")
            yield isis.pg_join(gid)

        members[i][0].spawn(join(), f"join{i}")
        system.run_for(20.0)
    for task_id, (sender_idx, kind, burst) in enumerate(plan):
        proc, isis = members[sender_idx]

        def blast(isis=isis, kind=kind, burst=burst, task_id=task_id):
            gid = yield isis.pg_lookup("modes")
            for i in range(burst):
                yield isis.bcast(gid, 16, kind=kind,
                                 tag=f"{kind[:2]}:{task_id}:{i}")

        proc.spawn(blast(), f"blast{task_id}")
    system.run_for(200.0)
    return deliveries


@given(
    seed=st.integers(0, 1000),
    plan=st.lists(
        st.tuples(st.integers(0, 2),              # sender index
                  st.sampled_from(["cbcast", "abcast"]),
                  st.integers(1, 4)),             # burst length
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=8, deadline=None)
def test_modes_agree_on_set_and_internal_order(seed, plan):
    by_mode = {}
    for mode in ("two_phase", "sequencer"):
        deliveries = _run_workload(seed, plan, mode, batch_window=0.010)
        # Every member of this mode delivered the identical ABCAST order.
        ab = [[t for t in deliveries[s] if t.startswith("ab")]
              for s in range(3)]
        assert ab[0] == ab[1] == ab[2], mode
        # Per-task FIFO at every member.
        for site in range(3):
            for task_id, (_, kind, _burst) in enumerate(plan):
                seq = [int(t.split(":")[2]) for t in deliveries[site]
                       if t.startswith(f"{kind[:2]}:{task_id}:")]
                assert seq == sorted(seq), mode
        # All members delivered the same set.
        sets = [set(deliveries[s]) for s in range(3)]
        assert sets[0] == sets[1] == sets[2], mode
        by_mode[mode] = sets[0]
    # Both engines deliver exactly the same message set: the sequencer
    # changes the interleaving, never the membership of the execution.
    assert by_mode["two_phase"] == by_mode["sequencer"]


def test_sequencer_deterministic_same_seed():
    plan = [(0, "abcast", 3), (1, "abcast", 3), (2, "cbcast", 2)]
    runs = [_run_workload(99, plan, "sequencer", 0.010) for _ in range(2)]
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Compact context codec: chained deltas over random context evolution
# ----------------------------------------------------------------------
@st.composite
def _context_history(draw):
    """A short history of contexts that grow like real delivered vectors."""
    n_groups = draw(st.integers(1, 3))
    n_members = draw(st.integers(1, 4))
    steps = draw(st.integers(1, 6))
    gids = [make_group_address(0, g + 1).process() for g in range(n_groups)]
    members = [make_process_address(0, 1, m + 1).process()
               for m in range(n_members)]
    views = {gid: 1 for gid in gids}
    counts = {gid: {m: 0 for m in members} for gid in gids}
    present = {gid for gid in gids if draw(st.booleans())} or {gids[0]}
    history = []
    for _ in range(steps):
        for gid in gids:
            action = draw(st.integers(0, 4))
            if action == 0 and gid in present and len(present) > 1:
                present.discard(gid)       # left the group
            elif action == 1:
                present.add(gid)           # (re)joined
            elif action == 2 and gid in present:
                views[gid] += 1            # view change: vector resets
                counts[gid] = {m: 0 for m in members}
            elif gid in present:
                member = draw(st.sampled_from(members))
                counts[gid][member] += draw(st.integers(1, 3))
        history.append({
            gid: (views[gid], tuple(members),
                  VectorClock({m: c for m, c in counts[gid].items() if c}))
            for gid in present
        })
    return history


@given(history=_context_history())
@settings(max_examples=50, deadline=None)
def test_compact_context_delta_chain_roundtrip(history):
    encoder, held = ContextEncoder({}), ChainContext()
    prev_sent = None        # the previous context, in the chain's order
    for context in history:
        data = encoder.encode(reference.context_rows(context))
        assert data == reference.encode_context_compact(context, prev_sent)
        delta = parse_context_delta(data)
        check_delta_positions(held, delta)
        apply_context_delta(held, delta, {})
        decoded = reference.unpacked_context(held)
        assert decoded == reference.ranked(context)
        prev_sent = decoded
