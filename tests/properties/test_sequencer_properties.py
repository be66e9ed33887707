"""Property tests: the two total-order engines against each other.

Under a fixed seed with no failures, both ordering engines (two-phase,
sequencer) must give a *valid* virtually synchronous execution
(``conformance.check``), every member delivers the same set, and the
delivered message set is identical between the modes (the chosen
interleavings may differ — priority order vs token-arrival order — but
neither may lose, duplicate, or diverge).  The compact causal-context codec is also
chain-checked here against randomly grown contexts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_causal as reference
from conformance import Run, bursts, check, one_group
from reference_causal import VectorClock
from repro import IsisConfig
from repro.core.vectorclock import (
    ChainContext,
    ContextEncoder,
    apply_context_delta,
    check_delta_positions,
    parse_context_delta,
)
from repro.msg.address import make_group_address, make_process_address


def _play(seed, plan, mode):
    return Run(one_group(
        "modes", 3, 20.0, seed=seed, traffic=bursts(plan, "modes"),
        tail=200.0,
        config=IsisConfig(abcast_mode=mode, batch_window=0.010))).play()


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
        record = _play(seed, plan, mode)
        check(record)
        # All members delivered the same set.
        sets = {frozenset(record.tags(f"m{s}")) for s in range(3)}
        assert len(sets) == 1, mode
        by_mode[mode] = sets.pop()
    # Both engines deliver exactly the same message set: the sequencer
    # changes the interleaving, never the membership of the execution.
    assert by_mode["two_phase"] == by_mode["sequencer"]


def test_sequencer_deterministic_same_seed():
    plan = [(0, "abcast", 3), (1, "abcast", 3), (2, "cbcast", 2)]
    runs = [_play(99, plan, "sequencer").streams for _ in range(2)]
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
