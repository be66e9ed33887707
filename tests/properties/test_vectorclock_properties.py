"""Property-based tests: vector clock lattice laws (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

import reference_causal as reference
from repro.core.vectorclock import (
    ContextDelta,
    ContextEncoder,
    VectorClock,
    advanced_context,
    apply_context_delta,
    parse_context_delta,
)
from repro.msg import Address, make_group_address, make_process_address

MEMBERS = [make_process_address(s, 0, i) for s in range(3) for i in range(3)]

clock_dicts = st.dictionaries(
    st.sampled_from(MEMBERS), st.integers(0, 50), max_size=len(MEMBERS))


def make(d):
    vc = VectorClock()
    for member, value in d.items():
        vc.set(member, value)
    return vc


@given(clock_dicts, clock_dicts)
def test_merge_is_commutative(a, b):
    left = make(a)
    left.merge(make(b))
    right = make(b)
    right.merge(make(a))
    assert left == right


@given(clock_dicts, clock_dicts, clock_dicts)
def test_merge_is_associative(a, b, c):
    left = make(a)
    left.merge(make(b))
    left.merge(make(c))
    bc = make(b)
    bc.merge(make(c))
    right = make(a)
    right.merge(bc)
    assert left == right


@given(clock_dicts)
def test_merge_is_idempotent(a):
    vc = make(a)
    vc.merge(make(a))
    assert vc == make(a)


@given(clock_dicts, clock_dicts)
def test_merge_dominates_both_inputs(a, b):
    merged = make(a)
    merged.merge(make(b))
    assert merged.dominates(make(a))
    assert merged.dominates(make(b))


@given(clock_dicts, clock_dicts)
def test_dominance_is_antisymmetric_up_to_equality(a, b):
    va, vb = make(a), make(b)
    if va.dominates(vb) and vb.dominates(va):
        assert va == vb


@given(clock_dicts)
def test_increment_strictly_dominates(a):
    vc = make(a)
    before = vc.copy()
    vc.increment(MEMBERS[0])
    assert vc.dominates(before)
    assert not before.dominates(vc)


@given(clock_dicts, st.sets(st.sampled_from(MEMBERS)))
def test_restrict_is_projection(a, keep):
    vc = make(a)
    restricted = vc.restrict(keep)
    for member in keep:
        assert restricted.get(member) == vc.get(member)
    for member in set(MEMBERS) - set(keep):
        assert restricted.get(member) == 0


# ----------------------------------------------------------------------
# Context chains: the in-place ends against the absolute codec
# ----------------------------------------------------------------------
# ``reference_causal`` holds the codec as it was when every message
# snapshotted, sorted and re-packed every vector and the receiver rebuilt
# an absolute context per message.  The wire format is pinned to what
# that produces.

GROUPS = [make_group_address(s, n) for s in range(2) for n in range(1, 4)]


#: One step of a sender's life between two of its multicasts.
history_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from(GROUPS),
                  st.sampled_from(MEMBERS), st.integers(1, 200)),
        st.tuples(st.just("view"), st.sampled_from(GROUPS)),
        st.tuples(st.just("join"), st.sampled_from(GROUPS)),
        st.tuples(st.just("leave"), st.sampled_from(GROUPS)),
        st.tuples(st.just("send")),
    ),
    min_size=1, max_size=60,
)


def replay(steps):
    """Yield ``(live rows for ContextEncoder, absolute snapshot)`` at
    every send of a multi-group history."""
    live = {}                       # gid -> [view id, packed member -> count]
    for step in steps + [("send",)]:
        kind = step[0]
        if kind == "join":
            live.setdefault(step[1], [1, {}])
        elif kind == "leave":
            live.pop(step[1], None)
        elif kind == "view" and step[1] in live:
            # A new view resets the delivered vector (a fresh dict, as
            # CausalReceiver.on_new_view does).
            live[step[1]] = [live[step[1]][0] + 1, {}]
        elif kind == "advance" and step[1] in live:
            counts = live[step[1]][1]
            key = step[2].pack()
            counts[key] = counts.get(key, 0) + step[3]
        elif kind == "send":
            rows = [(gid.pack(), live[gid][0], live[gid][1])
                    for gid in sorted(live, key=Address.pack)]
            snapshot = {
                gid: (view_id, VectorClock(
                    {Address.unpack(m): c for m, c in counts.items()}))
                for gid, (view_id, counts) in live.items()}
            yield rows, snapshot


@given(history_steps)
def test_in_place_chain_ends_match_the_absolute_codec(steps):
    encoder = ContextEncoder()
    chain = {}                      # receiver side, advanced in place
    sent = None                     # sender's previous absolute context
    expected = None                 # receiver's, by the reference
    for rows, absolute in replay(steps):
        data = encoder.encode(rows)
        assert data == reference.encode_context_compact(absolute, sent)
        expected = reference.decode_context_compact(data, expected)
        delta = parse_context_delta(data)
        walked = advanced_context(chain, delta)
        apply_context_delta(chain, delta)
        in_place = advanced_context(chain, ContextDelta(False, [], []))
        for got in (walked, in_place):
            # Same groups, views and counters *in the same order*: the
            # order is what the full walk registers waits by.
            assert list(got) == list(expected)
            for gid, (view_id, vc) in expected.items():
                assert got[gid][0] == view_id
                assert list(got[gid][1].items()) == list(vc.items())
        assert set(expected) == set(absolute)
        for gid, (view_id, vc) in absolute.items():
            assert expected[gid] == (view_id, vc)
        sent = absolute
