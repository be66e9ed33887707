"""Property-based tests: vector clock lattice laws (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_causal as reference
from reference_causal import VectorClock
from repro.core.cbcast import _shortfall
from repro.core.vectorclock import (
    ChainContext,
    ContextEncoder,
    apply_context_delta,
    check_delta_positions,
    parse_context_delta,
)
from repro.errors import CodecError
from repro.msg.fields import encode_uvarint
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
# ``reference_causal`` holds the codec written the obvious way: every
# message snapshots every vector in rank order, every position is a
# ``list(...).index(...)``, and the receiver rebuilds an absolute context
# per message.  The wire format is pinned to what that produces.

GROUPS = [make_group_address(s, n) for s in range(2) for n in range(1, 4)]

#: A view's members, oldest first: 1-9 of MEMBERS in a drawn order.
view_members = st.lists(st.sampled_from(MEMBERS), min_size=1,
                        max_size=len(MEMBERS), unique=True)

#: One step of a sender's life between two of its multicasts.
history_steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from(GROUPS),
                  st.integers(0, len(MEMBERS) - 1), st.integers(1, 200)),
        st.tuples(st.just("tick"), st.sampled_from(GROUPS)),
        st.tuples(st.just("view"), st.sampled_from(GROUPS), view_members),
        st.tuples(st.just("join"), st.sampled_from(GROUPS), view_members),
        st.tuples(st.just("leave"), st.sampled_from(GROUPS)),
        st.tuples(st.just("send")),
    ),
    min_size=1, max_size=60,
)


def replay(steps):
    """Yield ``(live groups for ContextEncoder, absolute snapshot)`` at
    every send of a multi-group history: groups appear, views advance
    (with other members), members send for the first time mid-view,
    every member of a group delivers one more (the steady case, a unit
    entry), groups leave."""
    live = {}       # gid -> [view id, members, packed member -> count]
    left = {}       # gid -> the view it was left in
    for step in steps + [("send",)]:
        kind = step[0]
        if kind == "join" and step[1] not in live:
            # Joining is a view change: a group left in view v is
            # rejoined in a later one, never in v with another vector.
            live[step[1]] = [left.pop(step[1], 0) + 1, tuple(step[2]), {}]
        elif kind == "leave" and step[1] in live:
            left[step[1]] = live.pop(step[1])[0]
        elif kind == "view" and step[1] in live:
            # A new view resets the delivered vector (a fresh dict, as
            # CausalReceiver.on_new_view does).
            live[step[1]] = [live[step[1]][0] + 1, tuple(step[2]), {}]
        elif kind == "advance" and step[1] in live:
            _, members, counts = live[step[1]]
            key = members[step[2] % len(members)].pack()
            counts[key] = counts.get(key, 0) + step[3]
        elif kind == "tick" and step[1] in live:
            _, members, counts = live[step[1]]
            for member in members:
                counts[member.pack()] = counts.get(member.pack(), 0) + 1
        elif kind == "send":
            snapshot = {
                gid: (view_id, members, VectorClock(
                    {Address.unpack(m): c for m, c in counts.items()}))
                for gid, (view_id, members, counts) in live.items()}
            yield reference.context_rows(snapshot), snapshot


def _assert_same_in_order(got, expected):
    """Same groups, views and counts *in the same order*: the order is
    what positions on the wire and the context check's waits go by."""
    assert list(got.items()) == list(expected.items())


@given(history_steps)
def test_in_place_chain_ends_match_the_absolute_codec(steps):
    encoder = ContextEncoder({})
    chain = ChainContext()          # receiver side, advanced in place
    expected = None                 # the same, by the reference
    for groups, absolute in replay(steps):
        data = encoder.encode(groups)
        # ``expected`` is also the sender's previous context in
        # canonical order: what the positions in ``data`` count from.
        assert data == reference.encode_context_compact(absolute, expected)
        expected = reference.decode_context_compact(data, expected)
        delta = parse_context_delta(data)
        check_delta_positions(chain, delta)
        # The kernel's fallback check advances a copy: the chain stays.
        before = chain.entries()
        walked = chain.copy()
        apply_context_delta(walked, delta, {})
        assert chain.entries() == before
        _assert_same_in_order(reference.unpacked_context(walked), expected)
        apply_context_delta(chain, delta, {})
        _assert_same_in_order(reference.unpacked_context(chain), expected)
        # Both ends hold the one canonical order, position for position.
        assert encoder._base.entries() == chain.entries()
        assert expected == reference.ranked(absolute)


# ----------------------------------------------------------------------
# A damaged delta is refused: at parse, or at first candidacy
# ----------------------------------------------------------------------
_encode = reference.encode_delta


def _refused(chain, data, views):
    """Is ``data`` refused — by the parser, by the position check
    against ``chain``, or by a named vector's size against ``views``
    (:meth:`CausalCheck.groups` rows), as the kernel's check refuses it —
    and by :class:`CodecError` alone?"""
    try:
        delta = parse_context_delta(data)
        check_delta_positions(chain, delta)
        for gid, view_id, counts in delta.named:
            _shortfall(views.get(gid), view_id, counts)
    except CodecError:
        return True
    return False


@given(history_steps)
def test_damaged_deltas_are_refused_by_codec_error_only(steps):
    encoder, chain = ContextEncoder({}), ChainContext()
    for groups, _ in replay(steps):
        data = encoder.encode(groups)
        delta = parse_context_delta(data)
        assert not _refused(chain, data, groups)    # the valid one passes
        assert _encode(delta) == data
        for cut in range(len(data)):
            assert _refused(chain, data[:cut], groups), cut
        assert _refused(chain, data + b"\x00", groups)
        # A named vector one count longer or shorter than the view it
        # names ...
        for i, (gid, view_id, counts) in enumerate(delta.named):
            for wrong in (counts + [0], counts[:-1]):
                named = list(delta.named)
                named[i] = (gid, view_id, wrong)
                assert _refused(chain, _encode(delta._replace(named=named)),
                                groups), i
        held = len(chain.layout[0])
        for i, (gpos, counters) in enumerate(delta.moved):
            size = chain.layout[2][gpos]

            def damaged(counters=counters):
                moved = list(delta.moved)
                moved[i] = (gpos, counters)
                return _encode(delta._replace(moved=moved))

            # ... each position from this one on moved past the last
            # group held (they ascend, so a later one cannot stay) ...
            moved = delta.moved[:i] + [(at + held, counters) for at, counters
                                       in delta.moved[i:]]
            assert _refused(chain, _encode(delta._replace(moved=moved)),
                            groups), i
            if counters is None:
                continue    # a unit entry names no rank
            # ... each rank bumped past its bound ...
            for j, (rank, value) in enumerate(counters):
                bumped = list(counters)
                bumped[j] = (size + rank, value)
                assert _refused(chain, damaged(counters=bumped), groups), \
                    (i, j)
            # ... and each adjacent pair of ranks swapped.
            for j in range(len(counters) - 1):
                swapped = list(counters)
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                assert _refused(chain, damaged(counters=swapped), groups), \
                    (i, j)
        # Two moved entries swapped have no spelling: the second's gap
        # would be negative.
        for i in range(len(delta.moved) - 1):
            moved = list(delta.moved)
            moved[i], moved[i + 1] = moved[i + 1], moved[i]
            with pytest.raises(CodecError):
                _encode(delta._replace(moved=moved))
        apply_context_delta(chain, delta, {})


# ----------------------------------------------------------------------
# One delta, one byte string
# ----------------------------------------------------------------------
@st.composite
def _uvarints(draw, value):
    """``value`` as a varint, now and then one byte longer than it needs
    (a last byte of 0)."""
    data = encode_uvarint(value)
    if draw(st.integers(0, 63)) == 0:
        data = data[:-1] + bytes([data[-1] | 0x80, 0])
    return data


@st.composite
def context_spellings(draw):
    """Byte strings in the ``cb_ctx`` grammar with every choice free:
    groups in any order and repeated, a moved entry's size, prefix and
    adjacent bits, gap and ranks whatever they say, varints overlong."""
    def uv(value):
        return draw(_uvarints(value))

    small = st.integers(0, 4)
    count = st.one_of(small, st.integers(120, 300))
    gid = st.sampled_from([g.pack() for g in GROUPS])
    full = draw(st.booleans())
    named = draw(st.lists(st.tuples(gid, small, st.lists(count, max_size=3)),
                          max_size=3))
    if draw(st.booleans()):
        named.sort()
    parts = [bytes([0 if full else 1]), uv(len(named))]
    for packed, view_id, counts in named:
        parts += [packed, uv(view_id), uv(len(counts))]
        parts += [uv(value) for value in counts]
    if not full:
        moved = draw(st.lists(st.tuples(
            st.booleans(), st.booleans(), small, st.booleans(),
            st.lists(small, min_size=1, max_size=4, unique=True)),
            max_size=3))
        parts.append(uv(len(moved)))
        for prefix, adjacent, gap, ordered, ranks in moved:
            n = len(ranks) if draw(st.integers(0, 7)) else 0
            parts.append(uv(4 * n + 2 * prefix + adjacent))
            if not adjacent:
                parts.append(uv(gap))
            if not n and prefix:
                continue        # a unit entry: no body
            for rank in sorted(ranks) if ordered else ranks:
                if not prefix:
                    parts.append(uv(rank))
                parts.append(uv(draw(count)))
        removed = draw(st.lists(gid, max_size=3))
        if draw(st.booleans()):
            removed.sort()
        parts += [uv(len(removed))] + removed
    return b"".join(parts)


@given(context_spellings())
@settings(max_examples=200)
def test_every_accepted_context_is_the_one_spelling_of_its_delta(data):
    """Whatever the parser accepts, the reference writes back unchanged:
    no delta has a second spelling that reaches a chain."""
    try:
        delta = parse_context_delta(data)
    except CodecError:
        return
    assert reference.encode_delta(delta) == data


def _spell(delta, i, how, base=None):
    """``delta`` with its ``i``-th moved entry spelled another way than
    :func:`reference.encode_delta` does: ``"empty"`` (no counter moved,
    the prefix bit clear), ``"pairs"`` (its ranks as pairs, a prefix
    too), ``"whole"`` (a unit entry as the prefix of every count one past
    the chain ``base``'s) or ``"gap"`` (the adjacent bit clear and the
    gap written as ``gpos - previous - 1``, the spelling a writer off by
    one would give it)."""
    uv = encode_uvarint
    parts = [reference.encode_delta(delta._replace(moved=[], removed=[]))[:-2],
             uv(len(delta.moved))]
    previous = -1
    for j, (gpos, counters) in enumerate(delta.moved):
        unit = counters is None
        if unit and j == i and how == "whole":
            start, size = base.layout[3][gpos], base.layout[2][gpos]
            counters = [(rank, base.counts[start + rank] + 1)
                        for rank in range(size)]
            unit = False
        counters = [] if counters is None else counters
        prefix = unit or [rank for rank, _ in counters] == list(
            range(len(counters)))
        adjacent, gap = gpos == previous + 1, gpos - previous - 2
        if j == i:
            counters = [] if how == "empty" else counters
            prefix = prefix and how not in ("pairs", "empty")
            if how == "gap":
                adjacent, gap = False, gpos - previous - 1
        parts.append(uv(4 * len(counters) + 2 * prefix + adjacent))
        parts += [] if adjacent else [uv(gap)]
        previous = gpos
        for rank, value in counters:
            parts += [uv(value)] if prefix else [uv(rank), uv(value)]
    parts.append(uv(len(delta.removed)))
    return b"".join(parts + delta.removed)


@given(history_steps)
def test_a_moved_entry_has_one_spelling(steps):
    """An entry of no counters without the prefix bit, a prefix spelled
    as pairs, a unit entry spelled as the whole vector of its counts:
    refused, by :class:`CodecError` alone — the last where positions are
    checked, the one place the predecessor is known.  An adjacent entry
    has no explicit gap to spell it: the gap counts from the position
    after the next, so the off-by-one spelling names another group, or
    none."""
    encoder, chain = ContextEncoder({}), ChainContext()
    for groups, _ in replay(steps):
        data = encoder.encode(groups)
        delta = parse_context_delta(data)
        assert delta.full or _spell(delta, -1, None) == data
        previous = -1
        for i, (gpos, counters) in enumerate(delta.moved):
            with pytest.raises(CodecError, match="moves no counter"):
                parse_context_delta(_spell(delta, i, "empty"))
            if counters is None:
                whole = parse_context_delta(_spell(delta, i, "whole", chain))
                assert whole.moved[i][1] is not None
                with pytest.raises(CodecError, match="spelled whole"):
                    check_delta_positions(chain, whole)
            elif [rank for rank, _ in counters] == list(
                    range(len(counters))):
                with pytest.raises(CodecError, match="prefix spelled as"):
                    parse_context_delta(_spell(delta, i, "pairs"))
            if gpos == previous + 1:
                spelled = _spell(delta, i, "gap")
                assert _refused(chain, spelled, groups) or \
                    parse_context_delta(spelled).moved[i][0] == gpos + 1
            previous = gpos
        apply_context_delta(chain, delta, {})

