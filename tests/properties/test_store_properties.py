"""Property-based tests for the per-group message store and its
received set (``SeqSet``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import MessageStore, SeqSet
from repro.errors import CodecError
from repro.msg import Message

events = st.lists(
    st.tuples(st.integers(0, 3),      # origin site
              st.integers(1, 12)),    # gseq
    min_size=1, max_size=60,
)


@given(events)
def test_have_vector_is_max_contiguous_prefix(recorded):
    store = MessageStore()
    seen = set()
    for origin, gseq in recorded:
        store.record(origin, gseq, Message())
        seen.add((origin, gseq))
    have = store.have_vector()
    for origin in {o for o, _ in seen}:
        top = have.get(origin, 0)
        # Everything up to `top` was recorded; top+1 was not.
        for gseq in range(1, top + 1):
            assert (origin, gseq) in seen
        assert (origin, top + 1) not in seen


@given(events)
def test_record_is_idempotent(recorded):
    store = MessageStore()
    for origin, gseq in recorded:
        store.record(origin, gseq, Message())
    count = store.buffered_count
    have = store.have_vector()
    for origin, gseq in recorded:
        assert not store.record(origin, gseq, Message())
    assert store.buffered_count == count
    assert store.have_vector() == have


@given(st.lists(events, min_size=2, max_size=4))
def test_union_dominates_every_member(all_recorded):
    stores = []
    for recorded in all_recorded:
        store = MessageStore()
        for origin, gseq in recorded:
            store.record(origin, gseq, Message())
        stores.append(store)
    union = MessageStore.union(s.have_vector() for s in stores)
    for store in stores:
        for origin, top in store.have_vector().items():
            assert union.get(origin, 0) >= top


@given(events)
@settings(max_examples=50)
def test_missing_plus_held_covers_union(recorded):
    """After refilling exactly `missing_from(union)`, a store is complete."""
    store = MessageStore()
    for origin, gseq in recorded:
        store.record(origin, gseq, Message())
    # Union from a hypothetical peer that has strictly more.
    union = {o: t + 2 for o, t in store.have_vector().items()}
    union.setdefault(9, 3)
    for origin, gseq in store.missing_from(union):
        store.record(origin, gseq, Message())
    assert store.complete_for(union)


@given(events, st.integers(0, 12))
def test_trim_never_breaks_have_vector(recorded, cut):
    store = MessageStore()
    for origin, gseq in recorded:
        store.record(origin, gseq, Message())
    before = store.have_vector()
    store.trim_stable({o: cut for o in before})
    # Trimming only drops stable prefixes; contiguity metadata survives.
    assert store.have_vector() == before


# ----------------------------------------------------------------------
# trim_stable pays for what the cut advanced, and drops what the filter
# over every buffered tag used to drop
# ----------------------------------------------------------------------
steps = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.integers(0, 3), st.integers(1, 12),
                  st.integers(0, 40)),                      # payload size
        st.tuples(st.just("trim"), st.dictionaries(
            st.integers(0, 4), st.integers(0, 14), max_size=4)),
    ),
    min_size=1, max_size=80,
)


class _Untouchable(dict):
    """A ``_messages`` that may be measured and nothing else."""

    def _touched(self, *args):
        raise AssertionError("an unchanged cut touched the buffered messages")

    __iter__ = __delitem__ = pop = items = keys = _touched


@given(steps)
@settings(max_examples=200)
def test_trim_matches_the_filter_over_every_tag(script):
    store = MessageStore()
    held = {}                       # the model: tag -> encoded size
    for step in script:
        if step[0] == "record":
            _, origin, gseq, size = step
            msg = Message(p=bytes(size))
            if store.record(origin, gseq, msg):
                held[(origin, gseq)] = msg.size_bytes
            continue
        # A stable cut is a minimum that includes this site's own vector:
        # the store holds it to that, the model's filter is given it.
        have = store.have_vector()
        cut = {o: min(top, have.get(o, 0)) for o, top in step[1].items()}
        victims = [tag for tag in held if tag[1] <= cut.get(tag[0], 0)]
        for tag in victims:
            del held[tag]
        assert store.trim_stable(step[1]) == len(victims)
        assert store.all_tags() == sorted(held)
        assert store.buffered_bytes == sum(held.values())
        # A message is buffered as its wire bytes, and read back as the
        # message those bytes decode to.
        assert all(type(data) is bytes for data in store._messages.values())
        assert store.buffered_bytes == sum(map(len, store._messages.values()))
        for tag in held:
            assert store.get(*tag).encode() == store._messages[tag]
        assert store.have_vector() == have
        # The same cut again is settled work: no scan, no pop.
        live, store._messages = store._messages, _Untouchable(store._messages)
        assert store.trim_stable(step[1]) == 0
        assert store.buffered_count == len(held)
        store._messages = live
    store.reset()
    assert store.buffered_count == store.buffered_bytes == 0
    assert store.record(0, 1, Message()) and store.trim_stable({0: 1}) == 1


# ----------------------------------------------------------------------
# SeqSet against a plain set of tags, and its one spelling
# ----------------------------------------------------------------------
def _filled(tags):
    seqs = SeqSet()
    for origin, gseq in tags:
        seqs.add(origin, gseq)
    return seqs


@given(events, events)
@settings(max_examples=300)
def test_seqset_is_the_set_of_its_adds(adds, other_adds):
    """Adds in any order: membership, ``add``'s answer, ``<=`` and the
    floors are what a plain set of the tags says, and the floors are
    the store's have-vector."""
    seqs, oracle, store = SeqSet(), set(), MessageStore()
    for origin, gseq in adds:
        assert seqs.add(origin, gseq) == ((origin, gseq) not in oracle)
        oracle.add((origin, gseq))
        store.record(origin, gseq, Message())
    for origin in range(5):
        for gseq in range(0, 15):
            assert ((origin, gseq) in seqs) == (
                gseq < 1 or (origin, gseq) in oracle)
        floor = 0
        while (origin, floor + 1) in oracle:
            floor += 1
        assert seqs.floors.get(origin, 0) == floor
        assert origin in seqs.floors or not floor
    assert seqs.floors == store.have_vector()
    other = _filled(other_adds)
    assert (seqs <= other) == oracle.issubset(other_adds)
    assert (other <= seqs) == oracle.issuperset(other_adds)
    copy = seqs.copy()
    copy.add(9, 1)
    assert (9, 1) not in seqs and seqs <= copy


@given(events)
def test_seqset_entries_are_its_one_spelling(adds):
    """What ``entries`` writes ``from_entries`` reads back to the same
    set, and whatever ``from_entries`` accepts ``entries`` returns
    unchanged."""
    seqs = _filled(adds)
    entries = seqs.entries()
    again = SeqSet.from_entries(entries)
    assert again.entries() == entries
    assert again <= seqs <= again


_SPELLINGS = st.lists(st.tuples(
    st.integers(0, 4), st.integers(0, 4),
    st.lists(st.integers(0, 8), max_size=4)), max_size=4).map(
        lambda entries: [[o, f, g] for o, f, g in entries])


@given(_SPELLINGS)
@settings(max_examples=500)
def test_seqset_accepts_exactly_the_spelling_entries_writes(entries):
    try:
        seqs = SeqSet.from_entries(entries)
    except CodecError:
        tags = {(origin, gseq) for origin, floor, gapped in entries
                for gseq in [*range(1, floor + 1), *gapped]}
        assert _filled(tags).entries() != entries
        return
    assert seqs.entries() == entries


@pytest.mark.parametrize("entries", [
    [[0, 2, []], [0, 3, []]],               # an origin repeated
    [[2, 1, []], [0, 1, []]],               # origins out of order
    [[0, 0, []]],                           # an empty entry
    [[0, 2, [3]]],                          # a gapped gseq at floor + 1
    [[0, 2, [2]]],                          # ... at the floor
    [[0, 0, [1]]],                          # ... at floor + 1 of none
    [[0, 2, [5, 5]]],                       # gapped gseqs repeated
    [[0, 2, [6, 4]]],                       # ... out of order
], ids=["origin-repeated", "origins-unsorted", "empty-entry",
        "gapped-at-floor+1", "gapped-at-floor", "gapped-1-over-0",
        "gapped-repeated", "gapped-unsorted"])
def test_seqset_refuses_every_other_spelling(entries):
    with pytest.raises(CodecError):
        SeqSet.from_entries(entries)
