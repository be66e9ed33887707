"""Unit tests for views, vector clocks, message store, causal/total order."""

import pytest

import reference_causal as reference
from reference_causal import VectorClock, causal_fields
from stub_engine import StubEngine
from repro.errors import CodecError, GroupError
from repro.msg import Message, make_group_address, make_process_address
from repro.core.cbcast import CausalReceiver
from repro.core.store import MessageStore
from repro.core.vectorclock import ContextEncoder, parse_context_delta
from repro.core.view import View

GID = make_group_address(0, 1)
P0 = make_process_address(0, 0, 1)
P1 = make_process_address(1, 0, 1)
P2 = make_process_address(2, 0, 1)


class TestView:
    def test_ranking_is_by_position(self):
        view = View(gid=GID, view_id=1, members=(P0, P1, P2))
        assert view.rank_of(P0) == 0
        assert view.rank_of(P2) == 2
        assert view.rank_of(make_process_address(9, 0, 9)) == -1

    def test_rank_ignores_entry_byte(self):
        view = View(gid=GID, view_id=1, members=(P0,))
        assert view.rank_of(P0.with_entry(99)) == 0

    def test_coordinator_is_oldest(self):
        view = View(gid=GID, view_id=1, members=(P1, P0))
        assert view.coordinator() == P1

    def test_empty_view_has_no_coordinator(self):
        view = View(gid=GID, view_id=1, members=())
        with pytest.raises(GroupError):
            view.coordinator()

    def test_adding_appends_youngest(self):
        view = View(gid=GID, view_id=1, members=(P0,))
        view2 = view.adding(P1)
        assert view2.members == (P0, P1)
        assert view2.view_id == 2

    def test_adding_existing_member_rejected(self):
        view = View(gid=GID, view_id=1, members=(P0,))
        with pytest.raises(GroupError):
            view.adding(P0)

    def test_without_preserves_order(self):
        view = View(gid=GID, view_id=1, members=(P0, P1, P2))
        view2 = view.without([P1])
        assert view2.members == (P0, P2)

    def test_duplicate_members_rejected(self):
        with pytest.raises(GroupError):
            View(gid=GID, view_id=1, members=(P0, P0))

    def test_member_sites_deduplicated_sorted(self):
        other_at_0 = make_process_address(0, 0, 2)
        view = View(gid=GID, view_id=1, members=(P2, P0, other_at_0))
        assert view.member_sites() == (0, 2)

    def test_wire_roundtrip(self):
        view = View(gid=GID, view_id=5, members=(P0, P1))
        msg = Message(v=view.to_value())
        decoded = View.from_wire(**Message.decode(msg.encode())["v"])
        assert decoded == view

    def test_successor_same_members_bumps_id(self):
        view = View(gid=GID, view_id=3, members=(P0,))
        nxt = view.successor_same_members()
        assert nxt.view_id == 4 and nxt.members == view.members


class TestVectorClock:
    def test_increment_and_get(self):
        vc = VectorClock()
        assert vc.get(P0) == 0
        assert vc.increment(P0) == 1
        assert vc.increment(P0) == 2
        assert vc.get(P0) == 2

    def test_entry_ignores_entry_byte(self):
        vc = VectorClock()
        vc.increment(P0.with_entry(5))
        assert vc.get(P0) == 1

    def test_merge_is_pointwise_max(self):
        a, b = VectorClock(), VectorClock()
        a.set(P0, 3)
        a.set(P1, 1)
        b.set(P1, 5)
        a.merge(b)
        assert a.get(P0) == 3 and a.get(P1) == 5

    def test_dominates(self):
        a, b = VectorClock(), VectorClock()
        a.set(P0, 2)
        b.set(P0, 1)
        assert a.dominates(b)
        assert not b.dominates(a)
        b.set(P1, 1)
        assert not a.dominates(b)

    def test_dominates_with_restriction(self):
        a, b = VectorClock(), VectorClock()
        b.set(P0, 1)
        b.set(P1, 9)
        a.set(P0, 1)
        assert a.dominates(b, restrict_to=[P0])
        assert not a.dominates(b)

    def test_restrict_drops_other_entries(self):
        vc = VectorClock()
        vc.set(P0, 1)
        vc.set(P1, 2)
        restricted = vc.restrict([P0])
        assert restricted.get(P0) == 1 and restricted.get(P1) == 0

    def test_equality_treats_missing_as_zero(self):
        a, b = VectorClock(), VectorClock()
        a.set(P0, 0)
        assert a == b

    def test_context_roundtrip_over_the_wire(self):
        vc = VectorClock()
        vc.set(P1, 4)
        wire = ContextEncoder({}).encode(
            reference.context_rows({GID: (3, (P0, P1), vc)}))
        msg = Message(ctx=wire)
        decoded = reference.decode_context_compact(
            Message.decode(msg.encode())["ctx"])
        assert decoded == {GID: (3, [0, 4])}        # counts by rank


#: Two groups' packed gids, in packed (= wire) order.
LOW, HIGH = sorted(make_group_address(site, 1).pack() for site in (0, 1))


def _named(gid):
    """``gid`` named whole: view 1, one member, count 0."""
    return gid + b"\x01\x01\x00"


class TestContextForm:
    """One delta, one byte string: named and removed groups strictly
    ascend in packed order, and a steady delta costs a byte per counter
    and one per group."""

    def test_a_head_naming_a_group_twice_is_refused(self):
        assert parse_context_delta(b"\x00\x02" + _named(LOW) + _named(HIGH))
        with pytest.raises(CodecError, match="named groups do not ascend"):
            parse_context_delta(b"\x00\x02" + _named(LOW) + _named(LOW))

    def test_named_groups_out_of_order_are_refused(self):
        ordered = b"\x01\x02" + _named(LOW) + _named(HIGH) + b"\x00\x00"
        assert parse_context_delta(ordered).named[1][0] == HIGH
        with pytest.raises(CodecError, match="named groups do not ascend"):
            parse_context_delta(
                b"\x01\x02" + _named(HIGH) + _named(LOW) + b"\x00\x00")

    def test_removed_groups_out_of_order_are_refused(self):
        assert parse_context_delta(b"\x01\x00\x00\x02" + LOW + HIGH).removed \
            == [LOW, HIGH]
        for removed in (HIGH + LOW, LOW + LOW):
            with pytest.raises(CodecError,
                               match="removed groups do not ascend"):
                parse_context_delta(b"\x01\x00\x00\x02" + removed)

    @staticmethod
    def _moved_32_groups_of_4(advance):
        """The delta of a chain over 32 groups of 4 members once each
        member of rank ``r`` has delivered ``advance(r)`` more."""
        members = tuple(make_process_address(site, 0, 1).pack()
                        for site in range(4))
        groups = dict(sorted((make_group_address(site, n).pack(),
                              (1, members, {}))
                             for site in range(8) for n in range(1, 5)))
        encoder = ContextEncoder({})
        encoder.encode(groups)
        for _, _, live in groups.values():
            live.update((member, advance(rank))
                        for rank, member in enumerate(members))
        return encoder.encode(groups)

    def test_a_steady_delta_of_32_groups_of_4_is_36_bytes(self):
        """Every member of every group delivered one more: per group one
        byte that says "a unit entry, the next position", and no counts.
        Kind, named, moved and removed counts make the other 4."""
        data = self._moved_32_groups_of_4(lambda rank: 1)
        assert len(data) == 36
        assert parse_context_delta(data).moved == [(gpos, None)
                                                   for gpos in range(32)]

    def test_a_delta_of_32_groups_of_4_moved_unevenly_is_164_bytes(self):
        """Every counter moved, by 1 to 4: per group one byte that says
        "4 counts, ranks 0-3, the next position", then the counts."""
        data = self._moved_32_groups_of_4(lambda rank: 1 + rank)
        assert len(data) == 164
        delta = parse_context_delta(data)
        assert delta.moved == [(gpos, [(0, 1), (1, 2), (2, 3), (3, 4)])
                               for gpos in range(32)]


class TestMessageStore:
    def test_record_and_dedupe(self):
        store = MessageStore()
        assert store.record(0, 1, Message(x=1))
        assert not store.record(0, 1, Message(x=1))
        assert store.buffered_count == 1

    def test_have_vector_tracks_contiguity(self):
        store = MessageStore()
        store.record(0, 1, Message())
        store.record(0, 3, Message())  # gap at 2
        assert store.have_vector() == {0: 1}
        store.record(0, 2, Message())
        assert store.have_vector() == {0: 3}

    def test_union_and_missing(self):
        a, b = MessageStore(), MessageStore()
        a.record(0, 1, Message())
        a.record(0, 2, Message())
        b.record(1, 1, Message())
        union = MessageStore.union([a.have_vector(), b.have_vector()])
        assert union == {0: 2, 1: 1}
        assert a.missing_from(union) == [(1, 1)]
        assert b.missing_from(union) == [(0, 1), (0, 2)]
        assert a.complete_for({0: 2})
        assert not a.complete_for(union)

    def test_trim_stable(self):
        store = MessageStore()
        for seq in (1, 2, 3):
            store.record(0, seq, Message())
        dropped = store.trim_stable({0: 2})
        assert dropped == 2
        assert store.buffered_count == 1
        assert store.has(0, 3)

    def test_reset_clears_everything(self):
        store = MessageStore()
        store.record(0, 1, Message())
        store.reset()
        assert store.buffered_count == 0
        assert store.have_vector() == {}


#: GID's view 1 is P1 alone: a context waiting on P1's ``count``-th.
def _after_p1(count):
    return {GID: (1, (P1,), VectorClock({P1: count}))}


def _cb(sender, seq, ctx=None, prev=None):
    """A ``g.cb`` envelope's causal fields; ``prev`` is the context of
    the sender's previous message as the receiver rebuilt it (``cb_ctx``
    chains per sender)."""
    return Message(cb_sender=sender, cb_seq=seq,
                   cb_ctx=reference.encode_context_compact(ctx or {}, prev))


class _Arrivals(CausalReceiver):
    """The receiver as the pipeline feeds it: an envelope's causal fields
    are parsed, or refused, before it is offered."""

    def offer(self, msg):
        return super().offer(msg, causal_fields(msg))


def _receiver(satisfied=lambda: True):
    """A :class:`CausalReceiver` on its own: the kernel's context check is
    ``satisfied()``, and a failed check parks the message in ``blocked``
    (what the WaitIndex does) until the test wakes it; ``refused`` counts
    what was dropped at first candidacy."""
    blocked, refused = [], []

    def delta_check(chain, delta, key):
        if not satisfied():
            blocked.append(key)
        return satisfied()

    rx = _Arrivals(delta_check, lambda sender, seq: None,
                   lambda: refused.append(1), {})
    rx.refused = refused
    return rx, blocked


@pytest.fixture(params=["engine", "scan"])
def make_rx(request):
    """Both the library's receiver and the reference scan pass the
    receiver's unit contract."""
    if request.param == "scan":
        return lambda: reference.ScanCausalReceiver(lambda ctx: True)
    return lambda: _receiver()[0]


class TestCausalReceiver:
    def test_fifo_per_sender(self, make_rx):
        rx = make_rx()
        assert rx.offer(_cb(P0, 2, prev={})) == []     # gap: seq 1 missing
        delivered = rx.offer(_cb(P0, 1))
        assert [m["cb_seq"] for m in delivered] == [1, 2]

    def test_senders_independent(self, make_rx):
        rx = make_rx()
        assert len(rx.offer(_cb(P0, 1))) == 1
        assert len(rx.offer(_cb(P1, 1))) == 1

    def test_context_blocks_until_woken(self):
        ok = {"now": False}
        rx, blocked = _receiver(lambda: ok["now"])
        assert rx.offer(_cb(P0, 1, ctx=_after_p1(1))) == []
        assert blocked == [(P0.pack(), 1)]
        ok["now"] = True
        assert rx.recheck() == []           # nothing marked: nothing walked
        assert rx.mark_candidate((P0.pack(), 1))
        assert not rx.mark_candidate((P0.pack(), 1))    # already marked
        assert len(rx.recheck()) == 1

    def test_new_view_resets(self, make_rx):
        rx = make_rx()
        rx.offer(_cb(P0, 1))
        rx.offer(_cb(P1, 2, prev={}))  # stuck on gap
        rx.on_new_view()
        assert rx.pending_count == 0
        assert len(rx.delivered) == 0
        # Sequence numbers restart in the new view.
        assert len(rx.offer(_cb(P0, 1))) == 1

    @pytest.mark.parametrize("bad", [
        None,                                   # field absent
        {"00": {"v": 1, "vc": {}}},             # the retired dict encoding
        b"",                                    # empty
        b"\x02\x00",                            # unknown kind
    ])
    def test_malformed_context_is_rejected_at_arrival(self, bad):
        rx, _ = _receiver()
        msg = Message(cb_sender=P0, cb_seq=1)
        if bad is not None:
            msg["cb_ctx"] = bad
        with pytest.raises(CodecError):
            rx.offer(msg)
        assert rx.pending_count == 0 and rx.cache_sizes() == (0, 0)

    def test_truncated_context_is_rejected_at_arrival(self):
        good = _cb(P0, 1, ctx=_after_p1(300))   # a two-byte varint last
        whole = bytes(good["cb_ctx"])
        rx, _ = _receiver()
        for cut in range(len(whole)):
            with pytest.raises(CodecError):
                rx.offer(Message(cb_sender=P0, cb_seq=1, cb_ctx=whole[:cut]))
        with pytest.raises(CodecError):
            rx.offer(Message(cb_sender=P0, cb_seq=1, cb_ctx=whole + b"\x00"))
        assert rx.pending_count == 0
        # Nothing of the rejects stuck: the intact message still delivers.
        assert len(rx.offer(good)) == 1

    def test_delta_without_a_predecessor_is_rejected(self):
        rx, _ = _receiver()
        with pytest.raises(CodecError):
            rx.offer(_cb(P0, 1, prev={}))       # seq 1 must head a chain
        assert rx.pending_count == 0

    # A moved entry: 4k + 2*prefix + adjacent, a gap unless adjacent,
    # then k counts (a prefix) or k (rank, count) pairs; k = 0 with the
    # prefix bit is a unit entry, every count plus one, and has no body.
    @pytest.mark.parametrize("moved", [
        b"\x06\x00\x02",           # group 1 of 1: a prefix, gap 0
        b"\x05\x01\x02",           # rank 1 of 1, in group 0
        b"\x09\x00\x02\x03\x02",   # ranks 0 and 3 of 1
        b"\x02\x00",               # a unit entry in group 1 of 1
        b"\x07\x02",               # a unit entry spelled whole (1 + 1)
    ])
    def test_position_naming_nothing_is_refused_at_first_candidacy(
            self, moved):
        """A delta parses on its own; whether its positions name anything
        is known once its predecessor is delivered.  It arrives first
        here, is refused when the head lets it become a candidate, and
        leaves everything as it was."""
        rx, _ = _receiver()
        head = _cb(P0, 1, ctx=_after_p1(1))
        assert rx.offer(Message(cb_sender=P0, cb_seq=2,
                                cb_ctx=b"\x01\x00\x01" + moved + b"\x00")) == []
        assert rx.offer(_cb(P0, 3, ctx=_after_p1(1),
                            prev={GID: (1, [1])})) == []
        assert rx.pending_count == 2 and rx.refused == []
        assert [m["cb_seq"] for m in rx.offer(head)] == [1]
        assert rx.refused == [1]
        # The chain is the head's, the successor still waits its turn.
        chain = rx._chains[P0.pack()]
        assert reference.unpacked_context(chain.context) == {GID: (1, [1])}
        assert rx.delivered == {P0.pack(): 1}
        assert [m["cb_seq"] for m in rx.pending_messages()] == [3]
        assert rx.recheck() == [] and not rx._ready

    def test_in_order_stream_never_touches_the_heap(self, monkeypatch):
        """Each arrival is its sender's next and nothing is marked: it is
        checked and delivered at once, never queued, yet it still takes
        an arrival index and counts as pending the instant it arrived."""
        import heapq
        from types import SimpleNamespace
        from repro.core import cbcast
        pushes = []
        monkeypatch.setattr(cbcast, "heapq", SimpleNamespace(
            heappush=lambda heap, item: (pushes.append(item),
                                         heapq.heappush(heap, item)),
            heappop=heapq.heappop))
        rx, _ = _receiver()
        prev = {P0: None, P1: None}
        for seq in range(1, 11):
            for sender in (P0, P1):
                msg = _cb(sender, seq, prev=prev[sender])
                prev[sender] = {}
                assert rx.offer(msg) == [msg]
        assert pushes == [] and rx.pending_count == 0
        assert rx._next_arrival == 20 and rx.peak_pending == 1
        # Out of order, the successor waits and its predecessor wakes it.
        late = _cb(P0, 12, prev={})
        assert rx.offer(late) == [] and rx.pending_count == 1
        assert pushes == []
        delivered = rx.offer(_cb(P0, 11, prev={}))
        assert [m["cb_seq"] for m in delivered] == [11, 12]
        assert rx.delivered == {P0.pack(): 12, P1.pack(): 10}
        assert len(pushes) == 1 and rx.pending_count == 0
        assert rx.peak_pending == 2

    def test_in_order_arrival_naming_nothing_is_refused_at_once(self):
        rx, _ = _receiver()
        assert len(rx.offer(_cb(P0, 1, ctx=_after_p1(1)))) == 1
        moved = b"\x06\x00\x02"           # group 1 of 1
        assert rx.offer(Message(cb_sender=P0, cb_seq=2,
                                cb_ctx=b"\x01\x00\x01" + moved + b"\x00")) == []
        assert rx.refused == [1] and rx.pending_count == 0
        assert rx._next_arrival == 2 and rx.delivered == {P0.pack(): 1}


def _propose(site, ref, **fields):
    """``ref``'s envelope reaches ``site``; the priority it proposed."""
    site.hold(ref, **fields)
    return site.stage._queue[ref].priority


class TestTotalOrder:
    """Two-phase ABCAST at one site, driven through a stub engine."""

    def test_single_message_flow(self):
        rx = StubEngine("two_phase", site_id=0)
        prio = _propose(rx, (0, 1), x="a")
        delivered = rx.final((0, 1), prio)
        assert [m["x"] for m in delivered] == ["a"]
        assert rx.stage.delivered == {(0, 1): prio}
        assert rx.stage.delivery_floor == prio and rx.dirty == 1

    def test_delivery_blocks_on_unfinalized_lower_priority(self):
        rx = StubEngine("two_phase", site_id=0)
        _propose(rx, (0, 1), x="first")   # prio (1, 0)
        _propose(rx, (1, 1), x="second")  # prio (2, 0)
        # Finalizing the *second* at a high priority cannot deliver it:
        # the first is still unfinalized with a lower proposal.
        assert rx.final((1, 1), (5, 1)) == []
        delivered = rx.final((0, 1), (1, 0))
        assert [m["x"] for m in delivered] == ["first", "second"]
        assert rx.stage.delivered == {(0, 1): (1, 0), (1, 1): (5, 1)}

    def test_same_final_order_at_all_sites(self):
        messages = {(0, 1): "m1", (1, 1): "m2"}
        sites = [StubEngine("two_phase", site_id=i) for i in range(3)]
        finals = {}
        for ref, x in messages.items():
            # The origin's kernel collects the proposals.
            sender = StubEngine("two_phase", site_id=ref[0])
            sender.stage.stamp(sender.envelope(ref),
                               make_process_address(ref[0], 0, 1))
            for site in sites:
                sender.dispatch(site.site_id, sender.note(
                    "g.abp", ref=list(ref),
                    prio=list(_propose(site, ref, x=x))))
            (final,) = sender.to_peers
            finals[ref] = tuple(final["prio"])
        orders = []
        for site in sites:
            got = []
            for ref, final in finals.items():
                got.extend(m["x"] for m in site.final(ref, final))
            orders.append(got)
        assert orders[0] == orders[1] == orders[2]
        assert sorted(orders[0]) == ["m1", "m2"]

    def test_sender_drop_site_completes_collection(self):
        sender = StubEngine("two_phase", site_id=0, sites=(0, 1))
        sender.stage.stamp(sender.envelope((0, 1)), P0)
        sender.dispatch(0, sender.note("g.abp", ref=[0, 1], prio=[1, 0]))
        assert sender.to_peers == []
        sender.stage.on_sites_died({1})
        (final,) = sender.to_peers
        assert (final["ref"], final["prio"]) == ([0, 1], [1, 0])

    def test_force_order_delivers_cut(self):
        rx = StubEngine("two_phase", site_id=0)
        _propose(rx, (0, 1), x="a")
        _propose(rx, (1, 1), x="b")
        delivered = rx.stage.force_order([
            [[1, 1], [7, 1]],
            [[0, 1], [9, 0]],
        ])
        assert [m["x"] for m in delivered] == ["b", "a"]
        assert rx.stage._queue == {}
        # The view ends with the cut: nothing of it is booked.
        assert rx.stage.delivered == {} and rx.dirty == 0
        assert rx.stage.delivery_floor == (0, 0)

    def test_duplicate_finalize_is_noop(self):
        rx = StubEngine("two_phase", site_id=0)
        prio = _propose(rx, (0, 1), x="a")
        rx.final((0, 1), prio)
        assert rx.final((0, 1), prio) == []

    def test_pending_state_snapshot(self):
        rx = StubEngine("two_phase", site_id=2)
        rx.hold((0, 1))
        state = rx.stage.pending_state()
        assert state == [{"ref": [0, 1], "prio": [1, 2], "final": False}]
