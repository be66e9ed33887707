"""Unit tests: sequencer-mode ABCAST, compact contexts, caching."""

import pytest

import reference_causal as reference
from reference_causal import VectorClock
from stub_engine import StubEngine
from repro import IsisCluster, IsisConfig, Message
from repro.core.ordering import UNSTAMPED_BASE
from repro.core.vectorclock import (
    ChainContext,
    ContextEncoder,
    apply_context_delta,
    check_delta_positions,
    parse_context_delta,
)
from repro.errors import CodecError
from repro.msg.address import make_group_address, make_process_address


def _refs(envs):
    return [(m["origin"], m["gseq"]) for m in envs]


class TestSequencerReceiver:
    """Sequencer ABCAST at a site that does not hold the token (site 0
    does), driven through a stub engine."""

    def test_data_then_stamp_delivers(self):
        rx = StubEngine("sequencer", site_id=1)
        assert rx.hold((0, 1)) == []
        out = rx.stamps([((0, 1), 1)])
        assert _refs(out) == [(0, 1)]
        assert rx.stage.delivered == {(0, 1): (1, 0)}
        assert rx.stage.delivery_floor == (1, 0) and rx.dirty == 1

    def test_stamp_then_data_delivers(self):
        rx = StubEngine("sequencer", site_id=1)
        assert rx.stamps([((2, 5), 1)]) == []
        out = rx.hold((2, 5))
        assert _refs(out) == [(2, 5)]

    def test_contiguous_stamp_gating(self):
        """Stamp 2 with data must wait for stamp 1 (no skipping gaps)."""
        rx = StubEngine("sequencer", site_id=1)
        rx.hold((0, 1))
        rx.hold((3, 1))
        # Stamp 2 arrives first (its data is held) — must NOT deliver.
        assert rx.stamps([((3, 1), 2)]) == []
        # Stamp 1 unblocks both, in stamp order.
        out = rx.stamps([((0, 1), 1)])
        assert _refs(out) == [(0, 1), (3, 1)]

    def test_stamp_known_data_missing_blocks_later_stamps(self):
        rx = StubEngine("sequencer", site_id=1)
        rx.stamps([((0, 1), 1), ((0, 2), 2)])
        rx.hold((0, 2))  # data for stamp 2 only
        assert len(rx.stage._held) == 1
        assert rx.stage.delivered == {}
        out = rx.hold((0, 1))
        assert _refs(out) == [(0, 1), (0, 2)]

    def test_duplicate_stamps_and_data_ignored(self):
        rx = StubEngine("sequencer", site_id=1)
        rx.hold((0, 1))
        # A second copy of held data.  (A copy of *delivered* data is the
        # message store's to refuse: a ref reaches this stage once a view.)
        assert rx.hold((0, 1)) == []
        rx.stamps([((0, 1), 1)])
        assert rx.stamps([((0, 1), 1)]) == []   # stamp of a delivered ref
        assert rx.stage.delivered == {(0, 1): (1, 0)}
        assert len(rx.stage._held) == 0 and rx.stage.pending_state() == []

    def test_pending_state_shape(self):
        rx = StubEngine("sequencer", site_id=1)
        rx.hold((0, 3))                   # unstamped, held
        rx.stamps([((2, 1), 4)])          # stamped, data in flight
        state = {tuple(e["ref"]): e for e in rx.stage.pending_state()}
        assert state[(2, 1)]["final"] is True
        assert state[(2, 1)]["prio"] == [4, 0]
        assert state[(0, 3)]["final"] is False
        assert state[(0, 3)]["prio"] == [UNSTAMPED_BASE + 3, 0]

    def test_force_order_delivers_listed_order_skips_unheld(self):
        rx = StubEngine("sequencer", site_id=1)
        rx.hold((0, 1))
        rx.hold((2, 1))
        rx.stamps([((2, 1), 7)])  # stamped but gated (stamps 1..6 unknown)
        out = rx.stage.force_order([
            [(2, 1), (7, 0)],
            [(9, 9), (8, 0)],                      # held nowhere: skipped
            [(0, 1), (UNSTAMPED_BASE + 1, 0)],
        ])
        assert _refs(out) == [(2, 1), (0, 1)]
        assert len(rx.stage._held) == 0
        # The view ends with the cut: nothing of it is booked.
        assert rx.stage.delivered == {} and rx.dirty == 0
        assert rx.stage.delivery_floor == (0, 0)

    def test_on_new_view_resets(self):
        rx = StubEngine("sequencer", site_id=1)
        rx.hold((0, 1))
        rx.stamps([((0, 1), 1), ((0, 2), 2)])
        rx.stage.on_new_view()
        assert len(rx.stage._held) == 0
        assert rx.stage.delivered == {}
        assert rx.stage.delivery_floor == (0, 0)
        # Fresh view: stamp numbering restarts at 1.
        rx.hold((0, 1))
        assert len(rx.stamps([((0, 1), 1)])) == 1


def _ctx(*entries):
    """entries: (group_no, view_id, {member_no: count}), the view's
    members the dict's keys, by rank."""
    out = {}
    for group_no, view_id, counts in entries:
        gid = make_group_address(0, group_no)
        members = tuple(make_process_address(0, 1, m) for m in counts)
        out[gid.process()] = (view_id, members, VectorClock(
            dict(zip(members, counts.values()))))
    return out


def _same_ctx(decoded, ctx):
    """The receiver's counts by rank are the sender's vectors."""
    assert decoded == reference.ranked(ctx)


class TestCompactContextCodec:
    """The in-place chain ends (:class:`ContextEncoder`; ``parse_context_
    delta`` + ``apply_context_delta``) on hand-written contexts."""

    @staticmethod
    def _chain(contexts):
        """Send ``contexts`` down one chain; yield ``(wire, context the
        receiver holds after applying it)``."""
        encoder, held = ContextEncoder({}), ChainContext()
        for ctx in contexts:
            wire = encoder.encode(reference.context_rows(ctx))
            delta = parse_context_delta(wire)
            check_delta_positions(held, delta)
            apply_context_delta(held, delta, {})
            yield wire, reference.unpacked_context(held)

    def test_full_roundtrip(self):
        ctx = _ctx((1, 3, {7: 2, 8: 5}), (2, 1, {9: 1}))
        (wire, decoded), = self._chain([ctx])
        _same_ctx(decoded, ctx)
        assert wire == reference.encode_context_compact(ctx)

    def test_full_is_much_smaller_than_dict_encoding(self):
        ctx = _ctx((1, 3, {m: m for m in range(1, 9)}))
        (wire, _), = self._chain([ctx])
        compact = Message(c=wire).size_bytes
        legacy = Message(c=reference.encode_context(ctx)).size_bytes
        assert compact < legacy / 2.5

    def test_delta_chain_reconstructs_absolute_contexts(self):
        c1 = _ctx((1, 1, {7: 1, 8: 0}))
        c2 = _ctx((1, 1, {7: 2, 8: 1}), (2, 1, {9: 4}))   # counts grow, group added
        c3 = _ctx((1, 2, {7: 1}))                          # view advance + removal
        sent = None         # the previous context, in the chain's order
        for cur, (wire, decoded) in zip((c1, c2, c3),
                                        self._chain([c1, c2, c3])):
            _same_ctx(decoded, cur)
            assert wire == reference.encode_context_compact(cur, sent)
            sent = decoded

    def test_delta_smaller_than_full(self):
        c1 = _ctx((1, 1, {m: 10 for m in range(1, 9)}))
        counts = {m: 10 for m in range(1, 9)}
        counts[3] = 11
        c2 = _ctx((1, 1, counts))
        (full, _), = self._chain([c2])
        _, (delta, _) = self._chain([c1, c2])
        assert len(delta) < len(full)

    def test_trailing_garbage_raises(self):
        (wire, _), = self._chain([_ctx((1, 1, {7: 1}))])
        with pytest.raises(CodecError):
            parse_context_delta(wire + b"\x00")


class TestMessageEncodeCache:
    def test_encode_cached_until_mutation(self):
        msg = Message(a=1, b="x")
        first = msg.encode()
        assert msg.encode() is first
        msg["c"] = 2
        second = msg.encode()
        assert second != first
        assert msg.encode() is second

    def test_decode_seeds_cache_canonically(self):
        msg = Message(a=1, b=[1, 2, {"k": b"v"}], m=Message(x=1.5))
        data = msg.encode()
        decoded = Message.decode(data)
        assert decoded.encode() == data
        assert decoded.size_bytes == len(data)

    def test_copy_shares_cache_but_not_invalidation(self):
        msg = Message(a=1)
        data = msg.encode()
        copy = msg.copy()
        assert copy.encode() is data
        copy["b"] = 2
        assert msg.encode() is data
        assert copy.encode() != data


class TestAbcastCounters:
    def test_stats_expose_abcast_phase_counters(self):
        system = IsisCluster(n_sites=2, seed=5,
                             isis_config=IsisConfig(abcast_mode="sequencer"))
        stats = system.kernel(0).stats()
        for key in ("abcast.proposals", "abcast.finals",
                    "abcast.seq_stamps", "abcast.token_handoffs"):
            assert key in stats, key

    def test_unknown_abcast_mode_rejected(self):
        from repro.core.engine import GroupEngine
        from repro.errors import GroupError
        system = IsisCluster(n_sites=2, seed=5,
                             isis_config=IsisConfig(abcast_mode="bogus"))
        with pytest.raises(GroupError):
            GroupEngine(system.kernel(0), make_group_address(0, 1))
