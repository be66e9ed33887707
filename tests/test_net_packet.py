"""Unit tests for fragmentation and reassembly (repro.net.packet)."""

import pytest

from repro.errors import NetworkError
from repro.net import Frame, Reassembler, fragment
from repro.net.packet import FRAME_HEADER_BYTES, decode_frame, encode_frame


class TestFragment:
    def test_small_message_single_fragment(self):
        assert fragment(b"abc", 4096) == [b"abc"]

    def test_empty_message_still_one_fragment(self):
        assert fragment(b"", 4096) == [b""]

    def test_exact_mtu_single_fragment(self):
        data = b"x" * 4096
        assert fragment(data, 4096) == [data]

    def test_mtu_plus_one_two_fragments(self):
        data = b"x" * 4097
        parts = fragment(data, 4096)
        assert len(parts) == 2
        assert parts[0] == b"x" * 4096 and parts[1] == b"x"

    def test_fragments_reconstruct(self):
        data = bytes(range(256)) * 100
        assert b"".join(fragment(data, 1000)) == data

    def test_bad_mtu_rejected(self):
        with pytest.raises(NetworkError):
            fragment(b"x", 0)


class TestReassembler:
    def test_single_fragment_completes_immediately(self):
        r = Reassembler()
        assert r.add(("ch", 1), 0, 1, b"whole") == b"whole"

    def test_in_order_fragments(self):
        r = Reassembler()
        assert r.add(("ch", 1), 0, 3, b"a") is None
        assert r.add(("ch", 1), 1, 3, b"b") is None
        assert r.add(("ch", 1), 2, 3, b"c") == b"abc"
        assert r.pending() == 0

    def test_out_of_order_fragments(self):
        r = Reassembler()
        assert r.add(("ch", 1), 2, 3, b"c") is None
        assert r.add(("ch", 1), 0, 3, b"a") is None
        assert r.add(("ch", 1), 1, 3, b"b") == b"abc"

    def test_duplicate_fragment_ignored(self):
        r = Reassembler()
        r.add(("ch", 1), 0, 2, b"a")
        r.add(("ch", 1), 0, 2, b"DUP")
        assert r.add(("ch", 1), 1, 2, b"b") == b"ab"

    def test_interleaved_messages(self):
        r = Reassembler()
        r.add(("ch", 1), 0, 2, b"1a")
        r.add(("ch", 2), 0, 2, b"2a")
        assert r.add(("ch", 2), 1, 2, b"2b") == b"2a2b"
        assert r.add(("ch", 1), 1, 2, b"1b") == b"1a1b"

    def test_inconsistent_total_rejected(self):
        r = Reassembler()
        r.add(("ch", 1), 0, 3, b"a")
        with pytest.raises(NetworkError):
            r.add(("ch", 1), 1, 4, b"b")

    def test_index_out_of_range_rejected(self):
        r = Reassembler()
        with pytest.raises(NetworkError):
            r.add(("ch", 1), 5, 3, b"x")

    def test_single_fragment_keeps_every_refusal(self):
        r = Reassembler()
        with pytest.raises(NetworkError):
            r.add(("ch", 1), 1, 1, b"x")        # index outside 0..0
        r.add(("ch", 2), 0, 2, b"a")
        with pytest.raises(NetworkError):
            r.add(("ch", 2), 0, 1, b"b")        # conflicts with the held 2
        assert r.add(("ch", 2), 1, 2, b"b") == b"ab"

    def test_forget_drops_channel_state(self):
        r = Reassembler()
        r.add((7, 1), 0, 2, b"a")
        r.add((8, 1), 0, 2, b"a")
        r.forget((7,))
        assert r.pending() == 1


def test_frame_wire_size_includes_header():
    frame = Frame(kind="data", src_site=0, dst_site=1, payload=b"x" * 10)
    assert frame.wire_size == FRAME_HEADER_BYTES + 10
    assert not hasattr(frame, "__dict__")      # a slotted record


@pytest.mark.parametrize("bit", [0, 2, 3, 4, 5, 6, 7])
def test_reserved_flag_bits_are_refused(bit):
    """Only bit 1 (``syn``) of the flags byte means anything; a frame
    with any other set came from a sender this decoder does not know."""
    wire = bytearray(encode_frame(
        Frame(kind="data", src_site=0, dst_site=1, syn=True, payload=b"x")))
    assert decode_frame(bytes(wire))[0].syn
    wire[1] |= 1 << bit
    with pytest.raises(NetworkError):
        decode_frame(bytes(wire))
