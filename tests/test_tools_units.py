"""Unit tests for toolkit helpers that need no full cluster."""

import pytest

from repro.core.view import View
from repro.msg import make_group_address, make_process_address
from repro.tools.coordinator import pick_coordinator
from repro.errors import CodecError
from repro.msg import Message
from repro.tools.transfer import carve, decode_state, encode_state

GID = make_group_address(0, 1)
P_AT_0 = make_process_address(0, 0, 1)
P_AT_1 = make_process_address(1, 0, 1)
P_AT_2 = make_process_address(2, 0, 1)


class TestPickCoordinator:
    def view(self, *members):
        return View(gid=GID, view_id=1, members=tuple(members))

    def test_prefers_participant_at_caller_site(self):
        """§6: 'picks the coordinator to reside at the same site as the
        caller if possible (to minimize latency)'."""
        view = self.view(P_AT_0, P_AT_1, P_AT_2)
        plist = [P_AT_0, P_AT_1, P_AT_2]
        assert pick_coordinator(plist, view, caller_site=1) == P_AT_1

    def test_circular_scan_otherwise(self):
        """§6: 'the caller's site-id is used as a random index into
        plist and the first operational process, in a circular scan,
        is chosen'."""
        view = self.view(P_AT_0, P_AT_1)
        plist = [P_AT_0, P_AT_1]
        # Caller at site 5: no participant there; 5 % 2 = 1.
        assert pick_coordinator(plist, view, caller_site=5) == P_AT_1

    def test_dead_participants_skipped(self):
        view = self.view(P_AT_0, P_AT_2)  # P_AT_1 not in the view
        plist = [P_AT_0, P_AT_1, P_AT_2]
        assert pick_coordinator(plist, view, caller_site=1) in (P_AT_0, P_AT_2)

    def test_deterministic_across_participants(self):
        """All participants must compute the same coordinator."""
        view = self.view(P_AT_0, P_AT_1, P_AT_2)
        plist = [P_AT_2, P_AT_0, P_AT_1]  # arbitrary but shared order
        picks = {pick_coordinator(plist, view, caller_site=7)
                 for _ in range(5)}
        assert len(picks) == 1

    def test_empty_candidates_returns_none(self):
        view = self.view(P_AT_0)
        assert pick_coordinator([P_AT_1], view, caller_site=0) is None


class TestCarve:
    def test_small_blob_one_block(self):
        assert carve(b"abc", 10) == [b"abc"]

    def test_empty_blob_one_empty_block(self):
        assert carve(b"", 10) == [b""]

    def test_blocks_reassemble(self):
        blob = bytes(range(256)) * 10
        assert b"".join(carve(blob, 100)) == blob

    def test_block_sizes_bounded(self):
        blocks = carve(b"x" * 1050, 100)
        assert all(len(b) <= 100 for b in blocks)
        assert len(blocks) == 11


class TestStateCodec:
    def test_values_arrive_as_themselves(self):
        value = {"a|b\n": [P_AT_1, b"\x00\x01", 5, 2.5, None, {"k": [1]}]}
        assert decode_state(encode_state(value)) == value

    @pytest.mark.parametrize("blob", [
        b"", b"\xff", b"not a message",
        Message(other=1).encode(), Message(state=1, extra=2).encode(),
    ])
    def test_anything_else_is_refused(self, blob):
        with pytest.raises(CodecError):
            decode_state(blob)
