"""Wire frames and message fragmentation.

§7 of the paper explains the Figure 2 latency knee: *"large inter-site
messages are fragmented into 4kbyte packets"*.  We reproduce that: a
message whose encoding exceeds the MTU is split into fragments, each of
which travels as one LAN packet and is reassembled at the receiving site.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import NetworkError

KIND_DATA = "data"
KIND_ACK = "ack"
KIND_RAW = "raw"  # unreliable datagram (heartbeats): no seq, no retransmit

#: Bytes of header we charge per frame on the wire (addresses, seq, frag
#: info, checksums — a stand-in for the UDP/IP framing of the original).
FRAME_HEADER_BYTES = 40


@dataclass(slots=True)
class Frame:
    """One LAN packet: either a data fragment or an acknowledgement."""

    kind: str
    src_site: int
    dst_site: int
    epoch: int = 0           # sender incarnation; stale epochs are ignored
    seq: int = 0             # per-channel sequence number (data frames)
    ack: int = -1            # cumulative ack (ack frames only)
    ack_epoch: int = 0       # incarnation of the peer whose frames ``ack`` counts
    msg_id: int = 0          # message this fragment belongs to
    frag_index: int = 0
    frag_total: int = 1
    payload: bytes = b""
    syn: bool = False        # first data frame of a numbering (net/reliable.py)

    @property
    def wire_size(self) -> int:
        """Size charged on the LAN, header included."""
        return FRAME_HEADER_BYTES + len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == KIND_ACK:
            return f"<ACK {self.src_site}->{self.dst_site} ack={self.ack}>"
        return (
            f"<DATA {self.src_site}->{self.dst_site} seq={self.seq} "
            f"msg={self.msg_id} frag={self.frag_index + 1}/{self.frag_total} "
            f"{len(self.payload)}B>"
        )


# ----------------------------------------------------------------------
# Binary frame codec (real-network driver)
# ----------------------------------------------------------------------
# The simulator hands Frame *objects* to the modeled LAN, so no byte
# encoding is needed there.  The asyncio/UDP driver puts the same frames
# on real sockets; this codec is the wire format.  Several frames are
# bundled into one datagram (see encode_datagram): one ``sendto`` per
# bundle instead of one per frame.
#
# Header layout (network byte order):
#   kind      u8   (0=data, 1=ack, 2=raw)
#   flags     u8   (bit 1: syn; every other bit reserved, must be zero)
#   src_site  u16
#   dst_site  u16
#   epoch     u16  (low byte: sender incarnation; high byte: ack_epoch)
#   seq       u32
#   ack       i32  (ack frames: cumulative ack; others: -1, ignored)
#   msg_id    u32
#   frag_index u16
#   frag_total u16
#   payload_len u32
_FRAME_STRUCT = struct.Struct("!BBHHHIiIHHI")
FRAME_WIRE_HEADER_BYTES = _FRAME_STRUCT.size

_KIND_TO_CODE = {KIND_DATA: 0, KIND_ACK: 1, KIND_RAW: 2}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}
_FLAG_SYN = 0x02

#: Datagram prefix: magic (u16), version (u8), frame count (u8).
_DGRAM_STRUCT = struct.Struct("!HBB")
DATAGRAM_MAGIC = 0x5653  # "VS"
DATAGRAM_VERSION = 1
DATAGRAM_HEADER_BYTES = _DGRAM_STRUCT.size
#: Most frames that fit in one datagram bundle (count is a u8).
MAX_FRAMES_PER_DATAGRAM = 255


def _frame_header(frame: Frame) -> bytes:
    """The wire header of one frame (its payload follows it)."""
    code = _KIND_TO_CODE.get(frame.kind)
    if code is None:
        raise NetworkError(f"unknown frame kind {frame.kind!r}")
    return _FRAME_STRUCT.pack(
        code, _FLAG_SYN if frame.syn else 0, frame.src_site, frame.dst_site,
        frame.epoch | frame.ack_epoch << 8,
        frame.seq, frame.ack, frame.msg_id, frame.frag_index,
        frame.frag_total, len(frame.payload),
    )


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame (header + payload) for the real wire."""
    return _frame_header(frame) + frame.payload


def decode_frame(buf: bytes, offset: int = 0) -> Tuple[Frame, int]:
    """Parse one frame starting at ``offset``; returns (frame, next_offset)."""
    end = offset + FRAME_WIRE_HEADER_BYTES
    if end > len(buf):
        raise NetworkError("truncated frame header")
    (code, flags, src, dst, epoch, seq, ack, msg_id,
     frag_index, frag_total, payload_len) = _FRAME_STRUCT.unpack_from(buf, offset)
    kind = _CODE_TO_KIND.get(code)
    if kind is None:
        raise NetworkError(f"unknown frame kind code {code}")
    if flags & ~_FLAG_SYN:
        raise NetworkError(f"reserved frame flag bits set: 0x{flags:02x}")
    next_offset = end + payload_len
    if next_offset > len(buf):
        raise NetworkError("truncated frame payload")
    # Positional, in field order: no keyword matching per frame.
    return Frame(kind, src, dst, epoch & 0xFF, seq, ack, epoch >> 8, msg_id,
                 frag_index, frag_total, bytes(buf[end:next_offset]),
                 flags == _FLAG_SYN), next_offset


def encode_datagram(frames: List[Frame]) -> bytes:
    """Bundle up to 255 frames into one datagram (magic + version + count)."""
    if not frames:
        raise NetworkError("empty datagram")
    if len(frames) > MAX_FRAMES_PER_DATAGRAM:
        raise NetworkError(f"too many frames for one datagram: {len(frames)}")
    parts = [_DGRAM_STRUCT.pack(DATAGRAM_MAGIC, DATAGRAM_VERSION, len(frames))]
    append = parts.append
    for frame in frames:  # one join for every header and payload
        append(_frame_header(frame))
        append(frame.payload)
    return b"".join(parts)


def decode_datagram(data: bytes) -> List[Frame]:
    """Parse a datagram back into its frames (inverse of encode_datagram)."""
    if len(data) < DATAGRAM_HEADER_BYTES:
        raise NetworkError("truncated datagram header")
    magic, version, count = _DGRAM_STRUCT.unpack_from(data, 0)
    if magic != DATAGRAM_MAGIC:
        raise NetworkError(f"bad datagram magic 0x{magic:04x}")
    if version != DATAGRAM_VERSION:
        raise NetworkError(f"unsupported datagram version {version}")
    frames: List[Frame] = []
    offset = DATAGRAM_HEADER_BYTES
    for _ in range(count):
        frame, offset = decode_frame(data, offset)
        frames.append(frame)
    if offset != len(data):
        raise NetworkError("trailing bytes after last frame")
    return frames


def fragment(data: bytes, mtu: int) -> List[bytes]:
    """Split ``data`` into MTU-sized chunks (at least one, even if empty)."""
    if mtu <= 0:
        raise NetworkError(f"mtu must be positive, got {mtu}")
    if len(data) <= mtu:
        return [data]
    return [data[i:i + mtu] for i in range(0, len(data), mtu)]


@dataclass
class _PartialMessage:
    total: int
    parts: Dict[int, bytes] = field(default_factory=dict)

    def add(self, index: int, payload: bytes) -> Optional[bytes]:
        """Store one fragment; return the whole message when complete."""
        if index < 0 or index >= self.total:
            raise NetworkError(f"fragment index {index} out of range 0..{self.total - 1}")
        self.parts.setdefault(index, payload)
        if len(self.parts) < self.total:
            return None
        return b"".join(self.parts[i] for i in range(self.total))


class Reassembler:
    """Rebuilds messages from (possibly re-ordered) fragments.

    Keyed by ``(channel_key, msg_id)`` so concurrent messages from many
    senders interleave safely.  Duplicate fragments are ignored.
    """

    def __init__(self) -> None:
        self._partials: Dict[Tuple, _PartialMessage] = {}

    def add(self, key: Tuple, frag_index: int, frag_total: int,
            payload: bytes) -> Optional[bytes]:
        """Feed one fragment; return the full message once assembled."""
        if frag_total <= 0:
            raise NetworkError(f"frag_total must be positive, got {frag_total}")
        partial = self._partials.get(key)
        if partial is None:
            if frag_total == 1 and frag_index == 0:
                return payload  # the whole message: nothing to hold
            partial = _PartialMessage(total=frag_total)
            self._partials[key] = partial
        elif partial.total != frag_total:
            raise NetworkError(
                f"inconsistent frag_total for {key}: {partial.total} vs {frag_total}"
            )
        whole = partial.add(frag_index, payload)
        if whole is not None:
            del self._partials[key]
        return whole

    def pending(self) -> int:
        """Number of messages awaiting fragments (tests/diagnostics)."""
        return len(self._partials)

    def forget(self, key_prefix: Tuple) -> None:
        """Drop partial state for a channel (used on epoch change)."""
        stale = [k for k in self._partials if k[:len(key_prefix)] == key_prefix]
        for k in stale:
            del self._partials[k]
