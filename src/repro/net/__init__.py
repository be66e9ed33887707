"""Network substrate: LAN model, fragmentation, reliable transport, bulk."""

from .bulk import BulkChannel
from .lan import Lan
from .packet import FRAME_HEADER_BYTES, KIND_ACK, KIND_DATA, Frame, Reassembler, fragment
from .reliable import ReliableEndpoint
from .transport import Transport

__all__ = [
    "BulkChannel",
    "Lan",
    "Frame",
    "Reassembler",
    "fragment",
    "FRAME_HEADER_BYTES",
    "KIND_DATA",
    "KIND_ACK",
    "ReliableEndpoint",
    "Transport",
]
