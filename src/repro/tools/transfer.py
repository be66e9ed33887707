"""State transfer helpers (§3.8).

The transfer machinery itself lives in the kernel (it must interlock
with the join flush: *"Up to the instant before the join occurs, the old
set of members continue to receive requests and the new one does not"*).
This module is the application's side of it, the paper's requirement
that *"the application must be able to encode its state into a series of
variable sized blocks"*.  A registered segment is one of two things:

* :func:`register_state` — one value, in the §4.1 message codec: any
  value a multicast field can carry (addresses, bytes, numbers, strings,
  messages, and lists and ``str``-keyed dicts of these) arrives at the
  joiner as itself, except that a tuple arrives as a list;
* :func:`register_raw_state` — bytes the application encodes itself.

Either way the encoding is carved into blocks; the kernel picks ISIS
messages or the bulk channel by size.  Every toolkit tool transfers its
replica through :func:`register_state`.
"""

from __future__ import annotations

from typing import Any, Callable, List

from ..core.groups import Isis
from ..errors import CodecError
from ..msg.message import Message

DEFAULT_BLOCK_SIZE = 8192


def carve(blob: bytes, block_size: int = DEFAULT_BLOCK_SIZE) -> List[bytes]:
    """Split a byte string into transfer blocks (at least one)."""
    if not blob:
        return [b""]
    return [blob[i:i + block_size] for i in range(0, len(blob), block_size)]


def encode_state(value: Any) -> bytes:
    """``value`` as one field of a codec message."""
    return Message(state=value).encode()


def decode_state(blob: bytes) -> Any:
    """Inverse of :func:`encode_state`; raises :class:`CodecError` only."""
    msg = Message.decode(blob)
    if list(msg) != ["state"]:
        raise CodecError(f"not a state segment: fields {list(msg)}")
    return msg["state"]


def register_state(
    isis: Isis,
    segment: str,
    snapshot: Callable[[], Any],
    restore: Callable[[Any], None],
) -> None:
    """Register application state for auto-transfer.

    ``snapshot()`` returns the state as one codec value; ``restore(value)``
    re-installs it at the joiner.  A segment that is not such a value
    raises :class:`CodecError` at the joiner, which refuses the transfer
    and asks for it again.
    """

    def encoder() -> List[bytes]:
        return carve(encode_state(snapshot()))

    def decoder(blocks: List[bytes]) -> None:
        restore(decode_state(b"".join(blocks)))

    isis.register_transfer(segment, encoder, decoder)


def register_raw_state(
    isis: Isis,
    segment: str,
    snapshot: Callable[[], bytes],
    restore: Callable[[bytes], None],
) -> None:
    """Like :func:`register_state` but for raw byte states."""

    def encoder() -> List[bytes]:
        return carve(snapshot())

    def decoder(blocks: List[bytes]) -> None:
        restore(b"".join(blocks))

    isis.register_transfer(segment, encoder, decoder)
