"""The ISIS message: a symbol table of named, typed fields.

Fields can be inserted and deleted at will; *system fields* (names
beginning with ``_``) carry routing information — the sender's address
(which "cannot be forged": only the kernel writes it), the destination
list, the session id used to match replies with pending calls, and so on
(§4.1).  A field can contain another message, which the toolkit uses to
wrap payloads for forwarding.

Messages have a real binary encoding (:meth:`encode` / :meth:`decode`);
the transport fragments messages by *encoded* size, which is what makes
the Figure 2 throughput knee reproducible.

The codec (wire format: ``fields.py``) makes one pass over a message.
Encoding appends to one ``bytearray`` per message through a table keyed
by ``type(value)``; decoding walks the buffer by tag with no bounds check
of its own — a truncated input shows up as a short slice or a
``struct.error`` and is reported once, by :meth:`Message.decode`.

A message whose ``_proto`` has a *layout* travels in the positional form
instead, and only in it: its row in ``msg/wire.py`` is the layout, which
the declaration hands to :func:`use_layouts`.  Such a message with a
field outside its row, or a value of the wrong kind, is
:class:`CodecError` at :meth:`Message.encode`; a symbol table that names
such a ``_proto`` is :class:`CodecError` at :meth:`Message.decode`.

The decoder's contract: **malformed input raises** :class:`CodecError`
**and nothing else**; nesting (messages, lists, dicts) deeper than
:data:`MAX_DEPTH` is malformed; and only *canonical* input is accepted —
bytes that :meth:`Message.encode` could have produced — because a
decoded message keeps its input as its encoding.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import CodecError
from .address import ADDRESS_SIZE, Address
from .address import _interned as _addresses   # packed form -> instance
from .fields import (
    T_ADDR,
    T_BOOL,
    T_BYTES,
    T_DICT,
    T_FLOAT,
    T_INT,
    T_LIST,
    T_MSG,
    T_NONE,
    T_STR,
    Stab,
    decode_stab,
    encode_stab,
)

# System field names.  Only kernel code should write these.  A group
# message is handed over with its _sender and _session; they travel in it
# only when the envelope does not name the caller (core/engine.py, mcast).
F_SENDER = "_sender"      # Address: the caller, unforgeable; replies go here
F_DESTS = "_dests"        # list[Address]: destination list as given
F_SESSION = "_session"    # int: matches replies to pending calls
F_ENTRY = "_entry"        # int: destination entry point
F_PROTO = "_proto"        # str: multicast protocol tag (cbcast/abcast/...)
F_VIEW_ID = "_view_id"    # int: view in which a group message is delivered
F_GROUP = "_group"        # Address: group this message was addressed to


class Message:
    """Ordered mapping of field name → value with a binary codec."""

    __slots__ = ("_fields", "_encoded")

    def __init__(self, **fields: Any):
        if "" in fields:    # keyword names are str already
            raise CodecError("field name must be a non-empty str, got ''")
        self._fields: Dict[str, Any] = fields
        #: Cached wire bytes; an envelope fanned out to k destination
        #: sites (or packed into k batches) encodes once, not k times.
        self._encoded: Optional[bytes] = None

    # -- mapping interface ------------------------------------------------
    def __setitem__(self, name: str, value: Any) -> None:
        if not isinstance(name, str) or not name:
            raise CodecError(f"field name must be a non-empty str, got {name!r}")
        self._fields[name] = value
        self._encoded = None

    def __getitem__(self, name: str) -> Any:
        try:
            return self._fields[name]
        except KeyError:
            raise KeyError(f"message has no field {name!r}") from None

    def __delitem__(self, name: str) -> None:
        del self._fields[name]
        self._encoded = None

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def get(self, name: str, default: Any = None) -> Any:
        return self._fields.get(name, default)

    def fields(self) -> Dict[str, Any]:
        """Shallow copy of all fields."""
        return dict(self._fields)

    # -- system field accessors --------------------------------------------
    @property
    def sender(self) -> Optional[Address]:
        return self._fields.get(F_SENDER)

    @property
    def dests(self) -> List[Address]:
        return list(self._fields.get(F_DESTS, ()))

    @property
    def session(self) -> Optional[int]:
        return self._fields.get(F_SESSION)

    @property
    def entry(self) -> int:
        return self._fields.get(F_ENTRY, 0)

    @property
    def group(self) -> Optional[Address]:
        return self._fields.get(F_GROUP)

    @property
    def view_id(self) -> Optional[int]:
        return self._fields.get(F_VIEW_ID)

    # -- copying ------------------------------------------------------------
    def copy(self) -> "Message":
        """Independent copy (field values are shared, names are not)."""
        out = Message()
        out._fields = dict(self._fields)
        out._encoded = self._encoded  # identical fields, identical bytes
        return out

    # -- codec ----------------------------------------------------------------
    def encode(self) -> bytes:
        """Binary encoding: magic, field count, then name/value pairs (or
        the positional form, for a protocol with a layout).

        Cached until a field is inserted or deleted; like
        :attr:`size_bytes`, the cache does not observe in-place mutation
        of nested values (kernel code always copies before mutating).
        """
        encoded = self._encoded
        if encoded is None:
            try:
                encoded = _encode_message(self, 1)
            except struct.error as err:     # a 65-bit int, 65 536 fields
                raise CodecError(f"value does not fit the wire format: {err}") from err
        return encoded

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Inverse of :meth:`encode`; raises :class:`CodecError` only.

        The decoder accepts exactly what :meth:`encode` produces, so the
        input bytes ARE the encoding: they seed the cache of the message
        and of every message nested in it, and re-encoding a decoded
        message — loopback hops, refill re-sends — is free.
        """
        if type(data) is not bytes:
            data = bytes(data)
        try:
            return _read_message(cls, data, 1)
        except (struct.error, IndexError, UnicodeDecodeError) as err:
            raise CodecError(f"truncated or malformed message: {err}") from err

    @property
    def size_bytes(self) -> int:
        """Encoded size in bytes (cached until the message is mutated)."""
        return len(self.encode())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ", ".join(sorted(self._fields))
        return f"<Message [{keys}]>"


# ----------------------------------------------------------------------
# The one-pass codec
# ----------------------------------------------------------------------
_MAGIC = 0x49D2  # "ISis"

#: Deepest accepted nesting of messages, lists and dicts (the top-level
#: message is level 1).  Kernel envelopes stay under 8; the cap keeps a
#: hostile datagram from turning into a ``RecursionError``.
MAX_DEPTH = 32

_HEADER = struct.Struct(">HH")     # magic, field count
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_TAG_U32 = struct.Struct(">BI")    # tag, then a length or a count
_NONE = bytes([T_NONE])
_FALSE = bytes([T_BOOL, 0])
_TRUE = bytes([T_BOOL, 1])
_ADDR_TAG = bytes([T_ADDR])

#: Field name -> its wire header (u16 length + UTF-8), and the inverse
#: for the decoder.  A deployment uses a few dozen names; past the cap a
#: table is emptied, not grown (a peer can put any name on the wire).
_NAME_CAP = 1024
_name_headers: Dict[str, bytes] = {}
_names: Dict[bytes, str] = {}


def _name_header(name: str) -> bytes:
    """u16 length + UTF-8: how field names and dict keys travel."""
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"field name or dict key too long: {name[:32]!r}...")
    return _U16.pack(len(raw)) + raw


def _remember(table: dict, key: Any, value: Any) -> Any:
    """Add ``key -> value`` to a bounded name table; return ``value``."""
    if len(table) >= _NAME_CAP:
        table.clear()
    table[key] = value
    return value


def _too_deep() -> CodecError:
    return CodecError(f"nesting deeper than {MAX_DEPTH} levels")


#: The positional form: this byte (no flip of one bit, or of all eight,
#: turns the symbol table's first byte 0x49 into it, nor it into 0x49),
#: the protocol's index, then what the row's writer appends
#: (``fields.py``).  :func:`use_layouts` fills the tables: proto ->
#: (those two bytes, ``write(fields, buf, depth)``), and index ->
#: ``read(data, offset, depth)`` -> ``(fields, next_offset)``.
POSITIONAL_MAGIC = 0xA7
_writers: Dict[str, Tuple[bytes, Callable[[dict, bytearray, int], None]]] = {}
_readers: List[Callable[[bytes, int, int], Tuple[dict, int]]] = []


def use_layouts(layouts: List[Tuple[str, Callable, Callable]]) -> None:
    """Take each ``(proto, write, read)`` as that protocol's one form."""
    _readers[:] = [read for _, _, read in layouts]
    _writers.clear()
    for index, (proto, write, _) in enumerate(layouts):
        _writers[proto] = (bytes((POSITIONAL_MAGIC, index)), write)


# Encoder.  A writer appends ``value`` to ``buf``; ``depth`` is the level
# of the value itself, which only the containers look at.
def _put_none(value: None, buf: bytearray, depth: int) -> None:
    buf += _NONE


def _put_bool(value: bool, buf: bytearray, depth: int) -> None:
    buf += _TRUE if value else _FALSE


def _put_int(value: int, buf: bytearray, depth: int) -> None:
    buf += _TAG_I64.pack(T_INT, value)


def _put_float(value: float, buf: bytearray, depth: int) -> None:
    buf += _TAG_F64.pack(T_FLOAT, value)


def _put_str(value: str, buf: bytearray, depth: int) -> None:
    raw = value.encode("utf-8")
    buf += _TAG_U32.pack(T_STR, len(raw))
    buf += raw


def _put_bytes(value: bytes, buf: bytearray, depth: int) -> None:
    buf += _TAG_U32.pack(T_BYTES, len(value))
    buf += value


def _put_address(value: Address, buf: bytearray, depth: int) -> None:
    buf += _ADDR_TAG
    buf += value.pack()


def _put_message(value: Message, buf: bytearray, depth: int) -> None:
    raw = value._encoded
    if raw is None:
        raw = _encode_message(value, depth)
    buf += _TAG_U32.pack(T_MSG, len(raw))
    buf += raw


def _put_list(value: "list | tuple", buf: bytearray, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise _too_deep()
    buf += _TAG_U32.pack(T_LIST, len(value))
    depth += 1
    for item in value:
        if type(item) is int:
            buf += _TAG_I64.pack(T_INT, item)
        else:
            _ENCODERS[type(item)](item, buf, depth)


def _put_dict(value: dict, buf: bytearray, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise _too_deep()
    buf += _TAG_U32.pack(T_DICT, len(value))
    depth += 1
    for key, item in value.items():
        if not isinstance(key, str):
            raise CodecError(f"dict keys must be str, got {key!r}")
        buf += _name_header(key)
        _ENCODERS[type(item)](item, buf, depth)


class _Encoders(dict):
    """``type(value)`` -> writer.  An exact type is one dictionary hit;
    only a subclass (``IntEnum``, ``OrderedDict``) pays the walk."""

    def __missing__(self, kind: type) -> Callable[[Any, bytearray, int], None]:
        for base, put in self.items():   # insertion order: bool before int
            if issubclass(kind, base):
                return put
        raise CodecError(f"unencodable field value of type {kind.__name__}")


_ENCODERS = _Encoders({
    type(None): _put_none,
    bool: _put_bool,
    int: _put_int,
    float: _put_float,
    str: _put_str,
    bytes: _put_bytes,
    bytearray: _put_bytes,
    Address: _put_address,
    Message: _put_message,
    list: _put_list,
    tuple: _put_list,
    dict: _put_dict,
})


def _encode_message(msg: Message, depth: int) -> bytes:
    """Encode ``msg`` (at nesting level ``depth``) and cache the bytes."""
    if depth > MAX_DEPTH:
        raise _too_deep()
    fields = msg._fields
    proto = fields.get(F_PROTO)
    layout = _writers.get(proto) if proto.__class__ is str else None
    if layout is not None:
        buf = bytearray(layout[0])
        layout[1](fields, buf, depth + 1)
    else:
        buf = bytearray(_HEADER.pack(_MAGIC, len(fields)))
        depth += 1
        for name, value in fields.items():
            try:
                buf += _name_headers[name]
            except KeyError:
                buf += _remember(_name_headers, name, _name_header(name))
            if type(value) is int:          # over half of all values
                buf += _TAG_I64.pack(T_INT, value)
            else:
                _ENCODERS[type(value)](value, buf, depth)
    encoded = msg._encoded = bytes(buf)
    return encoded


# Decoder.
def _read_message(cls: type, data: bytes, depth: int) -> Message:
    """Decode ``data``, all of it, as one message at level ``depth``."""
    if depth > MAX_DEPTH:
        raise _too_deep()
    if data[0] == POSITIONAL_MAGIC:
        if data[1] >= len(_readers):
            raise CodecError(f"no positional protocol at index {data[1]}")
        fields, offset = _readers[data[1]](data, 2, depth + 1)
    else:
        magic, count = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise CodecError(f"bad message magic {magic:#x}")
        fields, offset = {}, 4
        depth += 1
        for _ in range(count):
            start = offset + 2
            offset = start + ((data[offset] << 8) | data[offset + 1])
            raw_name = data[start:offset]
            try:
                name = _names[raw_name]
            except KeyError:
                name = _remember(_names, raw_name, raw_name.decode("utf-8"))
            if data[offset] == T_INT:       # over half of all values
                fields[name] = _I64.unpack_from(data, offset + 1)[0]
                offset += 9
            else:
                fields[name], offset = _read_value(data, offset, depth)
        if len(fields) != count:
            raise CodecError("duplicate field name")
        proto = fields.get(F_PROTO)
        if proto.__class__ is str and proto in _writers:
            raise CodecError(f"a {proto} in the symbol-table form")
    if offset != len(data):
        raise CodecError(f"message is {len(data)} bytes, its fields take {offset}")
    out = cls.__new__(cls)
    out._fields = fields
    out._encoded = data
    return out


def _read_value(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    """Decode the value at ``offset``; return ``(value, next_offset)``.

    Nothing here compares an offset with ``len(data)``: a read past the
    end raises, or yields a short slice and an offset past the end, which
    the enclosing message's length check reports.
    """
    tag = data[offset]
    offset += 1
    if tag == T_INT:
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag == T_ADDR:
        end = offset + ADDRESS_SIZE
        raw = data[offset:end]
        try:
            return _addresses[raw], end
        except KeyError:
            return Address.unpack(raw), end
    if tag == T_LIST:
        if depth > MAX_DEPTH:
            raise _too_deep()
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        depth += 1
        items = []
        for _ in range(count):
            if data[offset] == T_INT:
                items.append(_I64.unpack_from(data, offset + 1)[0])
                offset += 9
            else:
                item, offset = _read_value(data, offset, depth)
                items.append(item)
        return items, offset
    if tag == T_BYTES:
        start = offset + 4
        end = start + _U32.unpack_from(data, offset)[0]
        return data[start:end], end
    if tag == T_STR:
        start = offset + 4
        end = start + _U32.unpack_from(data, offset)[0]
        return data[start:end].decode("utf-8"), end
    if tag == T_MSG:
        start = offset + 4
        end = start + _U32.unpack_from(data, offset)[0]
        return _read_message(Message, data[start:end], depth), end
    if tag == T_NONE:
        return None, offset
    if tag == T_BOOL:
        byte = data[offset]
        if byte > 1:
            raise CodecError(f"bool encoded as {byte}")
        return byte == 1, offset + 1
    if tag == T_FLOAT:
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == T_DICT:
        if depth > MAX_DEPTH:
            raise _too_deep()
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        depth += 1
        out: Dict[str, Any] = {}
        for _ in range(count):
            start = offset + 2
            offset = start + ((data[offset] << 8) | data[offset + 1])
            key = data[start:offset].decode("utf-8")
            out[key], offset = _read_value(data, offset, depth)
        if len(out) != count:
            raise CodecError("duplicate dict key")
        return out, offset
    raise CodecError(f"unknown field type tag {tag}")


# ----------------------------------------------------------------------
# Envelope batch codec
# ----------------------------------------------------------------------
# A batch is one wire message carrying several group data envelopes bound
# for the same destination site, plus an optional piggybacked stability
# blob.  Envelopes are stored pre-encoded so packing and unpacking
# never re-walk nested field trees, and so the wire bytes of each
# envelope are exactly what an unbatched send would have produced.

#: Wire protocol tag for a packed envelope batch.
BATCH_PROTO = "g.batch"


def pack_batch(
    gid: Address,
    envelopes: List[Message],
    stab: Optional[Stab] = None,
) -> Message:
    """Pack ``envelopes`` (in order) into one ``g.batch`` wire message.

    ``stab`` is the stability piggyback riding alongside the data
    (present only when the sender has something to share), in the same
    blob an unbatched data envelope carries (``fields.encode_stab``).
    """
    if not envelopes:
        raise CodecError("cannot pack an empty envelope batch")
    msg = Message(
        _proto=BATCH_PROTO,
        gid=gid,
        envs=[env.encode() for env in envelopes],
    )
    if stab is not None:
        msg["stab"] = encode_stab(*stab)
    return msg


def unpack_batch(msg: Message) -> "tuple[List[Message], Optional[Stab]]":
    """Inverse of :func:`pack_batch`; raises :class:`CodecError` only.

    Returns ``(envelopes, stab)`` with envelope order preserved;
    ``stab`` is ``None`` when nothing was piggybacked.  The batch's row
    (``msg/wire.py``) is its one form, so its writer refuses any other
    shape; what the envelopes say is for their readers to check.
    """
    if msg.get(F_PROTO) != BATCH_PROTO:
        raise CodecError(f"not a batch message: {msg!r}")
    msg.encode()
    return ([Message.decode(raw) for raw in msg["envs"]],
            decode_stab(msg["stab"]) if "stab" in msg else None)

