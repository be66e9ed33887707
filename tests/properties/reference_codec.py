"""The recursive message codec that ``repro.msg`` used before the
one-pass codec, kept as the reference the differential tests compare
against.  Same wire format (``repro/msg/fields.py``), written the obvious
way: one ``bytes`` object per value, one bounds check per read.

The symbol-table half predates the decoder's error contract, so it
accepts some input the library now rejects (duplicate names, bool bytes
above 1, any nesting depth); on everything :meth:`Message.encode`
produces the two agree.  The positional half (a declared protocol's
one form) is written from the rows of ``msg/wire.py`` as they read, one
field at a time, and is as strict as the format; :func:`read_record`
reads a decoded message to its record the same way.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.core.kernel import PROTOCOLS
from repro.errors import CodecError
from repro.msg.address import ADDRESS_SIZE, Address
from repro.msg.fields import (T_ADDR, T_BOOL, T_BYTES, T_DICT, T_FLOAT, T_INT,
                              T_LIST, T_MSG, T_NONE, T_STR)
from repro.msg.message import Message
from repro.msg.wire import STR

_MAGIC = 0x49D2
_POSITIONAL = 0xA7
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def encode_message(msg: Message) -> bytes:
    """A declared protocol's message positionally, any other one as a
    symbol table."""
    if type(msg.get("_proto")) is str and msg["_proto"] in PROTOCOLS:
        return encode_positional(msg)
    return encode_table(msg)


def decode_message(data: bytes) -> Message:
    if data[:1] == bytes([_POSITIONAL]):
        return decode_positional(data)
    return decode_table(data)


def encode_table(msg: Message) -> bytes:
    parts = [_U16.pack(_MAGIC), _U16.pack(len(msg))]
    for name, value in msg.fields().items():
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise CodecError(f"field name too long: {name[:32]!r}...")
        parts.append(_U16.pack(len(raw_name)))
        parts.append(raw_name)
        parts.append(encode_value(value))
    return b"".join(parts)


def decode_table(data: bytes) -> Message:
    if len(data) < 4:
        raise CodecError("message too short for header")
    magic = _U16.unpack_from(data, 0)[0]
    if magic != _MAGIC:
        raise CodecError(f"bad message magic {magic:#x}")
    count = _U16.unpack_from(data, 2)[0]
    offset = 4
    out = Message()
    for _ in range(count):
        if offset + 2 > len(data):
            raise CodecError("truncated field name length")
        name_len = _U16.unpack_from(data, offset)[0]
        offset += 2
        if offset + name_len > len(data):
            raise CodecError("truncated field name")
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        value, offset = decode_value(data, offset)
        out[name] = value
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after message")
    return out


def encode_value(value: Any) -> bytes:
    """Encode one field value, including its leading type tag."""
    if value is None:
        return bytes([T_NONE])
    if isinstance(value, bool):  # must precede int: bool is an int subtype
        return bytes([T_BOOL, 1 if value else 0])
    if isinstance(value, int):
        try:
            return bytes([T_INT]) + _I64.pack(value)
        except struct.error as err:
            raise CodecError(f"integer {value} exceeds 64 bits") from err
    if isinstance(value, float):
        return bytes([T_FLOAT]) + _F64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([T_STR]) + _U32.pack(len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        raw = bytes(value)
        return bytes([T_BYTES]) + _U32.pack(len(raw)) + raw
    if isinstance(value, Address):
        return bytes([T_ADDR]) + value.pack()
    if isinstance(value, Message):
        raw = encode_message(value)
        return bytes([T_MSG]) + _U32.pack(len(raw)) + raw
    if isinstance(value, (list, tuple)):
        parts = [bytes([T_LIST]), _U32.pack(len(value))]
        parts.extend(encode_value(item) for item in value)
        return b"".join(parts)
    if isinstance(value, dict):
        parts = [bytes([T_DICT]), _U32.pack(len(value))]
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {key!r}")
            raw_key = key.encode("utf-8")
            if len(raw_key) > 0xFFFF:
                raise CodecError(f"dict key too long: {key[:32]!r}...")
            parts.append(_U16.pack(len(raw_key)))
            parts.append(raw_key)
            parts.append(encode_value(item))
        return b"".join(parts)
    raise CodecError(f"unencodable field value of type {type(value).__name__}")


def decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value at ``offset``; return (value, next_offset)."""
    if offset >= len(data):
        raise CodecError("truncated value: missing type tag")
    tag = data[offset]
    offset += 1
    if tag == T_NONE:
        return None, offset
    if tag == T_BOOL:
        _need(data, offset, 1)
        return data[offset] != 0, offset + 1
    if tag == T_INT:
        _need(data, offset, 8)
        return _I64.unpack_from(data, offset)[0], offset + 8
    if tag == T_FLOAT:
        _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], offset + 8
    if tag == T_STR:
        raw, offset = _read_block(data, offset)
        return raw.decode("utf-8"), offset
    if tag == T_BYTES:
        return _read_block(data, offset)
    if tag == T_ADDR:
        _need(data, offset, ADDRESS_SIZE)
        addr = Address.unpack(data[offset:offset + ADDRESS_SIZE])
        return addr, offset + ADDRESS_SIZE
    if tag == T_MSG:
        raw, offset = _read_block(data, offset)
        return decode_message(raw), offset
    if tag == T_LIST:
        _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == T_DICT:
        _need(data, offset, 4)
        count = _U32.unpack_from(data, offset)[0]
        offset += 4
        out = {}
        for _ in range(count):
            _need(data, offset, 2)
            key_len = _U16.unpack_from(data, offset)[0]
            offset += 2
            _need(data, offset, key_len)
            key = data[offset:offset + key_len].decode("utf-8")
            offset += key_len
            out[key], offset = decode_value(data, offset)
        return out, offset
    raise CodecError(f"unknown field type tag {tag}")


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise CodecError(
            f"truncated value: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )


def _read_block(data: bytes, offset: int) -> Tuple[bytes, int]:
    _need(data, offset, 4)
    length = _U32.unpack_from(data, offset)[0]
    offset += 4
    _need(data, offset, length)
    return data[offset:offset + length], offset + length


# ----------------------------------------------------------------------
# Have-vector codec, one function call per varint
# ----------------------------------------------------------------------
def encode_uvarint(n: int) -> bytes:
    if n < 0:
        raise CodecError(f"uvarint cannot encode negative value {n}")
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated uvarint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("uvarint exceeds 64 bits")


def encode_have_vector(have: "dict[int, int]") -> bytes:
    parts = [encode_uvarint(len(have))]
    prev_site = 0
    for site in sorted(have):
        if site < 0 or have[site] < 0:
            raise CodecError(f"have-vector entries must be >= 0: "
                             f"{site}:{have[site]}")
        parts.append(encode_uvarint(site - prev_site))
        parts.append(encode_uvarint(have[site]))
        prev_site = site
    return b"".join(parts)


def decode_have_vector(data: bytes) -> "dict[int, int]":
    """Only the form ``encode_have_vector`` writes: canonical uvarints,
    sites strictly ascending."""
    count, offset = _canonical_uvarint(data, 0)
    out: "dict[int, int]" = {}
    site = 0
    for _ in range(count):
        delta, offset = _canonical_uvarint(data, offset)
        top, offset = _canonical_uvarint(data, offset)
        if out and not delta:
            raise CodecError(f"site {site} repeated")
        site += delta
        out[site] = top
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after "
                         "have-vector")
    return out


# ----------------------------------------------------------------------
# The positional form, field by field from the row
# ----------------------------------------------------------------------
def _layout(proto: str):
    """``proto``'s row and the names of its optional fields."""
    row = PROTOCOLS[proto].fields
    return row, [name for name, kind in row if kind.name == "optional"]


def encode_positional(msg: Message) -> bytes:
    """Magic, index, then the fields as :func:`encode_fields` writes
    them."""
    proto = msg["_proto"]
    fields = {name: msg[name] for name in msg if name != "_proto"}
    head = bytes([_POSITIONAL, list(PROTOCOLS).index(proto)])
    return head + encode_fields(proto, PROTOCOLS[proto].fields, fields)


def encode_fields(what: str, row, values: dict) -> bytes:
    """A bitmap byte if the row has optional fields, then every field
    there in row order."""
    optional = [name for name, kind in row if kind.name == "optional"]
    if set(values) - {name for name, _ in row}:
        raise CodecError(f"{what}: a field outside its row")
    bitmap, body = 0, b""
    for name, kind in row:
        if kind.name == "optional":
            if name not in values:
                continue
            bitmap |= 1 << optional.index(name)
            kind = kind.of
        elif name not in values:
            raise CodecError(f"{what}: no {name}")
        body += encode_item(kind, values[name])
    return (bytes([bitmap]) if optional else b"") + body


def encode_item(kind, value: Any) -> bytes:
    name = kind.name
    if name in ("uint", "int"):
        if type(value) is not int:
            raise CodecError(f"not an int: {value!r}")
        if name == "int":
            if not -(2**63) <= value < 2**63:
                raise CodecError(f"int {value} exceeds 64 bits")
            value = 2 * value if value >= 0 else -2 * value - 1
        if not 0 <= value < 2**64:
            raise CodecError(f"uint {value} out of range")
        return encode_uvarint(value)
    if name == "float" and type(value) is float:
        return _F64.pack(value)
    if name == "bool" and type(value) is bool:
        return bytes([value])
    if name == "address" and type(value) is Address:
        return value.pack()
    if name == "str" and type(value) is str:
        value = value.encode("utf-8")
        name = "bytes"
    if name in ("bytes", "blob") and type(value) in (bytes, bytearray):
        return encode_uvarint(len(value)) + bytes(value)
    if name == "message" and type(value) is Message:
        raw = encode_message(value)
        return encode_uvarint(len(raw)) + raw
    if name == "any":
        return encode_value(value)
    if name == "nullable":
        return b"\x00" if value is None else b"\x01" + encode_item(kind.of, value)
    if name == "fixed" and type(value) in (list, tuple) \
            and len(value) == len(kind.of):
        return b"".join(encode_item(k, v) for k, v in zip(kind.of, value))
    if name == "list" and type(value) in (list, tuple):
        return encode_uvarint(len(value)) + b"".join(
            encode_item(kind.of, item) for item in value)
    if name == "dict" and type(value) is dict:
        return encode_uvarint(len(value)) + b"".join(
            encode_item(STR, key) + encode_item(kind.of, item)
            for key, item in value.items())
    if name == "record" and type(value) is dict:
        return encode_fields("record", kind.of, value)
    raise CodecError(f"not {name}: {value!r}")


def decode_positional(data: bytes) -> Message:
    _need(data, 0, 2)
    if data[0] != _POSITIONAL or data[1] >= len(PROTOCOLS):
        raise CodecError(f"not a positional message: {data[:2].hex()}")
    proto = list(PROTOCOLS)[data[1]]
    fields, offset = decode_fields(PROTOCOLS[proto].fields, data, 2)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after message")
    return Message(_proto=proto, **fields)


def decode_fields(row, data: bytes, offset: int) -> Tuple[dict, int]:
    optional = [name for name, kind in row if kind.name == "optional"]
    bitmap = 0
    if optional:
        _need(data, offset, 1)
        bitmap = data[offset]
        offset += 1
        if bitmap >> len(optional):
            raise CodecError(f"reserved bitmap bits: {bitmap:#x}")
    out = {}
    for name, kind in row:
        if kind.name == "optional":
            if not bitmap & 1 << optional.index(name):
                continue
            kind = kind.of
        out[name], offset = decode_item(kind, data, offset)
    return out, offset


def _canonical_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    start = offset
    value, offset = decode_uvarint(data, offset)
    if offset - start > 1 and data[offset - 1] == 0:
        raise CodecError("overlong uvarint")
    if value >= 2**64:
        raise CodecError(f"uvarint {value} exceeds 64 bits")
    return value, offset


def _one_byte(data: bytes, offset: int, what: str) -> int:
    _need(data, offset, 1)
    if data[offset] > 1:
        raise CodecError(f"{what} byte {data[offset]}")
    return data[offset]


def decode_item(kind, data: bytes, offset: int) -> Tuple[Any, int]:
    name = kind.name
    if name == "uint":
        return _canonical_uvarint(data, offset)
    if name == "int":
        value, offset = _canonical_uvarint(data, offset)
        return (value // 2 if value % 2 == 0 else -(value + 1) // 2), offset
    if name == "float":
        _need(data, offset, 8)
        return _F64.unpack_from(data, offset)[0], offset + 8
    if name == "bool":
        return _one_byte(data, offset, "bool") == 1, offset + 1
    if name == "address":
        _need(data, offset, ADDRESS_SIZE)
        return (Address.unpack(data[offset:offset + ADDRESS_SIZE]),
                offset + ADDRESS_SIZE)
    if name in ("bytes", "blob", "message", "str"):
        size, offset = _canonical_uvarint(data, offset)
        _need(data, offset, size)
        raw = data[offset:offset + size]
        if name == "message":
            raw = decode_message(raw)
        elif name == "str":
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise CodecError(f"not UTF-8: {err}") from None
        return raw, offset + size
    if name == "any":
        value, end = decode_value(data, offset)
        if encode_value(value) != data[offset:end]:
            raise CodecError("not the value's one encoding")
        return value, end
    if name == "nullable":
        if _one_byte(data, offset, "nullable") == 0:
            return None, offset + 1
        return decode_item(kind.of, data, offset + 1)
    if name == "fixed":
        items = []
        for item_kind in kind.of:
            item, offset = decode_item(item_kind, data, offset)
            items.append(item)
        return items, offset
    if name in ("list", "dict"):
        count, offset = _canonical_uvarint(data, offset)
        items = {} if name == "dict" else []
        for _ in range(count):
            if name == "dict":
                key, offset = decode_item(STR, data, offset)
                if key in items:
                    raise CodecError(f"duplicate dict key {key!r}")
                items[key], offset = decode_item(kind.of, data, offset)
            else:
                item, offset = decode_item(kind.of, data, offset)
                items.append(item)
        return items, offset
    if name == "record":
        return decode_fields(kind.of, data, offset)
    raise CodecError(f"no positional form for {name}")


# ----------------------------------------------------------------------
# The record a row's reader makes of a decoded message, the obvious way
# ----------------------------------------------------------------------
def read_record(msg: Message) -> tuple:
    """The message, then each field of its row as the row's kinds read
    it: a blob through its codec, a ``fixed`` to a tuple, a record to a
    tuple (or its ``make``'s value), a nested message of a table to its
    row's record.  (The row's cross-field rule is not run.)"""
    return (msg, *(read_item(kind, msg.get(name))
                   for name, kind in PROTOCOLS[msg["_proto"]].fields))


def read_item(kind, value: Any) -> Any:
    name = kind.name
    if value is None and name in ("optional", "nullable"):
        return None
    if name in ("optional", "nullable"):
        return read_item(kind.of, value)
    if name == "blob" and callable(kind.of):
        return kind.of(value)
    if name == "blob":                          # a message, encoded
        return read_item(kind.of, decode_message(value))
    if name == "message" and kind.of is not None:
        if value["_proto"] not in kind.of:
            raise CodecError(f"not of {sorted(kind.of)}: {value!r}")
        return read_record(value)
    if name == "fixed":
        return tuple(map(read_item, kind.of, value))
    if name == "list":
        return [read_item(kind.of, item) for item in value]
    if name == "dict":
        return {key: read_item(kind.of, item) for key, item in value.items()}
    if name == "record":
        return tuple(read_item(item, value.get(field))
                     for field, item in kind.of)
    return value
