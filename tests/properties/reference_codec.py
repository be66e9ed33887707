"""The recursive message codec that ``repro.msg`` used before the
one-pass codec, kept as the reference the differential tests compare
against.  Same wire format (``repro/msg/fields.py``), written the obvious
way: one ``bytes`` object per value, one bounds check per read.

It predates the decoder's error contract, so it accepts some input the
library now rejects (duplicate names, bool bytes above 1, any nesting
depth); on everything :meth:`Message.encode` produces the two agree.
"""

from __future__ import annotations

import struct
from typing import Any, Tuple

from repro.errors import CodecError
from repro.msg.address import ADDRESS_SIZE, Address
from repro.msg.fields import (T_ADDR, T_BOOL, T_BYTES, T_DICT, T_FLOAT, T_INT,
                              T_LIST, T_MSG, T_NONE, T_STR)
from repro.msg.message import Message

_MAGIC = 0x49D2
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def encode_message(msg: Message) -> bytes:
    parts = [_U16.pack(_MAGIC), _U16.pack(len(msg))]
    for name, value in msg.fields().items():
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise CodecError(f"field name too long: {name[:32]!r}...")
        parts.append(_U16.pack(len(raw_name)))
        parts.append(raw_name)
        parts.append(encode_value(value))
    return b"".join(parts)


def decode_message(data: bytes) -> Message:
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
    count, offset = decode_uvarint(data, 0)
    out: "dict[int, int]" = {}
    site = 0
    for _ in range(count):
        delta, offset = decode_uvarint(data, offset)
        top, offset = decode_uvarint(data, offset)
        site += delta
        out[site] = top
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after "
                         "have-vector")
    return out
