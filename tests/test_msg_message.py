"""Unit tests for the field-structured message codec (repro.msg.message)."""

import collections
import enum
import struct

import pytest

from repro.errors import CodecError
from repro.msg import (
    Message,
    make_group_address,
    make_process_address,
)
from repro.msg.message import MAX_DEPTH


def test_set_get_delete_fields():
    msg = Message()
    msg["query"] = "color=red"
    assert msg["query"] == "color=red"
    assert "query" in msg
    del msg["query"]
    assert "query" not in msg
    with pytest.raises(KeyError):
        _ = msg["query"]


def test_constructor_kwargs():
    msg = Message(a=1, b="two")
    assert msg["a"] == 1 and msg["b"] == "two"


def test_get_with_default():
    msg = Message()
    assert msg.get("missing", 42) == 42


def test_every_field_type_roundtrips():
    addr = make_process_address(1, 2, 3, entry=4)
    inner = Message(deep="value")
    msg = Message()
    msg["none"] = None
    msg["bool"] = True
    msg["int"] = -(2**40)
    msg["float"] = 3.14159
    msg["str"] = "héllo wörld"
    msg["bytes"] = b"\x00\x01\xff"
    msg["addr"] = addr
    msg["nested"] = inner
    msg["list"] = [1, "two", None, addr, [3.0, False]]
    msg["dict"] = {"k1": 1, "k2": [b"x"], "k3": {"n": None}}
    decoded = Message.decode(msg.encode())
    assert decoded["none"] is None
    assert decoded["bool"] is True
    assert decoded["int"] == -(2**40)
    assert decoded["float"] == pytest.approx(3.14159)
    assert decoded["str"] == "héllo wörld"
    assert decoded["bytes"] == b"\x00\x01\xff"
    assert decoded["addr"] == addr
    assert decoded["nested"]["deep"] == "value"
    assert decoded["list"] == [1, "two", None, addr, [3.0, False]]
    assert decoded["dict"] == {"k1": 1, "k2": [b"x"], "k3": {"n": None}}


def test_tuple_decodes_as_list():
    msg = Message(t=(1, 2, 3))
    assert Message.decode(msg.encode())["t"] == [1, 2, 3]


def test_huge_int_rejected():
    msg = Message(n=2**70)
    with pytest.raises(CodecError):
        msg.encode()


def test_unencodable_type_rejected():
    msg = Message(obj=object())
    with pytest.raises(CodecError):
        msg.encode()


def test_non_string_dict_key_rejected():
    msg = Message(d={1: "x"})
    with pytest.raises(CodecError):
        msg.encode()


def test_decode_rejects_garbage():
    with pytest.raises(CodecError):
        Message.decode(b"\x00\x01\x02")
    with pytest.raises(CodecError):
        Message.decode(b"")


def test_decode_rejects_truncation():
    raw = Message(payload=b"x" * 100).encode()
    with pytest.raises(CodecError):
        Message.decode(raw[:-5])


def test_decode_rejects_trailing_bytes():
    raw = Message(a=1).encode()
    with pytest.raises(CodecError):
        Message.decode(raw + b"\x00")


def test_size_bytes_tracks_mutation():
    msg = Message(a=1)
    size_before = msg.size_bytes
    msg["b"] = "x" * 100
    assert msg.size_bytes > size_before + 100


def test_copy_is_independent():
    msg = Message(a=1)
    dup = msg.copy()
    dup["b"] = 2
    assert "b" not in msg


def test_system_accessors():
    gid = make_group_address(1, 1)
    sender = make_process_address(2, 0, 7)
    msg = Message()
    msg["_sender"] = sender
    msg["_dests"] = [gid]
    msg["_session"] = 99
    msg["_entry"] = 5
    msg["_group"] = gid
    msg["_view_id"] = 3
    assert msg.sender == sender
    assert msg.dests == [gid]
    assert msg.session == 99
    assert msg.entry == 5
    assert msg.group == gid
    assert msg.view_id == 3


def test_empty_field_name_rejected():
    msg = Message()
    with pytest.raises(CodecError):
        msg[""] = 1


# ----------------------------------------------------------------------
# The decoder's contract: CodecError and nothing else; a nesting cap;
# only canonical input (the input bytes become the cached encoding).
# ----------------------------------------------------------------------
def _field(name: bytes, value: bytes) -> bytes:
    return struct.pack(">H", len(name)) + name + value


def _wire(*fields: bytes) -> bytes:
    return struct.pack(">HH", 0x49D2, len(fields)) + b"".join(fields)


_INT_1 = b"\x02" + struct.pack(">q", 1)


@pytest.mark.parametrize("raw", [
    _wire(_field(b"\xff\xfe", _INT_1)),                          # field name
    _wire(_field(b"s", b"\x04\x00\x00\x00\x02\xc3\x28")),        # str value
    _wire(_field(b"d", b"\x09\x00\x00\x00\x01\x00\x01\xff" + _INT_1)),  # dict key
], ids=["name", "str", "dict-key"])
def test_invalid_utf8_is_a_codec_error(raw):
    with pytest.raises(CodecError):
        Message.decode(raw)


def test_deep_nesting_is_a_codec_error_not_a_recursion_error():
    nested = b"\x08\x00\x00\x00\x01" * 5000 + b"\x00"
    with pytest.raises(CodecError):
        Message.decode(_wire(_field(b"deep", nested)))


def test_nesting_cap_is_the_same_on_both_sides():
    def lists(levels):
        value = None
        for _ in range(levels):
            value = [value]
        return value

    deepest = Message(v=lists(MAX_DEPTH - 1))     # the message is level 1
    assert Message.decode(deepest.encode())["v"] == lists(MAX_DEPTH - 1)
    with pytest.raises(CodecError):
        Message(v=lists(MAX_DEPTH)).encode()
    one_too_many = b"\x08\x00\x00\x00\x01" * MAX_DEPTH + b"\x00"
    with pytest.raises(CodecError):
        Message.decode(_wire(_field(b"v", one_too_many)))

    def messages(levels):
        msg = Message(x=1)
        for _ in range(levels - 1):
            msg = Message(m=msg)
        return msg

    raw = messages(MAX_DEPTH).encode()
    assert Message.decode(raw).encode() is raw
    with pytest.raises(CodecError):
        messages(MAX_DEPTH + 1).encode()


@pytest.mark.parametrize("raw", [
    _wire(_field(b"a", _INT_1), _field(b"a", _INT_1)),           # field twice
    _wire(_field(b"d", b"\x09\x00\x00\x00\x02"
                 + _field(b"k", _INT_1) + _field(b"k", _INT_1))),  # key twice
    _wire(_field(b"b", b"\x01\x02")),                            # bool byte 2
    _wire(_field(b"a", b"\x06\x04\x00\x01\x00\x00\x01\x00\x00")),  # flag bit 2
    _wire(_field(b"a", b"\x06\x00\x00\x01\x00\x00\x01\x00\x07")),  # reserved byte
], ids=["field-twice", "key-twice", "bool-2", "address-flags", "address-reserved"])
def test_non_canonical_input_is_rejected(raw):
    """Each of these used to decode, and then cache bytes that a fresh
    ``encode()`` of the same fields would not produce."""
    with pytest.raises(CodecError):
        Message.decode(raw)


def test_decode_seeds_the_cache_of_every_nested_message():
    outer = Message(m=Message(inner=Message(x=1), y=b"z"), n=2)
    raw = outer.encode()
    decoded = Message.decode(raw)
    assert decoded.encode() is raw
    assert decoded["m"].encode() == outer["m"].encode()
    assert decoded["m"]["inner"]._encoded == Message(x=1).encode()


def test_subclass_values_take_their_base_type_encoding():
    class Kind(enum.IntEnum):
        DATA = 7

    msg = Message(k=Kind.DATA, t=(1, "a"), b=bytearray(b"xy"),
                  d=collections.OrderedDict(z=1, a=2))
    plain = Message(k=7, t=[1, "a"], b=b"xy", d={"z": 1, "a": 2})
    assert msg.encode() == plain.encode()


def test_encode_reports_what_does_not_fit_as_codec_error():
    with pytest.raises(CodecError):
        Message(v=[1, 2**63]).encode()
    with pytest.raises(CodecError):
        Message(**{f"f{i}": None for i in range(0x10000)}).encode()
