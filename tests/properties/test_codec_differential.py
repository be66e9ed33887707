"""Differential properties: the one-pass codec against the recursive one.

``reference_codec.py`` is the codec the library used before; both must
produce the same bytes from the same fields and the same fields from the
same bytes, including for the subclass inputs the encoder's dispatch
table does not list.  The declared protocols' positional form is held
to the reference's positional half, written from the rows, both ways.
"""

import collections
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec as reference
from repro.core.kernel import PROTOCOLS
from repro.errors import CodecError
from repro.msg import Message
from repro.msg.fields import decode_have_vector, encode_have_vector
from test_codec_properties import (_message, addresses, field_names,
                                   inner_fields, scalars, values)


class Kind(enum.IntEnum):
    CB = 1
    AB = 2


def _keyed(children):
    return st.dictionaries(st.text(min_size=1, max_size=8), children,
                           max_size=3)


# Values whose type is a subclass of (or a stand-in for) a wire type.
subclassed = st.recursive(
    st.one_of(
        scalars,
        st.sampled_from(list(Kind)),
        st.binary(max_size=16).map(bytearray),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        _keyed(children).map(collections.OrderedDict),
        _keyed(children).map(_message),
    ),
    max_leaves=10,
)


def _same(a, b):
    """Equal values of equal types, field and key order included."""
    if isinstance(a, Message):
        return (isinstance(b, Message) and list(a) == list(b)
                and all(_same(a[name], b[name]) for name in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(_same, a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[key], b[key]) for key in a))
    return type(a) is type(b) and a == b


@given(st.dictionaries(field_names, st.one_of(values, subclassed), max_size=8))
@settings(max_examples=300)
def test_same_bytes_and_same_values_both_ways(fields):
    raw = _message(fields).encode()
    assert raw == reference.encode_message(_message(fields))
    ours = Message.decode(raw)
    assert _same(ours, reference.decode_message(raw))
    assert ours.encode() is raw


@given(st.integers(min_value=2**63) | st.integers(max_value=-(2**63) - 1))
def test_an_int_wider_than_64_bits_is_a_codec_error_on_both(n):
    with pytest.raises(CodecError):
        reference.encode_message(Message(n=n))
    with pytest.raises(CodecError):
        Message(n=n).encode()
    with pytest.raises(CodecError):
        Message(v=[(n,)]).encode()


@given(st.binary(max_size=48))
@settings(max_examples=300)
def test_arbitrary_bytes_decode_alike_or_raise_codec_error(data):
    """The decoder may be stricter than the reference (canonical input
    only), never looser, and never raises anything but CodecError."""
    raw = b"\x49\xd2" + data
    try:
        ours = Message.decode(raw)
    except CodecError:
        return
    assert reference.encode_message(ours) == raw     # NaN-proof equality
    assert reference.encode_message(reference.decode_message(raw)) == raw


@given(st.binary(max_size=24))
@settings(max_examples=300)
def test_have_vector_decoders_agree_on_arbitrary_bytes(data):
    try:
        expected = reference.decode_have_vector(data)
    except CodecError:
        with pytest.raises(CodecError):
            decode_have_vector(data)
        return
    assert decode_have_vector(data) == expected


@given(st.dictionaries(st.integers(0, 2**40), st.integers(0, 2**62), max_size=12))
def test_have_vector_encoders_agree(have):
    assert encode_have_vector(have) == reference.encode_have_vector(have)


# ----------------------------------------------------------------------
# The positional form of the declared protocols
# ----------------------------------------------------------------------
def _of_kind(kind):
    """Values of a row's ``kind``, as a sender holds them."""
    return {
        "uint": lambda: st.integers(0, 2**64 - 1),
        "int": lambda: st.integers(-(2**63), 2**63 - 1),
        "float": lambda: st.floats(allow_nan=False),
        "bool": st.booleans,
        "address": lambda: addresses,
        "bytes": lambda: st.binary(max_size=16),
        "blob": lambda: st.binary(max_size=40),
        "str": lambda: st.text(max_size=8),
        "message": lambda: inner_fields.map(_message),
        "any": lambda: values,
        "nullable": lambda: st.none() | _of_kind(kind.of),
        "fixed": lambda: st.tuples(*map(_of_kind, kind.of)).map(list),
        "list": lambda: st.lists(_of_kind(kind.of), max_size=3),
        "dict": lambda: st.dictionaries(st.text(max_size=4),
                                        _of_kind(kind.of), max_size=2),
        "record": lambda: _fields(kind.of),
    }[kind.name]()


def _fields(row):
    """A dict of ``row``'s fields, each optional one there or not."""
    return st.fixed_dictionaries(
        {name: _of_kind(kind) for name, kind in row
         if kind.name != "optional"},
        optional={name: _of_kind(kind.of) for name, kind in row
                  if kind.name == "optional"})


@st.composite
def declared_messages(draw, protos=tuple(PROTOCOLS)):
    proto = draw(st.sampled_from(protos))
    return Message(_proto=proto, **draw(_fields(PROTOCOLS[proto].fields)))


@given(declared_messages())
@settings(max_examples=500)
def test_positional_same_bytes_and_same_values_both_ways(msg):
    raw = msg.encode()
    assert raw == reference.encode_message(msg)
    ours = Message.decode(raw)
    assert _same(ours, reference.decode_message(raw))
    assert _same(ours, Message.decode(reference.encode_message(ours)))
    assert ours.encode() is raw


@given(st.integers(0, len(PROTOCOLS)), st.binary(max_size=48))
@settings(max_examples=500)
def test_positional_decoders_agree_on_arbitrary_bytes(index, data):
    """Both are exactly as strict as the format: the same input is the
    same message on both, or a CodecError on both."""
    raw = bytes([0xA7, index]) + data
    try:
        expected = reference.decode_message(raw)
    except CodecError:
        with pytest.raises(CodecError):
            Message.decode(raw)
        return
    ours = Message.decode(raw)
    assert _same(ours, expected)
    assert reference.encode_message(ours) == raw


#: The rows whose first field is a group address.
_GID_FIRST = tuple(proto for proto, declared in PROTOCOLS.items()
                   if declared.fields[0][0] == "gid")


@given(declared_messages(_GID_FIRST),
       st.sampled_from(["x", 1.5, None, -1, [], b"x"]))
def test_a_field_outside_the_row_or_of_the_wrong_kind_is_refused(msg, value):
    with pytest.raises(CodecError):
        Message(**msg.fields(), extra=value).encode()
    msg["gid"] = value
    with pytest.raises(CodecError):
        msg.encode()
