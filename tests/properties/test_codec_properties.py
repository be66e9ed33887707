"""Property-based tests: codec round-trips (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msg import Address, Message
from repro.msg.fields import (
    decode_have_vector,
    decode_stab,
    encode_have_vector,
    encode_stab,
)
from repro.net.packet import (
    KIND_ACK,
    KIND_DATA,
    KIND_RAW,
    Frame,
    decode_datagram,
    decode_frame,
    encode_datagram,
    encode_frame,
)

addresses = st.builds(
    Address,
    site=st.integers(0, 0xFFFF),
    incarnation=st.integers(0, 0xFF),
    local_id=st.integers(0, 0xFFFF),
    entry=st.integers(0, 0xFF),
    is_group=st.booleans(),
    is_null=st.booleans(),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),  # NaN != NaN would break equality checking
    st.text(max_size=64),
    st.binary(max_size=64),
    addresses,
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=16), children, max_size=4),
    ),
    max_leaves=12,
)

field_names = st.text(min_size=1, max_size=32)


@given(addresses)
def test_address_pack_roundtrip(addr):
    assert Address.unpack(addr.pack()) == addr


@given(st.dictionaries(field_names, values, max_size=8))
@settings(max_examples=200)
def test_message_encode_roundtrip(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    decoded = Message.decode(msg.encode())
    assert decoded.fields() == _normalize(msg.fields())


@given(st.dictionaries(field_names, values, max_size=6))
def test_encoding_is_deterministic(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    assert msg.encode() == msg.encode()


@given(st.dictionaries(field_names, values, max_size=6))
def test_size_bytes_matches_encoding(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    assert msg.size_bytes == len(msg.encode())


# ----------------------------------------------------------------------
# Kernel envelope kinds (tree dissemination / aggregated stability /
# batched flush reports): built exactly as the kernel builds them, they
# must survive encode/decode with every nested codec intact.
# ----------------------------------------------------------------------

inner_fields = st.dictionaries(
    st.text(min_size=1, max_size=16), scalars, max_size=6)

have_vectors = st.dictionaries(
    st.integers(0, 10_000), st.integers(0, 2**32), max_size=16)

floors = st.tuples(st.integers(0, 2**31), st.integers(0, 2**31))


def _message(fields):
    msg = Message()
    for name, value in fields.items():
        msg[name] = value
    return msg


@given(have_vectors)
def test_have_vector_roundtrip(have):
    assert decode_have_vector(encode_have_vector(have)) == have


@given(gid=addresses, view=st.integers(0, 2**31), root=st.integers(0, 0xFFFF),
       tid=st.integers(1, 2**31), fields=inner_fields)
def test_tree_wrapper_roundtrip(gid, view, root, tid, fields):
    """``g.tr``: relay wrapper around an encoded inner envelope."""
    inner = _message(fields)
    wrapper = Message(_proto="g.tr", gid=gid, view=view, root=root,
                      tid=tid, inner=inner.encode())
    decoded = Message.decode(wrapper.encode())
    assert decoded["_proto"] == "g.tr"
    assert decoded["gid"] == gid
    assert (decoded["view"], decoded["root"], decoded["tid"]) == \
        (view, root, tid)
    relayed = Message.decode(bytes(decoded["inner"]))
    assert relayed.fields() == _normalize(inner.fields())


@given(gid=addresses, view=st.integers(0, 2**31), have=have_vectors,
       n=st.integers(1, 0xFFFF), floor=floors)
def test_stability_up_roundtrip(gid, view, have, n, floor):
    """``g.stab.up``: a subtree's blob and the sites it covers."""
    note = Message(_proto="g.stab.up", gid=gid,
                   stab=encode_stab(view, floor, have), n=n)
    decoded = Message.decode(note.encode())
    assert decoded["_proto"] == "g.stab.up"
    assert decode_stab(bytes(decoded["stab"])) == (view, floor, have)
    assert int(decoded["n"]) == n


@given(gid=addresses, view=st.integers(0, 2**31), stable=have_vectors,
       floor=floors)
def test_stability_dn_roundtrip(gid, view, stable, floor):
    """``g.stab.dn``: the stable cut, the same blob and nothing else."""
    note = Message(_proto="g.stab.dn", gid=gid,
                   stab=encode_stab(view, floor, stable))
    decoded = Message.decode(note.encode())
    assert decoded["_proto"] == "g.stab.dn"
    assert decode_stab(bytes(decoded["stab"])) == (view, floor, stable)


# ----------------------------------------------------------------------
# Binary frame codec (the asyncio/UDP driver's wire format).
# ----------------------------------------------------------------------

frames = st.builds(
    Frame,
    kind=st.sampled_from([KIND_DATA, KIND_ACK, KIND_RAW]),
    src_site=st.integers(0, 0xFFFF),
    dst_site=st.integers(0, 0xFFFF),
    epoch=st.integers(0, 0xFF),      # the two incarnation bytes share a u16
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(-(2**31), 2**31 - 1),
    ack_epoch=st.integers(0, 0xFF),
    msg_id=st.integers(0, 2**32 - 1),
    frag_index=st.integers(0, 0xFFFF),
    frag_total=st.integers(1, 0xFFFF),
    payload=st.binary(max_size=256),
    syn=st.booleans(),
)


def _same_frame(a: Frame, b: Frame) -> bool:
    return (a.kind == b.kind and a.src_site == b.src_site
            and a.dst_site == b.dst_site and a.epoch == b.epoch
            and a.seq == b.seq and a.ack == b.ack and a.msg_id == b.msg_id
            and a.frag_index == b.frag_index and a.frag_total == b.frag_total
            and a.payload == b.payload
            and a.ack_epoch == b.ack_epoch and a.syn == b.syn)


@given(frames)
def test_frame_wire_roundtrip(frame):
    buf = encode_frame(frame)
    decoded, offset = decode_frame(buf)
    assert offset == len(buf)
    assert _same_frame(decoded, frame)


@given(st.lists(frames, min_size=1, max_size=8))
@settings(max_examples=50)
def test_datagram_roundtrip(bundle):
    decoded = decode_datagram(encode_datagram(bundle))
    assert len(decoded) == len(bundle)
    for got, sent in zip(decoded, bundle):
        assert _same_frame(got, sent)


def _normalize(fields):
    """Tuples decode as lists; normalize expectations accordingly."""

    def norm(value):
        if isinstance(value, tuple):
            return [norm(v) for v in value]
        if isinstance(value, list):
            return [norm(v) for v in value]
        if isinstance(value, dict):
            return {k: norm(v) for k, v in value.items()}
        if isinstance(value, bytearray):
            return bytes(value)
        return value

    return {k: norm(v) for k, v in fields.items()}
