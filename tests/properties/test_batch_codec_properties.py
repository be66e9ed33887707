"""Property-based tests: envelope batch codec + stability piggyback.

The wire-level guarantees the delivery pipeline's batching relies on:

* the ``stab`` blob (view id, delivery floor, have-vector) round-trips,
  and its decoder accepts an encoding and nothing shorter or longer;
* a uvarint, a have-vector and a ``stab`` blob each have one spelling:
  what the decoders accept re-encodes byte for byte;
* ``pack_batch``/``unpack_batch`` round-trip arbitrary envelope lists and
  piggybacked blobs through the real binary codec;
* splitting an envelope stream into consecutive batches (what the
  coalescing buffer does) never reorders envelopes of the same sender —
  the FIFO property the causal layer depends on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.msg import (
    Address,
    Message,
    decode_have_vector,
    encode_have_vector,
    pack_batch,
    unpack_batch,
)
from repro.msg.fields import (decode_stab, decode_uvarint, encode_stab,
                              encode_uvarint)

addresses = st.builds(
    Address,
    site=st.integers(0, 0xFFFF),
    incarnation=st.integers(0, 0xFF),
    local_id=st.integers(0, 0xFFFF),
    entry=st.integers(0, 0xFF),
    is_group=st.booleans(),
    is_null=st.booleans(),
)

have_vectors = st.dictionaries(
    st.integers(0, 2**32), st.integers(0, 2**40), max_size=16
)

#: ``(view id, delivery floor, have-vector)``; floor ``(0, 0)`` is "none".
stabs = st.tuples(
    st.integers(0, 2**31),
    st.one_of(st.just((0, 0)),
              st.tuples(st.integers(0, 2**40), st.integers(0, 0xFFFF))),
    have_vectors,
)


def _envelope(sender_site: int, gseq: int, payload: bytes,
              view: int = 1) -> Message:
    """A realistic ``g.cb`` data envelope."""
    return Message(
        _proto="g.cb",
        gid=Address(site=0, incarnation=0, local_id=9, is_group=True),
        view=view,
        origin=sender_site,
        gseq=gseq,
        m=Message(payload=payload),
        entry=16,
        cb_sender=Address(site=sender_site, incarnation=0, local_id=1),
        cb_seq=gseq,
        cb_ctx=b"\x00\x00",                 # a chain head, empty
    )


envelope_specs = st.lists(
    st.tuples(st.integers(0, 7),           # sender site
              st.binary(max_size=64)),     # payload
    min_size=1, max_size=24,
)


def _build_stream(specs):
    """Turn (sender, payload) specs into envelopes with per-sender gseqs."""
    counters = {}
    stream = []
    for sender, payload in specs:
        counters[sender] = counters.get(sender, 0) + 1
        stream.append(_envelope(sender, counters[sender], payload))
    return stream


# ----------------------------------------------------------------------
# Have-vector codec
# ----------------------------------------------------------------------
@given(have_vectors)
def test_have_vector_roundtrip(have):
    assert decode_have_vector(encode_have_vector(have)) == have


@given(have_vectors)
def test_have_vector_encoding_is_compact_and_deterministic(have):
    encoded = encode_have_vector(have)
    assert encoded == encode_have_vector(dict(reversed(list(have.items()))))
    # Worst case ~20 bytes per entry (two maximal varints); typical far less.
    assert len(encoded) <= 10 + 20 * len(have)


# ----------------------------------------------------------------------
# Stability blob codec
# ----------------------------------------------------------------------
@given(stabs)
def test_stab_roundtrip(stab):
    blob = encode_stab(*stab)
    assert decode_stab(blob) == stab
    # The header is three uvarints; the rest is the have-vector's form.
    assert blob.endswith(encode_have_vector(stab[2]))


@given(stabs, st.integers(0, 255))
def test_stab_decoder_accepts_an_encoding_and_nothing_else(stab, extra):
    """Every proper prefix and every one-byte extension is a
    ``CodecError`` — no other exception, and never a value."""
    blob = encode_stab(*stab)
    for cut in range(len(blob)):
        with pytest.raises(CodecError):
            decode_stab(blob[:cut])
    with pytest.raises(CodecError):
        decode_stab(blob + bytes([extra]))


def test_stab_encoder_refuses_negative_header():
    for stab in ((-1, (0, 0), {}), (1, (-1, 0), {}), (1, (0, -1), {})):
        with pytest.raises(CodecError):
            encode_stab(*stab)


# ----------------------------------------------------------------------
# One spelling per uvarint, have-vector and stab blob
# ----------------------------------------------------------------------
def test_uvarint_refuses_an_overlong_form():
    assert decode_uvarint(b"\x85\x01", 0) == (133, 2)
    with pytest.raises(CodecError):
        decode_uvarint(b"\x85\x00", 0)           # 5, one byte too long


def test_uvarint_refuses_64_bits_or_more():
    assert decode_uvarint(encode_uvarint(2**64 - 1), 0) == (2**64 - 1, 10)
    for raw in (b"\xff" * 9 + b"\x02", b"\x80" * 9 + b"\x7f",
                b"\x80" * 10 + b"\x01"):
        with pytest.raises(CodecError):
            decode_uvarint(raw, 0)


def test_stab_refuses_an_overlong_uvarint():
    assert decode_stab(bytes([1, 1, 0, 0])) == (1, (1, 0), {})
    with pytest.raises(CodecError):
        decode_stab(bytes([1, 0x81, 0, 0, 0]))     # the floor's 1, overlong


def test_have_vector_refuses_a_top_of_64_bits():
    assert decode_have_vector(bytes([1, 0]) + encode_uvarint(2**64 - 1)) == {
        0: 2**64 - 1}
    with pytest.raises(CodecError):
        decode_have_vector(bytes([1, 0]) + b"\xff" * 9 + b"\x02")


def test_have_vector_refuses_a_repeated_site():
    assert decode_have_vector(bytes([2, 1, 5, 1, 7])) == {1: 5, 2: 7}
    with pytest.raises(CodecError):
        decode_have_vector(bytes([2, 1, 5, 0, 7]))  # site 1 again


@st.composite
def _uvarint_runs(draw):
    """A have-vector's run (a count, then site delta / top pairs),
    behind a stab blob's three header values or none, with a value or
    two spelt a byte too long."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                          max_size=5))
    numbers = draw(st.sampled_from([[], [1, 0, 0]])) + [len(pairs)] + [
        n for pair in pairs for n in pair]
    overlong = draw(st.sets(st.integers(0, len(numbers) - 1), max_size=2))
    out = bytearray()
    for at, value in enumerate(numbers):
        raw = bytearray(encode_uvarint(value))
        if at in overlong:
            raw[-1] |= 0x80
            raw.append(0)
        out += raw
    return bytes(out)


@given(st.one_of(st.binary(max_size=24), _uvarint_runs()))
@settings(max_examples=500)
def test_what_the_decoders_accept_re_encodes_byte_for_byte(data):
    try:
        have = decode_have_vector(data)
    except CodecError:
        pass
    else:
        assert encode_have_vector(have) == data
    try:
        stab = decode_stab(data)
    except CodecError:
        pass
    else:
        assert encode_stab(*stab) == data


# ----------------------------------------------------------------------
# Batch codec
# ----------------------------------------------------------------------
@given(envelope_specs, st.one_of(st.none(), stabs))
@settings(max_examples=200)
def test_batch_roundtrip(specs, stab):
    stream = _build_stream(specs)
    gid = stream[0]["gid"]
    batch = pack_batch(gid, stream, stab)
    # Through the real wire codec, as the transport would carry it.
    decoded = Message.decode(batch.encode())
    envelopes, got_stab = unpack_batch(decoded)
    assert len(envelopes) == len(stream)
    for original, copy in zip(stream, envelopes):
        assert copy.encode() == original.encode()
    assert got_stab == stab


@given(envelope_specs)
def test_batch_wire_bytes_equal_unbatched_envelopes(specs):
    """Each packed envelope's bytes are exactly its unbatched encoding."""
    stream = _build_stream(specs)
    batch = pack_batch(stream[0]["gid"], stream)
    assert [bytes(raw) for raw in batch["envs"]] == \
        [env.encode() for env in stream]


@given(envelope_specs, st.data())
@settings(max_examples=200)
def test_batching_never_reorders_same_sender_envelopes(specs, data):
    """Any consecutive split into batches preserves per-sender FIFO.

    The coalescing buffer appends in send order and flushes whole
    prefixes, so the receive path (unpack batches in arrival order,
    process envelopes in pack order) must observe every sender's
    envelopes in gseq order.
    """
    stream = _build_stream(specs)
    gid = stream[0]["gid"]
    # Carve the stream into arbitrary consecutive batches.
    cuts = sorted(data.draw(st.sets(
        st.integers(1, len(stream)), max_size=len(stream))))
    batches, start = [], 0
    for cut in cuts + [len(stream)]:
        if cut > start:
            batches.append(pack_batch(gid, stream[start:cut]))
            start = cut
    received = []
    for batch in batches:
        envelopes, _ = unpack_batch(Message.decode(batch.encode()))
        received.extend(envelopes)
    assert len(received) == len(stream)
    per_sender = {}
    for env in received:
        per_sender.setdefault(env["origin"], []).append(env["gseq"])
    for sender, gseqs in per_sender.items():
        assert gseqs == sorted(gseqs), f"sender {sender} reordered"
