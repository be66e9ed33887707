"""Golden wire messages: the codec is held to bytes it did not produce.

``tests/golden/wire_messages.hex`` holds one message per kernel wire tag,
encoded by the codec this repo had before the one-pass one (restated in
the positional form by its positional half).  Every one must decode and
re-encode to the identical bytes; every damaged variant must decode or
raise :class:`CodecError`, nothing else, and whatever does decode must
still re-encode to its input (the decoder keeps the input as the cached
encoding).
"""

from __future__ import annotations

import os
import sys

import pytest

import reference_codec as reference
from repro.core.vectorclock import (
    ChainContext,
    apply_context_delta,
    check_delta_positions,
    parse_context_delta,
)
from repro.core.kernel import PROTOCOLS
from repro.errors import CodecError
from repro.msg import Message, unpack_batch
from repro.msg.fields import decode_stab
from repro.msg.wire import DATA_ROW, place

_HERE = os.path.dirname(os.path.abspath(__file__))


def _load():
    corpus = {}
    with open(os.path.join(_HERE, "golden", "wire_messages.hex")) as fh:
        for line in fh:
            if not line.startswith("#"):
                tag, hexed = line.split()
                corpus[tag] = bytes.fromhex(hexed)
    return corpus


CORPUS = _load()
WIRE_TAGS = ["g.cb", "g.ab", "g.abp", "g.abf", "g.stab.a", "g.batch",
             "g.fl.ok", "g.welcome", "g.fl.commit", "g.fl.data",
             "g.cb/member", "g.ab/member"]


def _rebuilt(value):
    """Equal value with no cached bytes anywhere: forces a real encode."""
    if isinstance(value, Message):
        out = Message()
        for name in value:
            out[name] = _rebuilt(value[name])
        return out
    if isinstance(value, list):
        return [_rebuilt(item) for item in value]
    if isinstance(value, dict):
        return {key: _rebuilt(item) for key, item in value.items()}
    return value


def test_corpus_names_every_wire_tag():
    assert list(CORPUS) == WIRE_TAGS


@pytest.mark.parametrize("tag", WIRE_TAGS)
def test_golden_message_reencodes_to_identical_bytes(tag):
    raw = CORPUS[tag]
    msg = Message.decode(raw)
    assert msg["_proto"] == tag.split("/")[0]
    assert msg.encode() is raw              # the input seeds the cache
    assert _rebuilt(msg).encode() == raw    # and the encoder agrees with it


def test_golden_batch_unpacks_to_its_envelopes():
    envelopes, stab = unpack_batch(Message.decode(CORPUS["g.batch"]))
    assert len(envelopes) >= 2
    assert stab == (3, (0, 0), {0: 3})      # view, no floor, have-vector
    for env in envelopes:
        assert env["_proto"] == "g.cb"
        assert _rebuilt(env).encode() == env.encode()


def test_golden_contexts_parse_as_positions():
    """The ``cb_ctx`` of the golden ``g.cb`` is a delta that names its
    predecessor's one group by position, and two of its members by rank;
    the batch is a chain from its head on, in a view of one member, whose
    two deltas are unit entries (its one count plus one)."""
    delta = parse_context_delta(bytes(Message.decode(CORPUS["g.cb"])["cb_ctx"]))
    assert delta == (False, [], [(0, [(0, 128), (1, 129)])], [])
    envelopes, _ = unpack_batch(Message.decode(CORPUS["g.batch"]))
    chain = ChainContext()
    for env in envelopes:
        delta = parse_context_delta(bytes(env["cb_ctx"]))
        check_delta_positions(chain, delta)
        assert delta.full or delta.moved == [(0, None)]
        apply_context_delta(chain, delta, {})
    assert chain.entries() == [(envelopes[0]["gid"].pack(), 3, [2])]


@pytest.mark.parametrize("proto", ["g.cb", "g.ab"])
def test_golden_member_envelope_names_its_caller_once(proto):
    """A member's data envelope: the caller is its ``cb_sender`` /
    ``ab_sender``, its session the envelope's, and the user message is
    the application's fields alone; the record holds the session at its
    declared place."""
    env = Message.decode(CORPUS[proto + "/member"])
    before = Message.decode(CORPUS[proto])["m"]
    assert env["session"] == before["_session"]
    assert env[proto[2:] + "_sender"] == before["_sender"]
    assert list(env["m"]) == ["n", "p"]
    record = PROTOCOLS[proto].read(env)
    assert record[place(DATA_ROW, "session")] == before["_session"]
    assert len(CORPUS[proto]) - len(CORPUS[proto + "/member"]) == 55


def test_golden_announcement_is_one_stab_blob():
    note = Message.decode(CORPUS["g.stab.a"])
    assert list(note) == ["_proto", "gid", "stab"]
    assert decode_stab(bytes(note["stab"])) == (
        4, (6, 5), {0: 13, 1: 7, 2: 12})    # view, floor, have-vector


@pytest.mark.parametrize("tag", ["g.cb", "g.abp", "g.batch", "g.fl.ok",
                                 "g.welcome", "g.fl.commit", "g.cb/member"])
def test_a_declared_message_as_a_symbol_table_is_a_codec_error(tag):
    """A declared protocol has one form: the same fields written as a
    symbol table (the form they had before) are refused, not read."""
    table = reference.encode_table(Message.decode(CORPUS[tag]))
    assert table[:2] == b"\x49\xd2"
    with pytest.raises(CodecError, match="symbol-table form"):
        Message.decode(table)


@pytest.mark.parametrize("tag", WIRE_TAGS)
def test_every_proper_prefix_is_a_codec_error(tag):
    raw = CORPUS[tag]
    for cut in range(len(raw)):
        with pytest.raises(CodecError):
            Message.decode(raw[:cut])


@pytest.mark.parametrize("tag", WIRE_TAGS)
def test_single_byte_damage_decodes_canonically_or_raises_codec_error(tag):
    """Every byte — tags, lengths, counts, names, payloads — damaged three
    ways.  No other exception may escape, and nothing non-canonical may
    get through (that would poison the encode cache)."""
    raw = CORPUS[tag]
    survived = 0
    for at in range(len(raw)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
            try:
                msg = Message.decode(damaged)
            except CodecError:
                continue
            survived += 1
            assert _rebuilt(msg).encode() == damaged, (at, mask)
    assert survived   # payload bytes, at least, are free to change


#: Python-level and C-level calls one decode of the golden ``g.cb``
#: envelope may make.  The recursive codec made 248; the symbol-table
#: walk 40; the positional form, which the golden one now has, 42.
DECODE_CALL_BUDGET = 48


def test_decoding_a_data_envelope_stays_within_its_call_budget():
    raw = CORPUS["g.cb"]
    Message.decode(raw)     # name and address tables warm, as in a run
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        Message.decode(raw)
    finally:
        sys.setprofile(None)
    calls -= 1              # the closing sys.setprofile(None) itself
    assert calls <= DECODE_CALL_BUDGET, calls
