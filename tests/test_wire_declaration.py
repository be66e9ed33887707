"""The wire declaration (``msg/wire.py``) against the live kernel.

Every protocol the kernel routes is declared, the toolkit's services'
included, and every wrong shape the declaration itself implies is
refused whole: counted once as ``kernel.bad_message``, with the kernel
alive and the group still delivering.  The wrong shapes are derived
mechanically from each row: a well-formed instance is built from the
kinds, then given exactly one defect — a required field missing, a field
(or an item of it) of every wrong kind, every proper prefix of a blob, a
blob with a byte too many.

A row is also its protocol's one wire form: a shape it has no place for
is the sender's ``CodecError`` at ``encode()`` (as it is the reference
codec's), and every byte-level defect of the form is the receiver's,
counted once as ``kernel.undecodable``.
"""

import os
import re

import pytest

import reference_codec as reference
from repro import IsisCluster, IsisConfig, Message
from repro.core.flush import GroupFlush
from repro.core.join import Joins
from repro.core.kernel import _HANDLERS, _ROUTES, PROTOCOLS
from repro.core.namespace import Namespace
from repro.core.pipeline import TREE_PROTO, DeliveryPipeline
from repro.core.rpc import GroupRpc
from repro.core.view import View
from repro.core.vectorclock import parse_context_delta
from repro.errors import CodecError
from repro.fd.siteview import SiteViewAgent
from repro.msg import ADDRESS_SIZE, BATCH_PROTO, make_process_address
from repro.msg.fields import (decode_have_vector, decode_stab,
                              encode_have_vector, encode_stab)
from repro.msg.wire import PIPELINE, TOOLS, WAL
from repro.tools import NewsClient, install_clocks, install_recovery
from repro.tools.rexec import install_rexec

_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
_ADDRESS = make_process_address(0, 0, 9)
#: A valid blob for every codec a row hands a blob kind.
_BLOBS = {
    decode_stab: encode_stab(1, (2, 1), {0: 3, 1: 5}),
    decode_have_vector: encode_have_vector({0: 3}),
    parse_context_delta: b"\x00\x00",                # a chain head, empty
}
#: Values a cross-field rule constrains beyond their kind.
_CONSTRAINED = {"op": "reg"}
#: One value of each type a message can carry off the wire.
_WIRE_VALUES = (None, True, 7, -1, 1.5, "x", b"x", _ADDRESS,
                Message(x=1), [], {})


def _sample(kind, name=""):
    """A well-formed value of ``kind``."""
    if kind.name in ("optional", "nullable"):
        return _sample(kind.of, name)
    if kind.name == "blob":
        if kind.of in _BLOBS:
            return _BLOBS[kind.of]
        return _sample(kind.of).encode()          # an encoded message
    if kind.name == "message" and kind.of is not None:
        return _instance(next(iter(kind.of.values())))
    if kind.name == "list":
        return [_sample(kind.of)]
    if kind.name == "dict":
        return {"k": _sample(kind.of)}
    if kind.name == "fixed":
        return [_sample(item) for item in kind.of]
    if kind.name == "record":
        return {field: _sample(item, field) for field, item in kind.of}
    return _CONSTRAINED.get(name) or {
        "int": 1, "uint": 1, "float": 1.5, "bool": True, "address": _ADDRESS,
        "bytes": b"x", "str": "x", "message": Message(x=1), "any": None,
    }[kind.name]


def _instance(declared, **given):
    """A well-formed message of ``declared``: every field present, but
    an optional one whose presence breaks the row's cross-field rule."""
    fields = {name: given.get(name, _sample(kind, name))
              for name, kind in declared.fields}
    msg = Message(_proto=declared.proto, **fields)
    for name, kind in declared.fields:
        try:
            declared.read(Message.decode(msg.encode()))
            return msg
        except CodecError:
            if kind.name == "optional":
                del msg[name]
    declared.read(Message.decode(msg.encode()))   # must parse by now
    return msg


def _refused(kind, value):
    """Does the writer, or else the reader, refuse ``value`` in a field
    of ``kind``?"""
    try:
        kind.put(value, bytearray(), 1)
        if kind.left is not None:
            kind.left(value)
    except CodecError:
        return True
    return False


def _defects(kind, good):
    """Wrong values for a field of ``kind`` whose good value is ``good``:
    each one defect away from it."""
    for value in _WIRE_VALUES:
        if _refused(kind, value):
            yield value
    inner = kind.of if kind.name in ("optional", "nullable") else kind
    if inner.name == "blob":
        for cut in range(len(good)):
            if _refused(kind, good[:cut]):
                yield good[:cut]
        yield good + b"\x00"
    elif inner.name == "list":
        for item in _defects(inner.of, good[0]):
            yield [item]
    elif inner.name == "fixed":
        for pos, item_kind in enumerate(inner.of):
            for item in _defects(item_kind, good[pos]):
                yield good[:pos] + [item] + good[pos + 1:]
    elif inner.name == "record":
        for field, item_kind in inner.of:
            if item_kind.name != "optional":
                yield {k: v for k, v in good.items() if k != field}
            for item in _defects(item_kind, good[field]):
                yield dict(good, **{field: item})


def _shapes(declared, gid):
    """Every wrong shape of ``declared`` one defect from its instance."""
    good = _instance(declared, gid=gid)
    for name, kind in declared.fields:
        if name not in good:
            continue
        if kind.name != "optional":
            shape = good.copy()
            del shape[name]
            yield shape
        for value in _defects(kind, good[name]):
            shape = good.copy()
            shape[name] = value
            yield shape


def _byte_defects(declared, raw):
    """Every byte-level defect of ``raw``, a message in the positional
    form: each proper prefix, a byte too many, the first uvarint overlong
    (when only addresses precede it), a reserved bitmap bit, an index
    past the table."""
    yield from (raw[:cut] for cut in range(len(raw)))
    yield raw + b"\x00"
    bitmap = any(kind.name == "optional" for _, kind in declared.fields)
    at = 2 + bitmap                         # magic, index, bitmap
    for _, kind in declared.fields:
        if kind.name in ("int", "uint"):
            assert raw[at] < 0x80
            yield raw[:at] + bytes([raw[at] | 0x80, 0]) + raw[at + 1:]
        if kind.name != "address":
            break
        at += ADDRESS_SIZE
    if bitmap:
        yield raw[:2] + bytes([raw[2] | 0x80]) + raw[3:]
    yield raw[:1] + bytes([len(PROTOCOLS)]) + raw[2:]


def _member_group(config):
    """A two-member group on sites 0 and 1, every toolkit service that
    takes a declared protocol attached at each kernel."""
    system = IsisCluster(n_sites=3, seed=110, isis_config=config)
    members = [system.spawn(site, f"m{site}") for site in (0, 1)]
    got = {0: [], 1: []}
    for site, (process, _) in enumerate(members):
        process.bind(16, lambda msg, site=site: got[site].append(msg["n"]))
    box = {}

    def create():
        box["gid"] = yield members[0][1].pg_create("fuzz")

    def join():
        yield members[1][1].pg_join(box["gid"])

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    members[1][0].spawn(join(), "join")
    system.run_for(20.0)
    install_recovery(system)
    install_clocks(system)
    install_rexec(system)
    NewsClient(members[1][1], box["gid"])
    return system, members, got, box["gid"]


@pytest.mark.parametrize("config", [
    IsisConfig(),
    IsisConfig(abcast_mode="sequencer"),
    IsisConfig(dissemination="tree"),
    IsisConfig(durability=True),
], ids=["two_phase", "sequencer", "tree", "durability"])
def test_every_declared_wrong_shape_is_refused_once(config):
    system, members, got, gid = _member_group(config)
    kernel = system.kernel(1)
    assert kernel.engines[gid.process()].view.view_id == 2
    trace = system.sim.trace
    sent = refused_at_encode = 0
    for proto in sorted(set(PROTOCOLS) - set(WAL)):
        for shape in _shapes(PROTOCOLS[proto], gid):
            try:
                raw = shape.encode()
            except CodecError:                      # the sender's bug
                with pytest.raises(CodecError):
                    reference.encode_message(shape)
                refused_at_encode += 1      # and still the reader's
            else:
                assert raw == reference.encode_message(shape), proto
                shape = Message.decode(raw)
            before = trace.value("kernel.bad_message")
            kernel._dispatch(0, shape)
            sent += 1
            assert trace.value("kernel.bad_message") == before + 1, (
                proto, shape.fields())
        system.run_for(0.05)
        assert kernel.alive and system.kernel(0).alive, proto
    assert sent > 1000 and refused_at_encode > 1000
    assert trace.value("kernel.bad_message") == sent
    # What a message's bytes can get wrong is the decoder's to refuse:
    # counted as undecodable, once each, and nothing else.
    undecodable = 0
    for proto in PROTOCOLS:
        declared = PROTOCOLS[proto]
        for raw in _byte_defects(declared, _instance(declared, gid=gid).encode()):
            kernel._on_transport_message(0, raw)
            undecodable += 1
            assert trace.value("kernel.undecodable") == undecodable, (
                proto, raw.hex())
        system.run_for(0.05)
        assert kernel.alive and system.kernel(0).alive, proto
    assert trace.value("kernel.bad_message") == sent

    def send():
        yield members[0][1].cbcast(gid, 16, n=1)
        yield members[0][1].abcast(gid, 16, n=2)

    members[0][0].spawn(send(), "send")
    system.run_for(10.0)
    assert {site: sorted(ns) for site, ns in got.items()} == {
        0: [1, 2], 1: [1, 2]}


def _plain(value):
    """``value`` with its types spelt out, every message as its fields
    and a view as the record it was made of."""
    if isinstance(value, View):
        value = (value.gid, value.view_id, list(value.members))
    if isinstance(value, Message):
        return sorted((name, _plain(item)) for name, item in value.fields().items())
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_plain(item) for item in value]
    return type(value).__name__, value


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_positional_message_reads_to_the_parsed_record(proto):
    """A message is read from its wire form, which vouches for every kind
    already: its record is still what the reference makes of the decoded
    fields, kind by kind."""
    declared = PROTOCOLS[proto]
    msg = Message.decode(_instance(declared).encode())
    assert _plain(declared.read(msg)[1:]) == _plain(
        reference.read_record(msg)[1:])


#: A tool message missing the field its handler read first: each of
#: these once raised ``KeyError`` out of ``run_for``.
_TOOL_ESCAPES = {
    "rm.q-group": Message(_proto="rm.q", poll=1, origin=0),
    "rt.ask-req": Message(_proto="rt.ask", site=0),
    "rx.spawn-program": Message(_proto="rx.spawn", args=[]),
    "news.item-to": Message(_proto="news.item", subject="s", seq=1,
                            body="b"),
}


@pytest.mark.parametrize("escape", sorted(_TOOL_ESCAPES))
def test_a_tool_message_missing_a_field_is_refused(escape):
    system, members, got, gid = _member_group(IsisConfig())
    with pytest.raises(CodecError):                 # the sender's bug
        _TOOL_ESCAPES[escape].encode()
    system.kernel(1)._dispatch(0, _TOOL_ESCAPES[escape])
    system.run_for(1.0)
    assert system.sim.trace.value("kernel.bad_message") == 1
    assert system.kernel(1).alive and system.kernel(0).alive

    def send():
        yield members[0][1].cbcast(gid, 16, n=1)

    members[0][0].spawn(send(), "send")
    system.run_for(10.0)
    assert got == {0: [1], 1: [1]}


def test_every_routed_protocol_is_declared():
    """What ``_dispatch`` and the pipeline can route, and every
    ``_proto`` the kernel's parts and the toolkit send, has a row; every
    kernel row a route to a handler that is there, every other row is a
    tool's or the log's."""
    assert set(_ROUTES) == set(_HANDLERS)
    assert set(_HANDLERS) | set(TOOLS) | set(WAL) == set(PROTOCOLS)
    assert not set(_HANDLERS) & set(TOOLS) and not set(_HANDLERS) & set(WAL)
    assert len(_HANDLERS) == 42 and len(TOOLS) == 6
    assert set(DeliveryPipeline.HANDLERS) == set(PIPELINE)
    owners = {"engine.flush": GroupFlush, "namespace": Namespace,
              "joins": Joins, "rpc": GroupRpc}
    for proto, path in _HANDLERS.items():
        owner, _, name = path.rpartition(".")
        if proto.startswith("sv."):
            assert hasattr(SiteViewAgent, "_on_" + proto[3:]), proto
        elif path != "pipeline":
            assert hasattr(owners[owner], name), proto
    sent = {BATCH_PROTO, TREE_PROTO}
    for folder in ("core", "fd", "tools"):
        for name in os.listdir(os.path.join(_SRC, folder)):
            if name.endswith(".py"):
                with open(os.path.join(_SRC, folder, name)) as fh:
                    sent |= set(re.findall(r'_proto="([\w.]+)"', fh.read()))
    assert sent <= set(PROTOCOLS), sent - set(PROTOCOLS)


def test_future_view_wrapper_is_parsed_before_it_is_held():
    """A ``g.tr`` for a view not installed yet is held, so its payload
    is parsed on arrival: a bad one is refused then, and cannot abort the
    view install that would have replayed it."""
    system = IsisCluster(n_sites=3, seed=111, isis_config=IsisConfig(
        dissemination="tree"))
    members = [system.spawn(site, f"m{site}") for site in (0, 1, 2)]
    got = {site: [] for site in (0, 1, 2)}
    for site, (process, _) in enumerate(members):
        process.bind(16, lambda msg, site=site: got[site].append(msg["n"]))
    box = {}

    def create():
        box["gid"] = yield members[0][1].pg_create("held")

    def join(site):
        yield members[site][1].pg_join(box["gid"])

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    gid = box["gid"]
    engine = system.kernel(0).engines[gid.process()]
    assert engine.view.view_id == 1
    bad_inner = Message(_proto="g.cb", gid=gid, view=2, origin=1, gseq=1,
                        m=Message(n=0), entry=16, cb_sender=_ADDRESS,
                        cb_seq=1, cb_ctx=b"\x00\x00").encode()[:-1]   # cut
    system.kernel(1).send_to_site(0, Message(
        _proto="g.tr", gid=gid, view=2, root=1, tid=1, inner=bad_inner))
    system.run_for(1.0)
    assert system.sim.trace.value("kernel.bad_message") == 1
    members[1][0].spawn(join(1), "join")
    system.run_for(20.0)
    assert engine.view.view_id == 2 and not engine.wedged

    def send():
        yield members[1][1].cbcast(gid, 16, n=1)

    members[1][0].spawn(send(), "send")
    system.run_for(10.0)
    assert got[0] == [1] and got[1] == [1]
    assert system.sim.trace.value("kernel.bad_message") == 1


def test_golden_messages_parse_against_their_rows():
    """The golden corpus is traffic an older codec wrote: each message of
    it is well formed by its declaration — but the refill, whose
    envelope was never restated for the one ``stab`` blob (the corpus
    header lists what was), and whose blob is therefore refused whole."""
    with open(os.path.join(os.path.dirname(__file__), "golden",
                           "wire_messages.hex")) as fh:
        corpus = [line.split() for line in fh if not line.startswith("#")]
    assert len(corpus) == 10
    for tag, hexed in corpus:
        msg = Message.decode(bytes.fromhex(hexed))
        if tag == "g.fl.data":
            with pytest.raises(CodecError, match="g.cb stab"):
                PROTOCOLS[tag].read(msg)
        else:
            assert PROTOCOLS[tag].read(msg)[0] is msg
