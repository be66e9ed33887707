"""The wire declaration: every protocol the kernel dispatches, once.

§4.1: a message is a symbol table of named, typed fields.  Here each
``_proto`` the kernel routes has one *row*: its fields, in order, each
with its *kind*.  :func:`protocols` compiles every row into a reader,
once, and the kernel parses each message with its reader before any
handler runs.  A reader returns the message's *record*: the message
itself, then each field's parsed value in row order.  A field of the
wrong kind, a required field that is missing or a broken cross-field
rule is :class:`CodecError`, which refuses the whole message.  Fields a
row does not name are ignored (but by a :data:`PIPELINE` row, below).

The kinds are a closed set: ``int`` (``type is int``, so a bool is
refused), ``uint`` (an int >= 0), ``float``, ``bool``, ``address``,
``bytes``, ``str``, ``message``, ``any`` (a user-opaque value that is
there), ``list_of(k)``, ``dict_of(k)`` (str keys), ``fixed(k, ...)``
(a list of exactly these kinds, parsed to a tuple),
``record((name, k), ...)`` (a dict with these fields, parsed to a tuple
or what its ``make`` makes of one) and ``blob(codec)`` (bytes the codec
parses).  In a row, ``name:kind?`` is a field that may be absent
(``None``); ``nullable(k)`` is ``k`` or ``None``.

The toolkit's services (``tools/``) declare their protocols here too
(:data:`TOOLS`), and the kernel routes them the same way.

A :data:`PIPELINE` row is also its protocol's wire layout: compiled once
into a positional writer and reader (:func:`_layout`), which
``Message.encode`` / ``Message.decode`` use for that protocol and for
nothing else (``fields.py`` has the format).  Its reader reads a
message in that form, which has every kind its row asks for: it runs
only the blob codecs and the cross-field rule.

Codecs that live in ``core/`` (the ``cb_ctx`` parser, the view
constructor) are handed to :func:`protocols`: this package imports
nothing from ``core/``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..errors import CodecError
from .address import ADDRESS_SIZE, Address
from .address import _interned as _addresses   # packed form -> instance
from .fields import (decode_have_vector, decode_stab, decode_uvarint,
                     encode_uvarint)
from .message import (BATCH_PROTO, Message, _encode_message, _read_message,
                      use_layouts)


class _Absent:
    """The value of a field a message does not carry."""

    def __repr__(self) -> str:
        return "absent"


ABSENT = _Absent()


class Kind:
    """What one field must be: ``parse(value)`` is its parsed value or
    :class:`CodecError`.  ``name`` and ``of`` (the item kind, the fields
    or the codec) describe it to a reader of the declaration, such as a
    test that derives wrong shapes from it."""

    __slots__ = ("name", "parse", "of")

    def __init__(self, name: str, parse: Callable[[Any], Any],
                 of: Any = None):
        self.name, self.parse, self.of = name, parse, of


def _refuse(what: str, value: Any) -> CodecError:
    return CodecError(f"not {what}: {value!r}")


def _exactly(name: str, cls: type) -> Kind:
    def parse(value: Any) -> Any:
        if value.__class__ is cls:
            return value
        raise _refuse(name, value)
    return Kind(name, parse)


def _uint(value: Any) -> int:
    if value.__class__ is int and value >= 0:
        return value
    raise _refuse("uint", value)


def _bytes(value: Any) -> bytes:
    if value.__class__ is bytes:
        return value
    if value.__class__ is bytearray:
        return bytes(value)
    raise _refuse("bytes", value)


def _any(value: Any) -> Any:
    if value is ABSENT:
        raise _refuse("there", value)
    return value


INT = _exactly("int", int)
FLOAT = _exactly("float", float)
BOOL = _exactly("bool", bool)
ADDRESS = _exactly("address", Address)
STR = _exactly("str", str)
MESSAGE = _exactly("message", Message)
UINT = Kind("uint", _uint)
BYTES = Kind("bytes", _bytes)
ANY = Kind("any", _any)


def list_of(item: Kind) -> Kind:
    parse_item = item.parse

    def parse(value: Any) -> list:
        if value.__class__ is list or value.__class__ is tuple:
            return [parse_item(entry) for entry in value]
        raise _refuse("a list", value)
    return Kind("list", parse, item)


def dict_of(item: Kind) -> Kind:
    parse_item = item.parse

    def parse(value: Any) -> dict:
        if value.__class__ is dict:     # the codec's keys are str
            return {key: parse_item(entry) for key, entry in value.items()}
        raise _refuse("a dict", value)
    return Kind("dict", parse, item)


def fixed(*items: Kind) -> Kind:
    parsers = tuple(item.parse for item in items)

    def parse(value: Any) -> tuple:
        if ((value.__class__ is list or value.__class__ is tuple)
                and len(value) == len(parsers)):
            return tuple(p(entry) for p, entry in zip(parsers, value))
        raise _refuse(f"a list of {len(parsers)}", value)
    return Kind("fixed", parse, items)


def record(*fields: Tuple[str, Kind],
           make: Optional[Callable[..., Any]] = None) -> Kind:
    plan = tuple((name, kind.parse) for name, kind in fields)

    def parse(value: Any) -> Any:
        if value.__class__ is not dict:
            raise _refuse("a record", value)
        values = tuple(p(value.get(name, ABSENT)) for name, p in plan)
        return values if make is None else make(*values)
    return Kind("record", parse, fields)


def blob(codec: Callable[[bytes], Any]) -> Kind:
    return Kind("blob", lambda value: codec(_bytes(value)), codec)


def optional(item: Kind) -> Kind:
    parse_item = item.parse
    return Kind("optional", lambda value: None if value is ABSENT
                else parse_item(value), item)


def nullable(item: Kind) -> Kind:
    parse_item = item.parse
    return Kind("nullable", lambda value: None if value is None
                else parse_item(value), item)


# ----------------------------------------------------------------------
# The positional layout.  ``put(value, buf, depth)`` appends a value of
# its kind or refuses it; ``take(data, offset, depth)`` returns the value
# at ``offset`` and the offset after it, and like the symbol-table walk
# leaves a read past the end to raise or to ``Message.decode`` to refuse.
# ----------------------------------------------------------------------
_UVARINT_END = 1 << 64


def _put_uint(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not int or not 0 <= value < _UVARINT_END:
        raise _refuse("a 64-bit uint", value)
    if value < 0x80:
        buf.append(value)
    else:
        buf += encode_uvarint(value)


def _take_uint(data: bytes, offset: int, depth: int) -> Tuple[int, int]:
    value = data[offset]
    if value < 0x80:
        return value, offset + 1
    value, offset = decode_uvarint(data, offset)
    if data[offset - 1] == 0 or value >= _UVARINT_END:
        raise CodecError(f"overlong or wider than 64 bits: uvarint {value}")
    return value, offset


def _put_int(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not int or not -(1 << 63) <= value < 1 << 63:
        raise _refuse("a 64-bit int", value)
    _put_uint(value << 1 if value >= 0 else (~value << 1) | 1, buf, depth)


def _take_int(data: bytes, offset: int, depth: int) -> Tuple[int, int]:
    value, offset = _take_uint(data, offset, depth)
    return (value >> 1) ^ -(value & 1), offset        # zigzag


def _put_address(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not Address:
        raise _refuse("address", value)
    buf += value.pack()


def _take_address(data: bytes, offset: int, depth: int) -> Tuple[Address, int]:
    end = offset + ADDRESS_SIZE
    raw = data[offset:end]
    return _addresses.get(raw) or Address.unpack(raw), end


def _put_bytes(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not bytes and value.__class__ is not bytearray:
        raise _refuse("bytes", value)
    _put_uint(len(value), buf, depth)
    buf += value


def _take_bytes(data: bytes, offset: int, depth: int) -> Tuple[bytes, int]:
    size, offset = _take_uint(data, offset, depth)
    return data[offset:offset + size], offset + size


def _put_message(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not Message:
        raise _refuse("a message", value)
    _put_bytes(value._encoded or _encode_message(value, depth), buf, depth)


def _take_message(data: bytes, offset: int, depth: int) -> Tuple[Message, int]:
    raw, end = _take_bytes(data, offset, depth)
    return _read_message(Message, raw, depth), end


#: The positional ``(put, take)`` of each scalar kind; a blob is bytes.
_FORMS = {"uint": (_put_uint, _take_uint), "int": (_put_int, _take_int),
          "address": (_put_address, _take_address),
          "bytes": (_put_bytes, _take_bytes), "blob": (_put_bytes, _take_bytes),
          "message": (_put_message, _take_message)}


def _put_items(forms: Iterable, items: Any, buf: bytearray,
               depth: int) -> None:
    """``items`` in order, each in its form (a ``(put, take)``)."""
    for (put_item, _), item in zip(forms, items):
        put_item(item, buf, depth)


def _take_items(forms: Iterable, data: bytes, offset: int,
                depth: int) -> Tuple[list, int]:
    out = []
    for _, take_item in forms:
        item, offset = take_item(data, offset, depth)
        out.append(item)
    return out, offset


def _positional(kind: Kind) -> Tuple[Callable, Callable]:
    """``kind``'s ``(put, take)``: a ``fixed`` is its items in order, a
    ``list_of`` its uvarint count and then its items the same way."""
    if kind.name == "fixed":
        forms = [_positional(item) for item in kind.of]

        def put(value: Any, buf: bytearray, depth: int) -> None:
            if value.__class__ not in (list, tuple) or len(value) != len(forms):
                raise _refuse(kind.name, value)
            _put_items(forms, value, buf, depth)
        return put, lambda data, offset, depth: _take_items(
            forms, data, offset, depth)
    if kind.name == "list":
        form = _positional(kind.of)

        def put(value: Any, buf: bytearray, depth: int) -> None:
            if value.__class__ not in (list, tuple):
                raise _refuse(kind.name, value)
            _put_uint(len(value), buf, depth)
            _put_items(repeat(form), value, buf, depth)

        def take(data: bytes, offset: int, depth: int) -> Tuple[list, int]:
            count, offset = _take_uint(data, offset, depth)
            return _take_items(repeat(form, count), data, offset, depth)
        return put, take
    return _FORMS[kind.name]


def _layout(proto: str, fields: Tuple[Tuple[str, Kind], ...]
            ) -> Tuple[Callable, Callable]:
    """A row's positional writer and reader: one presence byte if the row
    has optional fields (eight at most; bit ``i`` for the ``i``-th), then
    every field there in row order.  No name is written; a field the row
    does not name is refused."""
    plan, flag = [], 1
    for name, kind in fields:
        optional = kind.name == "optional"
        plan.append((name, *_positional(kind.of if optional else kind),
                     flag if optional else 0))
        flag <<= optional
    assert flag <= 0x100, f"{proto}: more than eight optional fields"
    reserved = 0x100 - flag if flag > 1 else None

    def write(values: dict, buf: bytearray, depth: int) -> None:
        at, present, bits = len(buf), 1, 0     # ``_proto`` is the index
        if reserved is not None:
            buf.append(0)
        try:
            for name, put, _, bit in plan:
                value = values.get(name, ABSENT)
                if value is not ABSENT:
                    put(value, buf, depth)
                    present, bits = present + 1, bits | bit
                elif not bit:
                    raise _refuse("there", value)
        except CodecError as err:
            raise CodecError(f"{proto} {name}: {err}") from None
        if present != len(values):
            raise CodecError(f"{proto}: fields outside its row: {values}")
        if bits:
            buf[at] = bits

    def read(data: bytes, offset: int, depth: int) -> Tuple[dict, int]:
        bits = 0
        if reserved is not None:
            bits, offset = data[offset], offset + 1
            if bits & reserved:
                raise CodecError(f"{proto}: reserved bitmap bits {bits:#x}")
        out = {"_proto": proto}
        for name, _, take, bit in plan:
            if not bit or bits & bit:
                out[name], offset = take(data, offset, depth)
        return out, offset
    return write, read


def _left(kind: Kind) -> Optional[Callable[[Any], Any]]:
    """What ``kind.parse`` still does to a value the positional form
    carried (its writer let it through, or its reader made it): a blob's
    codec, a ``fixed``'s tuple, a fresh list, or nothing (None).  An
    absent optional field reads as None."""
    if kind.name in ("blob", "bytes") or (
            kind.name == "fixed" and any(map(_left, kind.of))):
        return kind.parse
    if kind.name == "fixed":
        return tuple
    inner = _left(kind.of) if kind.name in ("list", "optional") else None
    if kind.name == "list":
        return list if inner is None else (
            lambda value: [inner(item) for item in value])
    return None if inner is None else (
        lambda value: None if value is None else inner(value))


class Protocol:
    """One declared protocol: its fields, its cross-field rule
    (``check(record)``: what is wrong, or None) and its reader.  A
    ``positional`` one (:data:`PIPELINE`) also has its wire form,
    ``layout`` (:func:`_layout`'s writer and reader), and is read from
    it: a message with no bytes yet is encoded first, so the writer
    refuses what the row does, and the reader runs only :func:`_left`."""

    __slots__ = ("proto", "fields", "check", "read", "layout")

    def __init__(self, proto: str, fields: Tuple[Tuple[str, Kind], ...],
                 check: Optional[Callable[[tuple], Optional[str]]] = None,
                 positional: bool = False):
        self.proto, self.fields, self.check = proto, fields, check
        self.layout = _layout(proto, fields) if positional else None
        plan = tuple((name, _left(kind) if positional else kind.parse)
                     for name, kind in fields)
        missing = None if positional else ABSENT

        def read(msg: Message) -> tuple:
            if positional and msg._encoded is None:
                msg.encode()
            get = msg._fields.get
            values = [msg]
            try:
                for name, parse in plan:
                    value = get(name, missing)
                    values.append(value if parse is None else parse(value))
            except CodecError as err:
                raise CodecError(f"{proto} {name}: {err}") from None
            rec = tuple(values)
            wrong = None if check is None else check(rec)
            if wrong is not None:
                raise CodecError(f"{proto}: {wrong}")
            return rec
        self.read = read


def _row(spec: str, kinds: Dict[str, Kind]) -> Tuple[Tuple[str, Kind], ...]:
    """``"name:kind name:kind? ..."`` -> its ``(name, Kind)`` pairs."""
    fields = []
    for field in spec.split():
        name, kind = field.split(":")
        fields.append((name, optional(kinds[kind[:-1]])
                       if kind.endswith("?") else kinds[kind]))
    return tuple(fields)


def _messages(table: Dict[str, Protocol], what: str) -> Kind:
    """A message of one of ``table``'s protocols, parsed to its record."""
    def parse(value: Any) -> tuple:
        declared = table.get(MESSAGE.parse(value)._fields.get("_proto"))
        if declared is None:
            raise _refuse(what, value)
        return declared.read(value)
    return Kind("message", parse, table)


def _encoded(kind: Kind) -> Kind:
    """``kind``'s message, carried encoded in a bytes field (a blob whose
    ``of`` is that kind)."""
    parse = kind.parse
    return Kind("blob", lambda value: parse(Message.decode(_bytes(value))),
                kind)


#: The protocols the delivery pipeline consumes, from the kernel or out
#: of a ``g.tr`` wrapper (which wraps any of them but itself).
PIPELINE = (BATCH_PROTO, "g.cb", "g.ab", "g.abp", "g.abf", "g.abs",
            "g.stab.q", "g.stab.a", "g.stab.up", "g.stab.dn", "g.tr")
#: The protocols a toolkit service (``tools/``) handles: each is routed
#: to the handler the tool attaches at its kernel.
TOOLS = ("rm.q", "rm.a", "rt.ask", "rt.tell", "rx.spawn", "news.item")


def protocols(context: Callable[[bytes], Any],
              view: Callable[[Address, int, list], Any]
              ) -> Dict[str, Protocol]:
    """Every protocol ``ProtocolsProcess._dispatch`` routes, compiled:
    the kernel's, then the toolkit's (:data:`TOOLS`); the
    :data:`PIPELINE` rows are handed to the codec as its layouts.

    ``context`` parses a ``cb_ctx`` (its value has a ``full`` flag, a
    chain head's); ``view(gid, view_id, members)`` makes a group view
    (its value has the ``members``).  Either refuses with
    :class:`CodecError`.
    """
    pair = fixed(INT, INT)
    kinds = {
        "int": INT, "uint": UINT, "float": FLOAT, "bool": BOOL,
        "address": ADDRESS, "bytes": BYTES, "str": STR, "message": MESSAGE,
        "any": ANY,
        "stab": blob(decode_stab), "have": blob(decode_have_vector),
        "ctx": blob(context), "fid": fixed(INT, INT, INT), "pair": pair,
        "view": record(("gid", ADDRESS), ("view_id", UINT),
                       ("members", list_of(ADDRESS)), make=view),
        "addresses": list_of(ADDRESS), "blobs": list_of(BYTES),
        "sites": list_of(fixed(UINT, UINT)),
        "triples": list_of(fixed(INT, INT, INT)),
        "cut": list_of(fixed(pair, pair)),
        "maybe_int": nullable(INT), "maybe_address": nullable(ADDRESS),
        "values": list_of(ANY),
    }
    table: Dict[str, Protocol] = {}

    def declare(proto: str, spec: str, check=None) -> None:
        table[proto] = Protocol(proto, _row(spec, kinds), check,
                                positional=proto in PIPELINE)

    # Data envelopes (g.cb / g.ab): alone, batched, wrapped or refilled.
    data = "gid:address view:int origin:int gseq:int entry:int m:message " \
           "stab:stab? "
    declare("g.cb", data + "cb_sender:address cb_seq:int cb_ctx:ctx",
            lambda r: "cb_seq is not a sequence number" if r[9] < 1 else
            "a delta context with no predecessor"
            if r[9] == 1 and not r[10].full else None)
    declare("g.ab", data + "ab_sender:address")
    kinds["envelope"] = _messages(
        {p: table[p] for p in ("g.cb", "g.ab")}, "a data envelope")
    kinds["envelopes"] = list_of(kinds["envelope"])
    kinds["encoded_envelopes"] = list_of(_encoded(kinds["envelope"]))
    kinds["pending"] = list_of(record(
        ("ref", pair), ("prio", pair), ("final", BOOL)))
    kinds["payloads"] = list_of(record(
        ("kind", STR), ("m", MESSAGE), ("entry", INT)))
    kinds["event"] = record(
        ("view", kinds["view"]), ("payloads", optional(kinds["payloads"])),
        ("joiners", optional(kinds["addresses"])),
        ("transfer", optional(BOOL)), ("source", optional(ADDRESS)))
    kinds["segments"] = dict_of(kinds["blobs"])
    kinds["names"] = list_of(fixed(STR, ADDRESS, INT))
    kinds["weights"] = list_of(fixed(INT, INT))

    # Site view (fd/siteview.py) and name service (core/namespace.py).
    declare("sv.join", "site:uint incarnation:uint")
    declare("sv.suspect", "suspect:uint")
    declare("sv.propose", "view_id:uint members:sites")
    declare("sv.ack", "view_id:uint w:int?")
    declare("sv.commit", "view_id:uint members:sites weights:weights?")
    declare("sv.probe", "site:uint incarnation:uint")
    declare("ns.reg", "name:str gid:address contact:int")
    declare("ns.unreg", "name:str")
    declare("ns.upd", "seq:uint op:str name:str gid:address? contact:int?",
            lambda r: None if r[2] == "unreg" or (
                r[2] == "reg" and None not in r[4:]) else f"op {r[2]!r}")
    declare("ns.snap", "seq:uint entries:names")
    declare("ns.q", "name:str q:uint")
    declare("ns.qr", "q:uint gid:maybe_address")
    # Group RPC, joins, leaves, forwarding, watchers (core/kernel.py).
    declare("rpc.reply", "session:int responder:address m:message null:bool")
    declare("rpc.dispatched", "session:int members:addresses via:int")
    declare("g.join", "gid:address joiner:address cred:any wal_view:int? "
            "wal_dlv:bytes?")
    declare("g.join.refused", "gid:address joiner:address")
    declare("g.welcome", "gid:address view:view transfer:bool",
            lambda r: None if r[2].members else "a view with no members")
    declare("g.dead", "gid:address member:address")
    declare("g.leave", "gid:address member:address")
    declare("g.gb", "gid:address m:message entry:int")
    declare("g.fwd", "gid:address kind:str m:message entry:int session:int "
            "caller_site:int nwant:int")
    declare("g.fwd.nak", "gid:address session:int hint:maybe_int")
    declare("g.watch", "gid:address")
    declare("g.view_update", "gid:address view:view")
    # State transfer.
    declare("st.req", "gid:address joiner:address")
    declare("st.send", "gid:address joiner:address source:address")
    declare("st.data", "gid:address segments:segments? wal_suffix:blobs?",
            lambda r: "not exactly one of segments and wal_suffix"
            if (r[2] is None) == (r[3] is None) else None)
    declare("st.chunk", "gid:address xid:uint idx:uint n:uint data:bytes")
    # The flush (core/engine.py).
    declare("g.fl.begin", "gid:address fid:fid base_b:have?")
    declare("g.fl.ok", "gid:address fid:fid abp:pending abd:cut have_b:have? "
            "have_d:have? pre:bool?",
            lambda r: "neither have_b nor have_d"
            if r[5] is None and r[6] is None else None)
    kinds["reports"] = list_of(fixed(INT, _encoded(_messages(
        {"g.fl.ok": table["g.fl.ok"]}, "a flush report"))))
    declare("g.fl.expect", "gid:address fid:fid union_b:have")
    declare("g.fl.pull", "gid:address fid:fid sends:triples")
    declare("g.fl.data", "gid:address fid:fid msgs:envelopes")
    declare("g.fl.filled", "gid:address fid:fid")
    declare("g.fl.commit", "gid:address fid:fid ab_order:cut event:event")
    declare("g.fl.okb", "gid:address root:int reports:reports")
    # The delivery pipeline (core/pipeline.py, core/ordering.py).
    declare(BATCH_PROTO, "gid:address envs:encoded_envelopes stab:stab?")
    declare("g.abp", "gid:address view:uint ref:pair prio:pair")
    declare("g.abf", "gid:address view:uint ref:pair prio:pair")
    declare("g.abs", "gid:address view:int stamps:triples")
    declare("g.stab.q", "gid:address")
    declare("g.stab.a", "gid:address stab:stab")
    declare("g.stab.up", "gid:address stab:stab n:uint")
    declare("g.stab.dn", "gid:address stab:stab")
    kinds["wrapped"] = _encoded(_messages(
        {p: table[p] for p in PIPELINE if p != "g.tr"}, "a wrapped message"))
    declare("g.tr", "gid:address view:int root:int tid:int inner:wrapped")
    # The toolkit: recovery manager polls (tools/recovery.py), clock
    # sync (tools/realtime.py), remote execution (tools/rexec.py) and
    # news items to a subscriber (tools/news.py).
    declare("rm.q", "poll:int group:str origin:int")
    declare("rm.a", "poll:int has:int view:int cnt:int alive:int site:int")
    declare("rt.ask", "req:int site:int")
    declare("rt.tell", "req:int master:float")
    declare("rx.spawn", "program:str args:values?")
    declare("news.item", "subject:str seq:int body:any? to:address")
    use_layouts([(proto, *table[proto].layout) for proto in PIPELINE])
    return table
