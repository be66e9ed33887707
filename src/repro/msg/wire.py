"""The wire declaration: every protocol the kernel dispatches, once.

§4.1: a message is a symbol table of named, typed fields.  Here each
``_proto`` the kernel routes has one *row*: its fields, in order, each
with its *kind*.  :func:`protocols` compiles every row into a reader,
once, and the kernel parses each message with its reader before any
handler runs.  A reader returns the message's *record*: the message
itself, then each field's parsed value in row order.  A field of the
wrong kind, a required field that is missing or a broken cross-field
rule is :class:`CodecError`, which refuses the whole message.  Fields a
row does not name are ignored.

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

Codecs that live in ``core/`` (the ``cb_ctx`` parser, the view
constructor) are handed to :func:`protocols`: this package imports
nothing from ``core/``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import CodecError
from .address import Address
from .fields import decode_have_vector, decode_stab
from .message import BATCH_PROTO, Message


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


class Protocol:
    """One declared protocol: its fields, its cross-field rule
    (``check(record)``: what is wrong, or None) and its reader."""

    __slots__ = ("proto", "fields", "check", "read")

    def __init__(self, proto: str, fields: Tuple[Tuple[str, Kind], ...],
                 check: Optional[Callable[[tuple], Optional[str]]] = None):
        self.proto, self.fields, self.check = proto, fields, check
        plan = tuple((name, kind.parse) for name, kind in fields)

        def read(msg: Message) -> tuple:
            get = msg._fields.get
            values = [msg]
            try:
                for name, parse in plan:
                    values.append(parse(get(name, ABSENT)))
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
    the kernel's, then the toolkit's (:data:`TOOLS`).

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
        table[proto] = Protocol(proto, _row(spec, kinds), check)

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
    declare("g.abp", "gid:address ref:pair prio:pair")
    declare("g.abf", "gid:address ref:pair prio:pair")
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
    return table
