"""The wire declaration: every protocol the kernel dispatches, once.

§4.1: a message is a symbol table of named, typed fields.  Here each
``_proto`` the kernel routes has one *row*: its fields, in order, each
with its *kind*.  A row is also its protocol's one wire form:
:func:`protocols` compiles every row, once, into a positional writer and
reader (``fields.py`` has the format), which ``Message.encode`` /
``Message.decode`` use for that protocol, and into the reader the kernel
runs on each message before any handler.  That reader returns the
message's *record*: the message itself, then each field's value in row
order.

What the form cannot carry is refused where it is made: a field the row
does not name, a required field that is missing or a value of the wrong
kind is :class:`CodecError` at ``encode()``, the sender's; bytes that
are not the form are :class:`CodecError` at ``decode()``.  The reader
runs only what the bytes cannot vouch for: a blob's codec, a nested
message's row, a record's constructor and the row's cross-field rule —
any of which refuses the whole message.

The kinds are a closed set: ``int``, ``uint`` (an int >= 0), ``float``,
``bool``, ``address``, ``bytes``, ``str``, ``message``, ``any`` (a
user-opaque value, in the symbol table's value form), ``list_of(k)``
(read to a list or what its ``make`` makes of one), ``dict_of(k)`` (str
keys), ``fixed(k, ...)`` (a list of exactly these kinds, read to a
tuple), ``record((name, k), ...)`` (a dict with these fields, read to a
tuple or what its ``make`` makes of one) and ``blob(codec)`` (bytes the
codec reads).  In a row or a record,
``name:kind?`` is a field that may be absent (``None``);
``nullable(k)`` is ``k`` or ``None``.

The toolkit's services (``tools/``) declare their protocols here too
(:data:`TOOLS`), and the kernel routes them the same way; so do the
write-ahead log's records (:data:`WAL`), which ``core/wal.py`` writes to
disk and ships in a log-assisted state transfer.

Codecs that live in ``core/`` (the ``cb_ctx`` parser, the view and
delivered-set constructors) are handed to :func:`protocols`: this
package imports nothing from ``core/``.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import CodecError
from .address import ADDRESS_SIZE, Address
from .address import _interned as _addresses   # packed form -> instance
from .fields import (decode_have_vector, decode_stab, decode_uvarint,
                     encode_uvarint)
from .message import (_ENCODERS, BATCH_PROTO, Message, _encode_message,
                      _read_message, _read_value, use_layouts)


class Kind:
    """What one field must be, and how it travels: ``put(value, buf,
    depth)`` appends a value of the kind or refuses it; ``take(data,
    offset, depth)`` returns the value at ``offset`` and the offset after
    it (a read past the end raises, or leaves ``Message.decode`` to
    refuse); ``left(value)`` is what a record holds for a value of the
    kind (None: the value itself).  ``name`` and ``of`` (the item kind,
    the fields or the codec) describe it to a reader of the declaration,
    such as a test that derives wrong shapes from it."""

    __slots__ = ("name", "put", "take", "left", "of")

    def __init__(self, name: str, put: Callable, take: Callable,
                 left: Optional[Callable[[Any], Any]] = None, of: Any = None):
        self.name, self.put, self.take, self.left, self.of = (
            name, put, take, left, of)


def _refuse(what: str, value: Any) -> CodecError:
    return CodecError(f"not {what}: {value!r}")


_UVARINT_END = 1 << 64
_F64 = struct.Struct(">d")
_ABSENT = object()      # the value of a field a message does not carry


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
    return decode_uvarint(data, offset)


def _put_int(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not int or not -(1 << 63) <= value < 1 << 63:
        raise _refuse("a 64-bit int", value)
    _put_uint(value << 1 if value >= 0 else (~value << 1) | 1, buf, depth)


def _take_int(data: bytes, offset: int, depth: int) -> Tuple[int, int]:
    value, offset = _take_uint(data, offset, depth)
    return (value >> 1) ^ -(value & 1), offset        # zigzag


def _put_float(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not float:
        raise _refuse("float", value)
    buf += _F64.pack(value)


def _take_float(data: bytes, offset: int, depth: int) -> Tuple[float, int]:
    return _F64.unpack_from(data, offset)[0], offset + 8


def _put_bool(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not bool:
        raise _refuse("bool", value)
    buf.append(value)


def _take_bool(data: bytes, offset: int, depth: int) -> Tuple[bool, int]:
    if data[offset] > 1:
        raise CodecError(f"bool encoded as {data[offset]}")
    return data[offset] == 1, offset + 1


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


def _put_str(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not str:
        raise _refuse("str", value)
    try:
        _put_bytes(value.encode("utf-8"), buf, depth)
    except UnicodeEncodeError:
        raise _refuse("UTF-8", value) from None


def _take_str(data: bytes, offset: int, depth: int) -> Tuple[str, int]:
    raw, offset = _take_bytes(data, offset, depth)
    return raw.decode("utf-8"), offset


def _put_message(value: Any, buf: bytearray, depth: int) -> None:
    if value.__class__ is not Message:
        raise _refuse("a message", value)
    _put_bytes(value._encoded or _encode_message(value, depth), buf, depth)


def _take_message(data: bytes, offset: int, depth: int) -> Tuple[Message, int]:
    raw, end = _take_bytes(data, offset, depth)
    return _read_message(Message, raw, depth), end


def _put_any(value: Any, buf: bytearray, depth: int) -> None:
    _ENCODERS[value.__class__](value, buf, depth)


INT = Kind("int", _put_int, _take_int)
UINT = Kind("uint", _put_uint, _take_uint)
FLOAT = Kind("float", _put_float, _take_float)
BOOL = Kind("bool", _put_bool, _take_bool)
ADDRESS = Kind("address", _put_address, _take_address)
BYTES = Kind("bytes", _put_bytes, _take_bytes)
STR = Kind("str", _put_str, _take_str)
MESSAGE = Kind("message", _put_message, _take_message)
ANY = Kind("any", _put_any, _read_value)


def _maybe(left: Optional[Callable]) -> Optional[Callable]:
    """``left`` for a value that may be None."""
    return left and (lambda value: None if value is None else left(value))


def list_of(item: Kind, make: Optional[Callable[[list], Any]] = None) -> Kind:
    """A uvarint count, then the items; read to what ``make`` makes of
    the list as it travels, if given."""
    put_item, take_item, left_item = item.put, item.take, item.left

    def put(value: Any, buf: bytearray, depth: int) -> None:
        if value.__class__ is not list and value.__class__ is not tuple:
            raise _refuse("a list", value)
        _put_uint(len(value), buf, depth)
        for entry in value:
            put_item(entry, buf, depth)

    def take(data: bytes, offset: int, depth: int) -> Tuple[list, int]:
        count, offset = _take_uint(data, offset, depth)
        out = []
        for _ in range(count):
            entry, offset = take_item(data, offset, depth)
            out.append(entry)
        return out, offset
    return Kind("list", put, take, make or left_item and (
        lambda value: [left_item(entry) for entry in value]), item)


def dict_of(item: Kind) -> Kind:
    """A uvarint count, then each key (a ``str``) and its item."""
    put_item, take_item, left_item = item.put, item.take, item.left

    def put(value: Any, buf: bytearray, depth: int) -> None:
        if value.__class__ is not dict:
            raise _refuse("a dict", value)
        _put_uint(len(value), buf, depth)
        for key, entry in value.items():
            _put_str(key, buf, depth)
            put_item(entry, buf, depth)

    def take(data: bytes, offset: int, depth: int) -> Tuple[dict, int]:
        count, offset = _take_uint(data, offset, depth)
        out = {}
        for _ in range(count):
            key, offset = _take_str(data, offset, depth)
            out[key], offset = take_item(data, offset, depth)
        if len(out) != count:
            raise CodecError("duplicate dict key")
        return out, offset
    return Kind("dict", put, take, left_item and (
        lambda value: {key: left_item(entry) for key, entry in value.items()}),
        item)


def fixed(*items: Kind) -> Kind:
    """The items in order, read to a tuple."""
    forms = tuple((item.put, item.take) for item in items)
    lefts = tuple(item.left for item in items)

    def put(value: Any, buf: bytearray, depth: int) -> None:
        if ((value.__class__ is not list and value.__class__ is not tuple)
                or len(value) != len(forms)):
            raise _refuse(f"a list of {len(forms)}", value)
        for (put_item, _), entry in zip(forms, value):
            put_item(entry, buf, depth)

    def take(data: bytes, offset: int, depth: int) -> Tuple[list, int]:
        out = []
        for _, take_item in forms:
            entry, offset = take_item(data, offset, depth)
            out.append(entry)
        return out, offset
    left = tuple if not any(lefts) else (lambda value: tuple(
        entry if finish is None else finish(entry)
        for finish, entry in zip(lefts, value)))
    return Kind("fixed", put, take, left, items)


def _form(what: str, fields: Tuple[Tuple[str, Kind], ...],
          start: dict) -> Tuple[Callable, Callable]:
    """The positional writer and reader of a dict of ``fields`` (and of
    ``start``'s, which are not written): one presence byte if any field
    is optional (eight at most; bit ``i`` for the ``i``-th), then every
    field there in order.  No name is written; a key outside ``fields``
    is refused."""
    plan, flag = [], 1
    for name, kind in fields:
        optional = kind.name == "optional"
        plan.append((name, kind.put, kind.take, flag if optional else 0))
        flag <<= optional
    assert flag <= 0x100, f"{what}: more than eight optional fields"
    reserved = 0x100 - flag if flag > 1 else None

    def write(values: dict, buf: bytearray, depth: int) -> None:
        at, present, bits = len(buf), len(start), 0
        if reserved is not None:
            buf.append(0)
        try:
            for name, put, _, bit in plan:
                value = values.get(name, _ABSENT)
                if value is not _ABSENT:
                    put(value, buf, depth)
                    present, bits = present + 1, bits | bit
                elif not bit:
                    raise CodecError("missing")
        except CodecError as err:
            raise CodecError(f"{what} {name}: {err}") from None
        if present != len(values):
            raise CodecError(f"{what}: fields outside its row: {values}")
        if bits:
            buf[at] = bits

    def read(data: bytes, offset: int, depth: int) -> Tuple[dict, int]:
        bits = 0
        if reserved is not None:
            bits, offset = data[offset], offset + 1
            if bits & reserved:
                raise CodecError(f"{what}: reserved bitmap bits {bits:#x}")
        out = dict(start)
        for name, _, take, bit in plan:
            if not bit or bits & bit:
                out[name], offset = take(data, offset, depth)
        return out, offset
    return write, read


def record(*fields: Tuple[str, Kind],
           make: Optional[Callable[..., Any]] = None) -> Kind:
    """A dict of ``fields``, in the form of a row's (:func:`_form`)."""
    write, read = _form("record", fields, {})
    plan = tuple((name, kind.left) for name, kind in fields)

    def put(value: Any, buf: bytearray, depth: int) -> None:
        if value.__class__ is not dict:
            raise _refuse("a record", value)
        write(value, buf, depth)

    def left(value: dict) -> Any:
        values = tuple(value.get(name) if finish is None
                       else finish(value.get(name)) for name, finish in plan)
        return values if make is None else make(*values)
    return Kind("record", put, read, left, fields)


def blob(codec: Callable[[bytes], Any]) -> Kind:
    """Bytes, read by ``codec``."""
    return Kind("blob", _put_bytes, _take_bytes, codec, codec)


def optional(item: Kind) -> Kind:
    return Kind("optional", item.put, item.take, _maybe(item.left), item)


def nullable(item: Kind) -> Kind:
    """A byte 0 for None, or 1 and the item."""
    put_item, take_item = item.put, item.take

    def put(value: Any, buf: bytearray, depth: int) -> None:
        buf.append(value is not None)
        if value is not None:
            put_item(value, buf, depth)

    def take(data: bytes, offset: int, depth: int) -> Tuple[Any, int]:
        if data[offset] > 1:
            raise CodecError(f"nullable flag {data[offset]}")
        if data[offset] == 0:
            return None, offset + 1
        return take_item(data, offset + 1, depth)
    return Kind("nullable", put, take, _maybe(item.left), item)


class Protocol:
    """One declared protocol: its fields, its cross-field rule
    (``check(record)``: what is wrong, or None), its wire form
    (``layout``: :func:`_form`'s writer and reader) and its reader.  A
    message with no bytes yet is encoded first, so the writer refuses
    what the row does; the reader then runs each field's ``left``."""

    __slots__ = ("proto", "fields", "check", "read", "layout")

    def __init__(self, proto: str, fields: Tuple[Tuple[str, Kind], ...],
                 check: Optional[Callable[[tuple], Optional[str]]] = None):
        self.proto, self.fields, self.check = proto, fields, check
        self.layout = _form(proto, fields, {"_proto": proto})
        plan = tuple((name, kind.left) for name, kind in fields)

        def read(msg: Message) -> tuple:
            if msg._encoded is None:
                msg.encode()
            get = msg._fields.get
            values = [msg]
            try:
                for name, left in plan:
                    value = get(name)
                    values.append(value if left is None else left(value))
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
    """A message of one of ``table``'s protocols, read to its record."""
    def left(value: Message) -> tuple:
        proto = value._fields.get("_proto")
        declared = table.get(proto) if proto.__class__ is str else None
        if declared is None:
            raise _refuse(what, value)
        return declared.read(value)
    return Kind("message", _put_message, _take_message, left, table)


def _encoded(kind: Kind) -> Kind:
    """``kind``'s message, carried encoded in a bytes field (a blob whose
    ``of`` is that kind)."""
    left = kind.left
    return Kind("blob", _put_bytes, _take_bytes,
                lambda value: left(Message.decode(value)), kind)


#: The data envelopes' rows.  Both carry the caller's ``session`` when
#: the caller is the envelope's sender (``cb_sender`` / ``ab_sender``),
#: which then names it once; a ``g.cb`` adds its causal fields.
DATA_ROW = ("gid:address view:int origin:int gseq:int entry:int m:message "
            "stab:stab? session:uint?")
CBCAST_ROW = DATA_ROW + " cb_sender:address cb_seq:int cb_ctx:ctx"


def place(spec: str, name: str) -> int:
    """Where field ``name`` of the row ``spec`` sits in its record (the
    message itself is at 0)."""
    return 1 + [field.split(":")[0] for field in spec.split()].index(name)


_CB_SEQ, _CB_CTX = place(CBCAST_ROW, "cb_seq"), place(CBCAST_ROW, "cb_ctx")


#: The protocols the delivery pipeline consumes, from the kernel or out
#: of a ``g.tr`` wrapper (which wraps any of them but itself).
PIPELINE = (BATCH_PROTO, "g.cb", "g.ab", "g.abp", "g.abf", "g.abs",
            "g.stab.a", "g.stab.up", "g.stab.dn", "g.tr")
#: The protocols a toolkit service (``tools/``) handles: each is routed
#: to the handler the tool attaches at its kernel.
TOOLS = ("rm.q", "rm.a", "rt.ask", "rt.tell", "rx.spawn", "news.item")
#: The write-ahead log's records (``core/wal.py``): a delivery, a view,
#: a GBCAST payload and a checkpoint.  The kernel routes none of them.
WAL = ("wal.d", "wal.v", "wal.g", "wal.ck")
#: What a ``k.notes`` bundle carries: the stability notes one kernel
#: sends another in one tick (``core/stability.py``).
NOTES = ("g.stab.a", "g.stab.up", "g.stab.dn")


def protocols(context: Callable[[bytes], Any],
              view: Callable[[Address, int, list], Any],
              delivered: Callable[[list], Any]) -> Dict[str, Protocol]:
    """Every declared protocol, compiled: the :data:`PIPELINE`'s, the
    rest of the kernel's, the toolkit's (:data:`TOOLS`) and the log's
    (:data:`WAL`).  Each row's form is handed to the codec; a
    protocol's index on the wire is its place in the table returned.

    ``context`` parses a ``cb_ctx`` (its value has a ``full`` flag, a
    chain head's); ``view(gid, view_id, members)`` makes a group view
    (its value has the ``members``); ``delivered`` makes a delivered set
    of its entries as read, and only of their one spelling.  Each
    refuses with :class:`CodecError`.
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
        "uints": list_of(UINT),
        "sites": list_of(fixed(UINT, UINT)),
        "triples": list_of(fixed(INT, INT, INT)),
        "cut": list_of(fixed(pair, pair)),
        "maybe_int": nullable(INT), "maybe_address": nullable(ADDRESS),
        "values": list_of(ANY),
        # A delivered set: (origin, floor, the gseqs above a gap) by origin.
        "delivered": list_of(fixed(UINT, UINT, list_of(UINT)), delivered),
    }
    table: Dict[str, Protocol] = {}

    def declare(proto: str, spec: str, check=None) -> None:
        table[proto] = Protocol(proto, _row(spec, kinds), check)

    # Data envelopes (g.cb / g.ab): alone, batched, wrapped or refilled.
    declare("g.cb", CBCAST_ROW,
            lambda r: "cb_seq is not a sequence number" if r[_CB_SEQ] < 1
            else "a delta context with no predecessor"
            if r[_CB_SEQ] == 1 and not r[_CB_CTX].full else None)
    declare("g.ab", DATA_ROW + " ab_sender:address")
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

    # Site view (fd/siteview.py) and name service (core/namespace.py).
    declare("sv.join", "site:uint incarnation:uint")
    declare("sv.suspect", "suspects:uints")
    declare("sv.propose", "view_id:uint members:sites")
    declare("sv.ack", "view_id:uint")
    declare("sv.commit", "view_id:uint members:sites")
    declare("sv.probe", "site:uint incarnation:uint")
    declare("ns.reg", "name:str gid:address contact:int")
    declare("ns.unreg", "name:str")
    declare("ns.upd", "seq:uint op:str name:str gid:address? contact:int?",
            lambda r: None if r[2] == "unreg" or (
                r[2] == "reg" and None not in r[4:]) else f"op {r[2]!r}")
    declare("ns.snap", "seq:uint entries:names")
    declare("ns.q", "name:str q:uint")
    declare("ns.qr", "q:uint gid:maybe_address")
    # Group RPC, joins, leaves, forwarding, watchers (core/rpc.py,
    # core/join.py).
    declare("rpc.reply", "session:int responder:address m:message null:bool")
    declare("rpc.dispatched", "session:int members:addresses via:int")
    declare("g.join", "gid:address joiner:address cred:any wal_view:uint? "
            "wal_dlv:delivered?",
            lambda r: "only one of wal_view and wal_dlv"
            if (r[4] is None) != (r[5] is None) else None)
    declare("g.join.refused", "gid:address joiner:address")
    declare("g.welcome", "gid:address view:view transfer:bool",
            lambda r: None if r[2].members else "a view with no members")
    declare("g.leave", "gid:address member:address")
    declare("g.fwd", "gid:address kind:str m:message entry:int nwant:int")
    declare("g.fwd.nak", "gid:address hint:maybe_int")
    declare("g.watch", "gid:address")
    declare("g.view_update", "gid:address view:view")
    # The log's records; a log-assisted transfer ships the first three.
    declare("wal.d", "view:uint origin:uint gseq:uint user:message")
    declare("wal.v", "view:uint members:addresses")
    declare("wal.g", "view:uint idx:uint user:message")
    declare("wal.ck", "gen:uint view:uint members:addresses "
            "delivered:delivered total:uint base_view:uint "
            "base_delivered:delivered has_state:bool name:str "
            "segments:segments")
    kinds["records"] = list_of(_encoded(_messages(
        {p: table[p] for p in WAL[:3]}, "a log record")))
    # State transfer.
    declare("st.data", "gid:address segments:segments? wal_suffix:records?",
            lambda r: "not exactly one of segments and wal_suffix"
            if (r[2] is None) == (r[3] is None) else None)
    declare("st.chunk", "gid:address xid:uint idx:uint n:uint data:bytes")
    # The flush (core/flush.py).
    declare("g.fl.begin", "gid:address fid:fid base_b:have?")
    declare("g.fl.ok", "gid:address fid:fid abp:pending abd:cut have_b:have? "
            "have_d:have? pre:bool?",
            lambda r: "neither have_b nor have_d"
            if r[5] is None and r[6] is None else None)
    declare("g.fl.expect", "gid:address fid:fid union_b:have")
    declare("g.fl.pull", "gid:address fid:fid sends:triples")
    declare("g.fl.data", "gid:address fid:fid msgs:envelopes")
    declare("g.fl.filled", "gid:address fid:fid")
    declare("g.fl.commit", "gid:address fid:fid ab_order:cut event:event")
    # The delivery pipeline (core/pipeline.py, core/ordering.py).
    declare(BATCH_PROTO, "gid:address envs:encoded_envelopes stab:stab?")
    declare("g.abp", "gid:address view:uint ref:pair prio:pair")
    declare("g.abf", "gid:address view:uint ref:pair prio:pair")
    declare("g.abs", "gid:address view:int stamps:triples")
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
    # Stability notes to one site, bundled (core/kernel.py); last, so
    # no other row's index moved when it came.  A lone note travels as
    # itself, so a bundle of fewer than two is not its spelling.
    kinds["notes"] = list_of(_encoded(_messages(
        {p: table[p] for p in NOTES}, "a stability note")))
    declare("k.notes", "notes:notes", lambda rec: None if len(rec[1]) > 1
            else "a bundle of fewer than two notes")
    table = {proto: table[proto] for proto in PIPELINE + tuple(
        proto for proto in table if proto not in PIPELINE)}
    use_layouts([(proto, *declared.layout)
                 for proto, declared in table.items()])
    return table
