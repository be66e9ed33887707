"""References the causal-delivery path is compared against.

``repro.core`` once carried each of these behind a configuration switch;
the switches are gone and the simple sides live here, written the
obvious way, as what the differential tests hold the library to:

* :class:`ScanCausalReceiver` — the CBCAST delivery rule as a re-scan of
  the whole pending buffer until a pass makes no progress (O(pending²)
  per arrival).  :class:`~repro.core.cbcast.CausalReceiver` must deliver
  the same messages in the same order.
* :class:`ScanTotalOrder` — two-phase ABCAST delivery as a scan for the
  minimum priority.  :class:`~repro.core.ordering.TotalOrdering`'s
  lazy heap must agree.
* :func:`encode_context_compact` / :func:`decode_context_compact` — the
  binary ``cb_ctx`` codec with absolute contexts at both ends: every
  message snapshots every vector in rank order and looks every position
  up in a list, and the receiver rebuilds a whole context per message.
  The wire format is pinned to what this produces;
  :class:`~repro.core.vectorclock.ContextEncoder` and
  ``parse_context_delta`` + ``apply_context_delta`` are the in-place
  ends that must match it byte for byte.  :func:`encode_delta` writes a
  parsed delta back field by field: every string the parser accepts
  must come back from it unchanged (one delta, one spelling).
* :func:`encode_context` — the nested-dict ``cb_ctx`` the system used
  before the binary form (hex-string keys, ~45 bytes per vector entry):
  the size baseline.
* :func:`walk_context` — the causal-context check as a walk of the whole
  absolute context, each group's counts in rank order.  The kernel's
  ``check_delta_and_register``, which tests what a delta names against
  packed delivered vectors, must reach the same verdict and register the
  same first threshold.
* :class:`VectorClock` — the ``Address``-keyed vector these are written
  in (the library keeps packed ``member -> count`` dicts).
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.core.vectorclock import ContextDelta
from repro.errors import CodecError
from repro.msg.address import Address
from repro.msg.fields import decode_uvarint, encode_uvarint
from repro.msg.message import Message

class VectorClock:
    """Mutable map Address → int with lattice operations."""

    __slots__ = ("_clock",)

    def __init__(self, initial: Optional[Mapping[Address, int]] = None):
        self._clock: Dict[Address, int] = dict(initial or {})

    def get(self, member: Address) -> int:
        return self._clock.get(member.process(), 0)

    def set(self, member: Address, value: int) -> None:
        self._clock[member.process()] = value

    def increment(self, member: Address) -> int:
        """Bump and return the member's counter."""
        key = member.process()
        self._clock[key] = self._clock.get(key, 0) + 1
        return self._clock[key]

    def merge(self, other: "VectorClock") -> None:
        """Pointwise maximum (join)."""
        for member, value in other._clock.items():
            if value > self._clock.get(member, 0):
                self._clock[member] = value

    def dominates(self, other: "VectorClock",
                  restrict_to: Optional[Iterable[Address]] = None) -> bool:
        """self >= other pointwise (optionally over a member subset)."""
        if restrict_to is None:
            items = other._clock.items()
        else:
            keys = {m.process() for m in restrict_to}
            items = [(k, v) for k, v in other._clock.items() if k in keys]
        return all(self._clock.get(member, 0) >= value for member, value in items)

    def restrict(self, members: Iterable[Address]) -> "VectorClock":
        """Copy containing only the given members' entries."""
        keys = {m.process() for m in members}
        return VectorClock(
            {m: v for m, v in self._clock.items() if m in keys}
        )

    def copy(self) -> "VectorClock":
        return VectorClock(self._clock)

    def items(self):
        return self._clock.items()

    def __len__(self) -> int:
        return len(self._clock)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        keys = set(self._clock) | set(other._clock)
        return all(
            self._clock.get(k, 0) == other._clock.get(k, 0) for k in keys
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{m}:{v}" for m, v in sorted(
            self._clock.items(), key=lambda kv: str(kv[0])))
        return f"VC({parts})"


#: gid -> (view id, the view's members by rank, delivered vector): a
#: group as a member of it knows it.
Context = Dict[Address, Tuple[int, Tuple[Address, ...], VectorClock]]

#: gid -> (view id, counts in rank order): what a ``cb_ctx`` stands for.
#: It names no member; a receiver reads a rank through its own view.
Ranked = Dict[Address, Tuple[int, List[int]]]

#: Where a context check that fails waits: ``(gid, None)`` for a newer
#: view of ``gid``, ``(gid, (member, count))`` for ``member``'s
#: ``count``-th delivery in it.
Threshold = Tuple[Address, Optional[Tuple[Address, int]]]


# ----------------------------------------------------------------------
# The context check as a walk of the whole context
# ----------------------------------------------------------------------
def ranked(context: Context) -> Ranked:
    """``context`` as a ``cb_ctx`` carries it: each vector dense, one
    count per member of its view, in rank order."""
    return {gid: (view_id, [vc.get(member) for member in members])
            for gid, (view_id, members, vc) in context.items()}


def walk_context(context: Ranked, local: Context
                 ) -> Tuple[bool, Optional[Threshold]]:
    """Is ``context`` satisfied by ``local``, the view and delivered
    vector of every group installed here?  Groups in ``context``'s order,
    members in rank order: the first entry that fails is the threshold
    to wait on, and ``(True, None)`` means deliverable.

    A group not installed here is skipped (not a member: cannot, and need
    not, wait), a newer local view satisfies (the old one was flushed),
    an older one waits for a newer view, and the same view compares
    counters, rank ``r`` being our view's ``r``-th member — a vector of
    another length than that view is :class:`CodecError`.
    """
    for gid, (view_id, wanted) in context.items():
        if gid not in local:
            continue
        local_view, members, have = local[gid]
        if local_view > view_id:
            continue
        if local_view < view_id:
            return False, (gid, None)
        if len(wanted) != len(members):
            raise CodecError(f"{len(wanted)} counts for {len(members)} "
                             "members")
        for member, count in zip(members, wanted):
            if have.get(member) < count:
                return False, (gid, (member, count))
    return True, None


# ----------------------------------------------------------------------
# The nested-dict context codec
# ----------------------------------------------------------------------
def encode_context(context: Context) -> Dict:
    """Delivered vectors reset at every view change, so an entry is only
    comparable against the *same* view: the view id rides along."""
    return {
        gid.pack().hex(): {
            "v": view_id,
            "vc": {m.pack().hex(): c for m, c in vc.items()},
        }
        for gid, (view_id, _, vc) in context.items()
    }


# ----------------------------------------------------------------------
# The binary context codec, absolute at both ends
# ----------------------------------------------------------------------
# Canonical order: a chain's context keeps its groups in the order the
# chain first listed them -- what a delta adds goes after what was
# there, in the delta's (packed-address) order; a group named again
# keeps its place and takes the new vector; a removed group's place
# closes up.  A vector is its view's counts in rank order.  Contexts
# here are plain ordered dicts, so a group's "position" is
# ``list(...).index(...)``: this is where the table per message lives.
def _packed(address: Address) -> bytes:
    return address.pack()


def encode_delta(delta) -> bytes:
    """A parsed ``cb_ctx`` (a :class:`~repro.core.vectorclock
    .ContextDelta`) back on the wire, field by field.

    A moved entry is ``4k + 2*prefix + adjacent``, then ``gpos -
    previous - 2`` unless adjacent, then its ``k`` counts if its ranks
    are ``0 .. k-1``, else its ``(rank, count)`` pairs.  A unit entry
    (counters ``None``: every count plus one) is ``k = 0`` with the
    prefix bit and nothing after its gap.  Positions the delta lists out
    of order have no spelling: their gap is negative.
    """
    uv = encode_uvarint
    parts = [bytes([0 if delta.full else 1]), uv(len(delta.named))]
    for gid, view_id, counts in delta.named:
        parts += [gid, uv(view_id), uv(len(counts))]
        parts += [uv(count) for count in counts]
    if delta.full:
        return b"".join(parts)
    parts.append(uv(len(delta.moved)))
    previous = -1
    for gpos, counters in delta.moved:
        adjacent = gpos == previous + 1
        counters = [] if counters is None else counters
        prefix = [rank for rank, _ in counters] == list(range(len(counters)))
        parts.append(uv(4 * len(counters) + 2 * prefix + adjacent))
        if not adjacent:
            parts.append(uv(gpos - previous - 2))
        previous = gpos
        for rank, count in counters:
            parts += [uv(count)] if prefix else [uv(rank), uv(count)]
    parts.append(uv(len(delta.removed)))
    return b"".join(parts + list(delta.removed))


def encode_context_compact(context: Context,
                           prev: Optional[Ranked] = None) -> bytes:
    """``cb_ctx`` bytes for ``context``; a delta against ``prev`` when
    given: the sender's previous context *in canonical order*, which is
    what :func:`decode_context_compact` returned for its previous bytes.

    A group ``prev`` holds in the same view is named by its position in
    ``prev``, and carries the counters that moved, each by its member's
    rank, or nothing if every one moved by exactly one.  A group that is new or whose view advanced is named by
    address and carries its whole vector.  Groups ``prev`` holds and
    ``context`` does not are listed as removals.
    """
    now = ranked(context)
    named = [(gid.pack(), *now[gid]) for gid in sorted(now, key=_packed)
             if prev is None or gid not in prev
             or prev[gid][0] != now[gid][0]]
    if prev is None:
        return encode_delta(ContextDelta(True, named, [], []))
    moved = []
    for gid in prev:                        # positions ascend
        if gid not in now or prev[gid][0] != now[gid][0]:
            continue
        before, counts = prev[gid][1], now[gid][1]
        assert len(before) == len(counts), "one view, one member list"
        counters = [(rank, count) for rank, (was, count)
                    in enumerate(zip(before, counts)) if was != count]
        if counts and counts == [was + 1 for was in before]:
            counters = None                 # a unit entry
        if counters != []:
            moved.append((list(prev).index(gid), counters))
    removed = sorted(g.pack() for g in prev if g not in now)
    return encode_delta(ContextDelta(False, named, moved, removed))


def decode_context_compact(data: bytes,
                           prev: Optional[Ranked] = None) -> Ranked:
    """The absolute context a ``cb_ctx`` stands for, in canonical order;
    ``prev`` is the one rebuilt from the same sender's previous message
    (left untouched)."""
    chained = data[0] == 1
    if chained and prev is None:
        raise CodecError("delta context without a predecessor")
    out = dict(prev) if chained else {}
    named = []
    count, offset = decode_uvarint(data, 1)
    for _ in range(count):
        gid = Address.unpack(data[offset:offset + 8])
        view_id, offset = decode_uvarint(data, offset + 8)
        n, offset = decode_uvarint(data, offset)
        counts = []
        for _ in range(n):
            value, offset = decode_uvarint(data, offset)
            counts.append(value)
        named.append((gid, view_id, counts))
    if chained:
        count, offset = decode_uvarint(data, offset)
        gpos = -1
        for _ in range(count):
            word, offset = decode_uvarint(data, offset)
            if word & 1:
                gpos += 1
            else:
                gap, offset = decode_uvarint(data, offset)
                gpos += gap + 2
            gid = list(prev)[gpos]
            view_id, counts = prev[gid][0], list(prev[gid][1])
            if word >> 2 == 0:              # a unit entry
                counts = [count + 1 for count in counts]
            for rank in range(word >> 2):
                if not word & 2:
                    rank, offset = decode_uvarint(data, offset)
                counts[rank], offset = decode_uvarint(data, offset)
            out[gid] = (view_id, counts)
    for gid, view_id, counts in named:
        out[gid] = (view_id, counts)
    if chained:
        count, offset = decode_uvarint(data, offset)
        for _ in range(count):
            out.pop(Address.unpack(data[offset:offset + 8]), None)
            offset += 8
    if offset != len(data):
        raise CodecError("trailing bytes after compact context")
    return out


def context_rows(context: Context
                 ) -> Dict[bytes, Tuple[int, Tuple[bytes, ...],
                                        Dict[bytes, int]]]:
    """``context`` as :meth:`ContextEncoder.encode` takes it: ``packed
    gid -> (view id, packed members by rank, packed member -> count)``
    in gid order."""
    return dict(sorted(
        (gid.pack(), (view_id, tuple(m.pack() for m in members),
                      {m.pack(): c for m, c in vc.items()}))
        for gid, (view_id, members, vc) in context.items()))


def unpacked_context(chain) -> Ranked:
    """A :class:`~repro.core.vectorclock.ChainContext` with its groups
    unpacked, in the chain's order."""
    return {Address.unpack(gid): (view_id, counts)
            for gid, view_id, counts in chain.entries()}


# ----------------------------------------------------------------------
# CBCAST delivery as a scan of the pending buffer
# ----------------------------------------------------------------------
class ScanCausalReceiver:
    """Deliver a pending message when it is its sender's next (FIFO) and
    ``is_deliverable_ctx(context)`` says its whole causal context is
    satisfied; after each delivery, scan again from the oldest arrival.

    ``cb_ctx`` may be absent (an empty context) or the binary form, which
    is rebuilt against the context of the sender's previous message
    delivered here.
    """

    def __init__(self, is_deliverable_ctx: Callable[[Ranked], bool]):
        self.delivered = VectorClock()
        self._is_deliverable_ctx = is_deliverable_ctx
        self._pending: List[Message] = []
        #: sender -> absolute context of its last message delivered here.
        self._contexts: Dict[Address, Ranked] = {}
        self.peak_pending = 0

    def offer(self, msg: Message) -> List[Message]:
        self._pending.append(msg)
        self.peak_pending = max(self.peak_pending, len(self._pending))
        return self.recheck()

    def recheck(self) -> List[Message]:
        out: List[Message] = []
        progress = True
        while progress:
            progress = False
            for i, msg in enumerate(self._pending):
                sender, seq = msg["cb_sender"].process(), msg["cb_seq"]
                if seq != self.delivered.get(sender) + 1:
                    continue
                context = self._context_of(sender, msg.get("cb_ctx"))
                if not self._is_deliverable_ctx(context):
                    continue
                self._pending.pop(i)
                self.delivered.set(sender, seq)
                self._contexts[sender] = context
                out.append(msg)
                progress = True
                break
        return out

    def _context_of(self, sender: Address, raw) -> Ranked:
        if raw is None:
            return {}
        return decode_context_compact(bytes(raw), self._contexts.get(sender))

    def on_new_view(self) -> None:
        self.delivered = VectorClock()
        self._pending.clear()
        self._contexts.clear()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_messages(self) -> List[Message]:
        return list(self._pending)


# ----------------------------------------------------------------------
# Two-phase ABCAST delivery as a scan for the minimum
# ----------------------------------------------------------------------
class ScanTotalOrder:
    """Deliver the queue's minimum-priority message while it is final."""

    def __init__(self, site_id: int):
        self.site_id = site_id
        self._counter = 0
        #: ref -> [priority, final?, message]
        self._queue: Dict[Tuple[int, int], list] = {}

    def propose(self, ref, msg: Message):
        if ref not in self._queue:
            self._counter += 1
            self._queue[ref] = [(self._counter, self.site_id), False, msg]
        return self._queue[ref][0]

    def finalize(self, ref, final) -> List[Message]:
        if ref not in self._queue:
            return []
        self._queue[ref][:2] = [final, True]
        self._counter = max(self._counter, final[0])
        return self._drain()

    def force_order(self, order) -> List[Message]:
        for ref, priority in order:
            if tuple(ref) in self._queue:
                self._queue[tuple(ref)][:2] = [tuple(priority), True]
        return self._drain()

    def _drain(self) -> List[Message]:
        out: List[Message] = []
        while self._queue:
            ref = min(self._queue, key=lambda r: self._queue[r][0])
            _, final, msg = self._queue[ref]
            if not final:
                break
            del self._queue[ref]
            out.append(msg)
        return out

    def on_new_view(self) -> None:
        self._queue.clear()

    @property
    def pending_count(self) -> int:
        return len(self._queue)


def causal_fields(msg: Message):
    """A ``g.cb``'s causal fields, read by its declaration's kinds
    (``msg/wire.py``), for a receiver driven without a kernel:
    ``((packed sender, cb_seq), parsed cb_ctx)``.  Whatever the kernel's
    writer or reader would refuse in these three fields is
    :class:`CodecError`."""
    from repro.core.kernel import PROTOCOLS
    kinds = dict(PROTOCOLS["g.cb"].fields)

    def read(name):
        kind, value = kinds[name], msg.get(name)
        kind.put(value, bytearray(), 1)
        return value if kind.left is None else kind.left(value)
    sender, seq, delta = map(read, ("cb_sender", "cb_seq", "cb_ctx"))
    if seq < 1 or (seq == 1 and not delta.full):
        raise CodecError(f"no place in a chain: cb_seq {seq}")
    return (sender.process().pack(), seq), delta
