"""Vector timestamps for causal (CBCAST) delivery.

The paper's CBCAST implementation piggybacked buffered messages
([Birman-a]); we track *potential causality* (§3.1, after [Lamport-b])
with vector clocks instead — the delivery **semantics** are identical
(see DESIGN.md, substitutions table).

Per group, each kernel keeps the vector of CBCAST sequence numbers it has
delivered, indexed by sending member.  A CBCAST carries

* its own per-sender sequence number within the group, and
* the sender's *causal context*: a map ``group → delivered-vector``
  snapshot taken at send time (covering every group the sender belongs
  to, so causality created by multi-group chains is honoured for common
  members).

Delivery rule for message ``m`` from sender ``p`` in group ``g``:

1. FIFO: ``m.seq == delivered_g[p] + 1``;
2. Causality: for every group ``h`` in ``m.ctx`` that we belong to, our
   delivered vector in ``h`` dominates ``m.ctx[h]`` (restricted to
   current members — departed members' messages were flushed before the
   view we are in).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import CodecError
from ..msg.address import ADDRESS_SIZE, Address
from ..msg.fields import decode_uvarint, encode_uvarint


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

    def first_deficit(
        self, other: "VectorClock",
    ) -> Optional[Tuple[Address, int]]:
        """First ``(member, value)`` of ``other`` not yet covered by self.

        Returns None when ``self`` dominates ``other``.  The scan order is
        ``other``'s (deterministic) insertion order, so repeated calls as
        ``self`` advances walk the deficits one threshold at a time —
        this is what the kernel's WaitIndex registers delivery waits on.
        """
        clock = self._clock
        for member, value in other._clock.items():
            if clock.get(member, 0) < value:
                return member, value
        return None

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

    def drop(self, member: Address) -> None:
        self._clock.pop(member.process(), None)

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


# ----------------------------------------------------------------------
# The ``cb_ctx`` wire form: binary, delta-chained
# ----------------------------------------------------------------------
# At scale the ``cb_ctx`` header dominates CBCAST frame bytes, so
# addresses are packed raw (8 bytes), counters are LEB128 varints, and
# consecutive messages of one sender are chained: message *n* carries
# only the entries that changed since message *n-1*.  Per-sender FIFO
# delivery (``cb_seq`` contiguity) guarantees the predecessor context is
# known at delivery.
#
# Both ends keep one absolute context per chain and move it *in place*:
# the sender diffs the live delivered vectors against it
# (:class:`ContextEncoder`), the receiver parses a ``cb_ctx`` once
# (:func:`parse_context_delta`) and applies it at delivery
# (:func:`apply_context_delta`).  Nothing is rebuilt per message, and
# on this path groups and members stay in their packed 8-byte form
# (:class:`PackedContext`): a packed address is its own sort key and
# wire form, and hashes without a call into :class:`Address`.

Context = Dict[Address, Tuple[int, "VectorClock"]]

#: A context keyed by packed addresses: gid -> (view id, member -> count).
PackedContext = Dict[bytes, Tuple[int, Dict[bytes, int]]]

#: ``(packed member, count)`` pairs of one context entry, in wire order.
Counters = List[Tuple[bytes, int]]

_CTX_FULL = 0
_CTX_DELTA = 1

#: The one-byte varints: every counter below 128 is a table lookup.
_UVARINT1 = [bytes([n]) for n in range(0x80)]


class ContextDelta(NamedTuple):
    """One parsed ``cb_ctx``: what changed since the sender's last one.

    ``full`` marks the head of a chain, which names every group.  An
    entry whose group the predecessor context holds *in the same view*
    lists only the counters that moved; any other entry is that group's
    whole vector (vectors reset per view).
    """

    full: bool
    entries: List[Tuple[bytes, int, Counters]]
    removed: List[bytes]


def parse_context_delta(data: bytes) -> ContextDelta:
    """Decode a compact ``cb_ctx`` into its flat delta form."""
    if not data:
        raise CodecError("empty compact context")
    kind = data[0]
    if kind not in (_CTX_FULL, _CTX_DELTA):
        raise CodecError(f"unknown compact-context kind {kind}")
    entries: List[Tuple[bytes, int, Counters]] = []
    removed: List[bytes] = []
    try:
        count, offset = _read_uvarint(data, 1)
        for _ in range(count):
            end = offset + ADDRESS_SIZE
            gid = data[offset:end]
            view_id, offset = _read_uvarint(data, end)
            n, offset = _read_uvarint(data, offset)
            counters: Counters = []
            for _ in range(n):
                end = offset + ADDRESS_SIZE
                member = data[offset:end]
                value = data[end]
                if value < 0x80:        # the common one-byte varint
                    offset = end + 1
                else:
                    value, offset = decode_uvarint(data, end)
                counters.append((member, value))
            entries.append((gid, view_id, counters))
        if kind == _CTX_DELTA:
            count, offset = _read_uvarint(data, offset)
            for _ in range(count):
                removed.append(data[offset:offset + ADDRESS_SIZE])
                offset += ADDRESS_SIZE
    except IndexError:
        raise CodecError("truncated compact context") from None
    if offset > len(data):      # a removal's slice ran off the end
        raise CodecError("truncated compact context")
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after "
                         "compact context")
    return ContextDelta(kind == _CTX_FULL, entries, removed)


def _read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    value = data[offset]
    if value < 0x80:
        return value, offset + 1
    return decode_uvarint(data, offset)


def apply_context_delta(context: PackedContext, delta: ContextDelta) -> None:
    """Advance an absolute context in place by one parsed ``cb_ctx``.

    Existing keys keep their dictionary position and new ones append, in
    groups and in counters alike, so walking the advanced context meets
    thresholds in one reproducible order.
    """
    chained = not delta.full
    if not chained:
        context.clear()
    for gid, view_id, counters in delta.entries:
        entry = context.get(gid)
        if chained and entry is not None and entry[0] == view_id:
            entry[1].update(counters)
        else:
            context[gid] = (view_id, dict(counters))
    for gid in delta.removed:
        context.pop(gid, None)


def advanced_context(context: PackedContext, delta: ContextDelta) -> Context:
    """``context`` advanced by ``delta``, as a new :data:`Context` (the
    full walk's input; the chains themselves advance in place)."""
    out = {gid: (view_id, dict(counters))
           for gid, (view_id, counters) in context.items()}
    apply_context_delta(out, delta)
    unpack = Address.unpack
    return {
        unpack(gid): (view_id, VectorClock(
            {unpack(member): count for member, count in counters.items()}))
        for gid, (view_id, counters) in out.items()
    }


def first_in_walk_order(candidates: List[bytes],
                        existing: Iterable[bytes]) -> bytes:
    """Which candidate a walk meets first once they are applied.

    :func:`apply_context_delta` keeps ``existing`` keys in place and
    appends the new ones in delta (= ``candidates``) order.
    """
    if len(candidates) > 1:
        wanted = set(candidates)
        for key in existing:
            if key in wanted:
                return key
    return candidates[0]


class ContextEncoder:
    """Send side of one delta chain (one sender in one group view).

    Keeps the absolute context of the previous ``cb_ctx`` and diffs the
    caller's *live* vectors against it, updating it in place — no
    snapshot of the live state is taken and nothing unchanged is
    touched beyond one comparison per counter.
    """

    __slots__ = ("_base",)

    def __init__(self) -> None:
        #: Context as of the last encode (``None``: chain head).
        self._base: Optional[PackedContext] = None

    def encode(self,
               groups: Sequence[Tuple[bytes, int, Dict[bytes, int]]]) -> bytes:
        """The next ``cb_ctx`` of the chain: ``groups`` lists ``(packed
        gid, view id, live packed member -> count)`` in gid order."""
        base = self._base
        full = base is None
        if full:
            base = self._base = {}
        entries: List[bytes] = []
        for gid, view_id, live in groups:
            slot = base.get(gid)
            if slot is not None and slot[0] == view_id:
                seen = slot[1]
                changed = [mc for mc in live.items()
                           if seen.get(mc[0], 0) != mc[1]]
                if not changed:
                    continue
                seen.update(changed)
                changed.sort()
            else:
                base[gid] = (view_id, dict(live))
                changed = sorted(live.items())
            parts = [gid, _uvarint(view_id), _uvarint(len(changed))]
            for member, count in changed:
                parts.append(member)
                parts.append(_uvarint(count))
            entries.append(b"".join(parts))
        if full:
            return b"".join(
                [_UVARINT1[_CTX_FULL], _uvarint(len(groups)), *entries])
        parts = [_UVARINT1[_CTX_DELTA], _uvarint(len(entries)), *entries]
        if len(base) > len(groups):
            # Every listed group is in the base by now: the surplus left.
            listed = {row[0] for row in groups}
            gone = sorted(gid for gid in base if gid not in listed)
            for gid in gone:
                del base[gid]
            parts.append(_uvarint(len(gone)))
            parts.extend(gone)
        else:
            parts.append(_UVARINT1[0])
        return b"".join(parts)


def _uvarint(n: int) -> bytes:
    return _UVARINT1[n] if 0 <= n < 0x80 else encode_uvarint(n)
