"""The causal context a CBCAST carries: the ``cb_ctx`` codec and
:class:`ChainContext`.

The paper's CBCAST implementation piggybacked buffered messages
([Birman-a]); we track *potential causality* (§3.1, after [Lamport-b])
with vector timestamps instead — the delivery **semantics** are identical
(see DESIGN.md, substitutions table).  Per group, a kernel counts the
CBCASTs it delivered from each sending member (``CausalReceiver
.delivered``, reset per view).  A CBCAST carries its per-sender sequence
number in the group and the sender's *causal context*: those counts, with
their view id, in every group the sender belongs to, as of the send.
Message ``m`` from ``p`` in group ``g`` is delivered when

1. FIFO: ``m.seq == delivered_g[p] + 1``, and
2. causality: for every group ``h`` in ``m.ctx`` that we belong to, our
   counts in ``h`` dominate ``m.ctx[h]`` if our view of ``h`` is the one
   named; an older one waits, a newer one satisfies (its flush delivered
   the old view's messages).

This module holds the context's wire form and both its ends; the kernel's
``check_delta_and_register`` applies rule 2.  Groups and members are
their packed 8-byte addresses throughout.
"""

from __future__ import annotations

from typing import (
    Callable,
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
from ..msg.address import ADDRESS_SIZE
from ..msg.fields import decode_uvarint, encode_uvarint


# ----------------------------------------------------------------------
# The ``cb_ctx`` wire form: binary, delta-chained, positional
# ----------------------------------------------------------------------
# At scale the ``cb_ctx`` header dominates CBCAST frame bytes, so
# consecutive messages of one sender are chained: message *n* carries
# only what changed since message *n-1*, and names what message *n-1*
# already named by its *position* there.  Per-sender FIFO delivery
# (``cb_seq`` contiguity) guarantees the predecessor context is known at
# delivery.  Everything is an unsigned LEB128 varint except an address,
# which is its packed 8 bytes::
#
#     head (kind 0)   0x00  n  n x named
#     delta (kind 1)  0x01  n  n x named  m  m x moved  r  r x gid8
#
#     named    gid8 view k  k x (member8 count)
#     moved    gpos k  k x (mpos count)  a  a x (member8 count)
#
# A group the predecessor does not hold *in the same view* is **named**:
# its whole vector, addresses packed (vectors reset per view).  A group
# it does hold in that view is **moved**: ``gpos`` is the group's
# position in the predecessor, each ``mpos`` a member's position in that
# group's entry, and the ``a`` members are the ones the vector gained.
# Groups the predecessor holds and this context does not are removed.
# Named and removed groups and gained members are listed in packed
# order, positions ascending.
#
# Both ends keep one absolute context per chain (:class:`ChainContext`)
# and move it *in place*, in one canonical order — positions are wire
# data: groups, and the members of a group's entry, stay in the order
# the chain first listed them; what a delta adds is appended in the
# delta's order, a group named again keeps its place with the new
# vector, a removal closes the gap.  The sender diffs the live delivered
# vectors against it (:class:`ContextEncoder`); the receiver parses a
# ``cb_ctx`` once on arrival (:func:`parse_context_delta`: structure,
# positions ascending, nothing trailing), checks its positions against
# the chain when the predecessor has been delivered
# (:func:`check_delta_positions`) and applies it at delivery
# (:func:`apply_context_delta`).  Nothing is rebuilt per message — no
# position table either: a position is a list index — and on this path
# groups and members stay in their packed 8-byte form: a packed address
# is its own sort key and wire form, and hashes without a call into
# ``Address``.

_CTX_FULL = 0
_CTX_DELTA = 1

#: The one-byte varints: every counter below 128 is a table lookup.
_UVARINT1 = [bytes([n]) for n in range(0x80)]


class ChainContext:
    """An absolute causal context in canonical order, by position.

    Group ``gpos`` is ``gids[gpos]`` in view ``views[gpos]``; its
    members are the tuple ``members[gpos]`` and member ``mpos`` of it
    has delivered ``counts[starts[gpos] + mpos]``.  Columns, and one
    flat list of counts, because a kernel holds one of these per sender
    and group with an entry per group the sender is in: laid out so,
    an entry is a tuple of addresses and a few list slots — nothing the
    garbage collector tracks — where a list per entry would be most of
    the objects it walks.
    """

    __slots__ = ("gids", "views", "members", "starts", "counts")

    def __init__(self) -> None:
        self.gids: List[bytes] = []
        self.views: List[int] = []
        self.members: List[Tuple[bytes, ...]] = []
        self.starts: List[int] = []
        self.counts: List[int] = []

    def name(self, gid: bytes, view_id: int, members: Iterable[bytes],
             counts: List[int]) -> None:
        """``gid`` is now this vector: in place if held, else appended."""
        try:
            gpos = self.gids.index(gid)
        except ValueError:
            self.append(gid, view_id, members, counts)
        else:
            self.views[gpos] = view_id
            self._splice(gpos, tuple(members), counts)

    def append(self, gid: bytes, view_id: int, members: Iterable[bytes],
               counts: List[int]) -> None:
        """A group not held so far, after the others."""
        self.gids.append(gid)
        self.views.append(view_id)
        self.members.append(tuple(members))
        self.starts.append(len(self.counts))
        self.counts += counts

    def gain(self, gpos: int, gained: Sequence[Tuple[bytes, int]]) -> None:
        """Group ``gpos``'s vector gains ``(member, count)``s, after the
        others, in one splice."""
        held = self.members[gpos]
        self.members[gpos] = held + tuple(member for member, _ in gained)
        at = self.starts[gpos] + len(held)
        self.counts[at:at] = [count for _, count in gained]
        self._shift(gpos, len(gained))

    def remove(self, gid: bytes) -> None:
        """``gid`` goes, if held; what came after it moves up."""
        try:
            gpos = self.gids.index(gid)
        except ValueError:
            return
        self._splice(gpos, (), [])
        for column in (self.gids, self.views, self.members, self.starts):
            del column[gpos]

    def _splice(self, gpos: int, members: Tuple[bytes, ...],
                counts: List[int]) -> None:
        """Group ``gpos``'s vector becomes ``members`` / ``counts``."""
        start = self.starts[gpos]
        held = len(self.members[gpos])
        self.members[gpos] = members
        self.counts[start:start + held] = counts
        if len(members) != held:
            self._shift(gpos, len(members) - held)

    def _shift(self, gpos: int, by: int) -> None:
        """Group ``gpos``'s vector grew ``by`` counts: the later ones
        start that much further on."""
        starts = self.starts
        starts[gpos + 1:] = [start + by for start in starts[gpos + 1:]]

    def clear(self) -> None:
        for column in self.__slots__:
            getattr(self, column).clear()

    def entries(self) -> List[Tuple[bytes, int, Tuple[bytes, ...], List[int]]]:
        """``(gid, view id, members, counts)`` per group, in order."""
        return [(gid, view_id, members, self.counts[start:start + len(members)])
                for gid, view_id, members, start
                in zip(self.gids, self.views, self.members, self.starts)]

    def copy(self) -> "ChainContext":
        out = ChainContext()
        for column in self.__slots__:
            setattr(out, column, list(getattr(self, column)))
        return out


class ContextDelta(NamedTuple):
    """One parsed ``cb_ctx``: what changed since the sender's last one.

    ``full`` marks the head of a chain, which names every group and
    moves none.  Positions are the predecessor context's, so they mean
    nothing until it is known (:func:`check_delta_positions`).
    """

    full: bool
    #: ``(gid, view id, members, counts)``: whole vectors.
    named: List[Tuple[bytes, int, List[bytes], List[int]]]
    #: ``(gpos, [(mpos, count)], [(member, count)])``: counters that
    #: moved, and members the vector gained, in a group held by position.
    moved: List[Tuple[int, List[Tuple[int, int]],
                      Sequence[Tuple[bytes, int]]]]
    removed: List[bytes]


def parse_context_delta(data: bytes) -> ContextDelta:
    """Decode a compact ``cb_ctx`` into its flat delta form."""
    if not data:
        raise CodecError("empty compact context")
    kind = data[0]
    if kind not in (_CTX_FULL, _CTX_DELTA):
        raise CodecError(f"unknown compact-context kind {kind}")
    named: List[Tuple[bytes, int, List[bytes], List[int]]] = []
    moved: List[Tuple[int, List[Tuple[int, int]],
                      Sequence[Tuple[bytes, int]]]] = []
    removed: List[bytes] = []
    # On the steady path (a delta that only moves counters) every varint
    # is one byte: those are read in line, a call apiece otherwise.
    try:
        count = data[1]
        offset = 2
        if count >= 0x80:
            count, offset = decode_uvarint(data, 1)
        for _ in range(count):
            end = offset + ADDRESS_SIZE
            gid = data[offset:end]
            view_id, offset = _read_uvarint(data, end)
            n, offset = _read_uvarint(data, offset)
            members: List[bytes] = []
            counts: List[int] = []
            for _ in range(n):
                end = offset + ADDRESS_SIZE
                members.append(data[offset:end])
                value = data[end]
                if value < 0x80:        # the common one-byte varint
                    offset = end + 1
                else:
                    value, offset = decode_uvarint(data, end)
                counts.append(value)
            named.append((gid, view_id, members, counts))
        if kind == _CTX_DELTA:
            count = data[offset]
            offset += 1
            if count >= 0x80:
                count, offset = decode_uvarint(data, offset - 1)
            last_gpos = -1
            for _ in range(count):
                gpos = data[offset]
                n = data[offset + 1]
                offset += 2
                if gpos >= 0x80 or n >= 0x80:
                    gpos, offset = decode_uvarint(data, offset - 2)
                    n, offset = decode_uvarint(data, offset)
                if gpos <= last_gpos:
                    raise CodecError("group positions do not ascend")
                last_gpos = gpos
                counters: List[Tuple[int, int]] = []
                last = -1
                for _ in range(n):
                    # Position and count each on their own: a count
                    # past 127 says nothing about the position's size.
                    mpos = data[offset]
                    if mpos < 0x80:
                        offset += 1
                    else:
                        mpos, offset = decode_uvarint(data, offset)
                    value = data[offset]
                    if value < 0x80:
                        offset += 1
                    else:
                        value, offset = decode_uvarint(data, offset)
                    if mpos <= last:
                        raise CodecError("member positions do not ascend")
                    last = mpos
                    counters.append((mpos, value))
                n = data[offset]
                offset += 1
                if n == 0:
                    moved.append((gpos, counters, ()))
                    continue
                if n >= 0x80:
                    n, offset = decode_uvarint(data, offset - 1)
                gained: List[Tuple[bytes, int]] = []
                for _ in range(n):
                    end = offset + ADDRESS_SIZE
                    member = data[offset:end]
                    value, offset = _read_uvarint(data, end)
                    gained.append((member, value))
                moved.append((gpos, counters, gained))
            count = data[offset]
            offset += 1
            if count >= 0x80:
                count, offset = decode_uvarint(data, offset - 1)
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
    return ContextDelta(kind == _CTX_FULL, named, moved, removed)


def _read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    value = data[offset]
    if value < 0x80:
        return value, offset + 1
    return decode_uvarint(data, offset)


def check_delta_positions(context: ChainContext, delta: ContextDelta) -> None:
    """Does every position in ``delta`` name something ``context``
    holds?  :class:`CodecError` if not, with nothing touched.

    ``context`` must be the delta's predecessor, which a receiver has
    once the message is its sender's next.  Positions ascend (the parser
    saw to it), so the last of a run speaks for all of it.
    """
    members = context.members
    held = len(members)
    for gpos, counters, _ in delta.moved:
        if gpos >= held:
            raise CodecError(f"context names group {gpos} of {held}")
        if counters and counters[-1][0] >= len(members[gpos]):
            raise CodecError(
                f"context names member {counters[-1][0]} of "
                f"{len(members[gpos])} in group {gpos}")


def apply_context_delta(context: ChainContext, delta: ContextDelta) -> None:
    """Advance an absolute context in place by one parsed ``cb_ctx``
    whose positions :func:`check_delta_positions` has passed.

    Positions are resolved first, against the context as the sender's
    previous message left it; then the named groups take their places
    and the removed ones go.
    """
    if delta.full:
        context.clear()
        for row in delta.named:
            context.append(*row)
        return
    starts = context.starts
    counts = context.counts
    for gpos, counters, gained in delta.moved:
        start = starts[gpos]
        for mpos, value in counters:
            counts[start + mpos] = value
        if gained:
            context.gain(gpos, gained)
    for gid, view_id, members, values in delta.named:
        context.name(gid, view_id, members, values)
    for gid in delta.removed:
        context.remove(gid)


def first_in_walk_order(candidates: List[bytes],
                        existing: Iterable[bytes]) -> bytes:
    """Which candidate group a walk meets first once a delta is applied.

    :func:`apply_context_delta` keeps ``existing`` groups in place and
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
    touched beyond one comparison per counter.  Within one view a live
    vector only grows (a new view brings a new view id), so a held
    entry's members are all still there.
    """

    __slots__ = ("_base",)

    def __init__(self) -> None:
        #: Context as of the last encode (``None``: chain head).
        self._base: Optional[ChainContext] = None

    def encode(self,
               groups: Mapping[bytes, Tuple[int, Dict[bytes, int]]]) -> bytes:
        """The next ``cb_ctx`` of the chain: ``groups`` maps ``packed
        gid -> (view id, live packed member -> count)`` in gid order."""
        base = self._base
        if base is None:
            base = self._base = ChainContext()
            out = bytearray((_CTX_FULL,))
            out += _uvarint(len(groups))
            for gid, (view_id, live) in groups.items():
                _name(base.append, out, gid, view_id, live)
            return bytes(out)
        named: List[bytes] = []
        gone: List[bytes] = []
        moved = bytearray()
        n_moved = 0
        counters = bytearray()
        views, starts, counts = base.views, base.starts, base.counts
        gpos = -1
        for gid in base.gids:
            gpos += 1
            row = groups.get(gid)
            if row is None:
                gone.append(gid)
                continue
            if row[0] != views[gpos]:
                named.append(gid)
                continue
            live = row[1]
            members = base.members[gpos]
            at = start = starts[gpos]
            n = 0
            for member in members:
                value = live.get(member, 0)
                if value != counts[at]:
                    counts[at] = value
                    n += 1
                    # Position and count each on their own: a count
                    # past 127 says nothing about the position's size.
                    if at - start < 0x80:
                        counters.append(at - start)
                    else:
                        counters += encode_uvarint(at - start)
                    if value < 0x80:
                        counters.append(value)
                    else:
                        counters += encode_uvarint(value)
                at += 1
            if len(live) > len(members):
                gained = sorted((m, live[m]) for m in live
                                if m not in members)
            elif n:
                gained = ()
            else:
                continue
            n_moved += 1
            if gpos < 0x80 and n < 0x80 and not gained:
                moved.append(gpos)      # the steady case, call-free
                moved.append(n)
                moved += counters
                moved.append(0)
            else:
                moved += _uvarint(gpos)
                moved += _uvarint(n)
                moved += counters
                moved += _uvarint(len(gained))
                if gained:
                    base.gain(gpos, gained)
                for member, value in gained:
                    moved += member
                    moved += _uvarint(value)
            counters.clear()
        if len(groups) > len(base.gids) - len(gone):
            held = set(base.gids)
            named.extend(gid for gid in groups if gid not in held)
        out = bytearray((_CTX_DELTA,))
        out += _uvarint(len(named))
        for gid in sorted(named):
            _name(base.name, out, gid, *groups[gid])
        out += _uvarint(n_moved)
        out += moved
        out += _uvarint(len(gone))
        for gid in sorted(gone):
            base.remove(gid)
            out += gid
        return bytes(out)


def _name(hold: Callable[[bytes, int, List[bytes], List[int]], None],
          out: bytearray, gid: bytes, view_id: int,
          live: Dict[bytes, int]) -> None:
    """Name ``gid`` whole: on the wire, and to the chain's base through
    its ``name`` (or, at the head, ``append``)."""
    members = sorted(live)
    counts = [live[member] for member in members]
    hold(gid, view_id, members, counts)
    out += gid
    out += _uvarint(view_id)
    out += _uvarint(len(members))
    for member, value in zip(members, counts):
        out += member
        out += _uvarint(value)


def _uvarint(n: int) -> bytes:
    return _UVARINT1[n] if 0 <= n < 0x80 else encode_uvarint(n)
