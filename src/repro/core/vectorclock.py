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
``check_delta_and_register`` applies rule 2.  Groups are their packed
8-byte addresses; a member is its rank in the view the entry names
(§3.2: the membership list is sorted by age, "the same at all members"),
so a group's vector is a list of counts in rank order.
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
# delivery.  Everything is an unsigned LEB128 varint except a group
# address, which is its packed 8 bytes::
#
#     head (kind 0)   0x00  n  n x named
#     delta (kind 1)  0x01  n  n x named  m  m x moved  r  r x gid8
#
#     named    gid8 view k  k x count
#     moved    word [gap] body
#       word   4k + 2*prefix + adjacent       k >= 1 counters moved, or
#                                             k = 0 with prefix: a unit
#       gap    gpos - previous - 2            when not adjacent
#       body   k x count                      prefix: ranks 0 .. k-1
#              k x (rank count)               otherwise
#              nothing                        unit: every count plus one
#
# A group the predecessor does not hold *in the same view* is **named**:
# its whole vector, dense, one count per member of that view in rank
# order (vectors reset per view).  A group it does hold in that view is
# **moved**: only the counters that changed, each by its member's
# ``rank`` in the view.  One view id names one member list, so a vector
# never gains a member within a view.  Groups the predecessor holds and
# this context does not are removed.
#
# A moved entry stands for its group's position ``gpos`` in the
# predecessor; entries ascend by it.  An entry right after the previous
# one's (``previous`` is -1 before the first) is *adjacent* and spells
# no position; any other carries the ``gap`` it skips.  An entry whose
# moved ranks are exactly ``0 .. k-1`` is a *prefix* and sends its
# counts alone; any other sends ascending ``(rank, count)`` pairs.  An
# entry whose every counter is its predecessor's plus one — the steady
# case: each member of the group delivered one more since the sender's
# last multicast — is a *unit* entry, ``k = 0`` with the prefix bit,
# and sends no body: one byte when adjacent.  The form is canonical, one
# delta one byte string, because a decoded message keeps its input as
# its encoding: ``k = 0`` without the prefix bit is refused, a pair list
# that spells a prefix is refused, a whole-vector prefix that spells a
# unit entry is refused where the predecessor is known
# (:func:`check_delta_positions`), a gap cannot name the adjacent
# position, named and removed groups strictly ascend in packed order,
# and no varint is longer than it needs to be.
#
# Both ends keep one absolute context per chain (:class:`ChainContext`)
# and move it *in place*, in one canonical order — group positions are
# wire data: groups stay in the order the chain first listed them; what
# a delta adds is appended in the delta's order, a group named again
# keeps its place with the new vector, a removal closes the gap.  The
# sender diffs the live delivered vectors against it
# (:class:`ContextEncoder`); the receiver parses a ``cb_ctx`` once on
# arrival (:func:`parse_context_delta`: structure, the canonical form,
# nothing trailing), checks its positions against the chain
# when the predecessor has been delivered (:func:`check_delta_positions`)
# and applies it at delivery (:func:`apply_context_delta`).  Nothing is
# rebuilt per message — no position table either: a position is a list
# index — and the chain holds no member address: a receiver maps a rank
# to a member through its own view, and only when the view ids match.
# What a chain holds beside its counts — which groups, in which views,
# of which sizes — is its *layout*, one per shape at a kernel: a delta
# that only moves counters leaves it alone, one that names or removes a
# group copies it and interns the result (:func:`intern_layout`).

_CTX_FULL = 0
_CTX_DELTA = 1

#: The one-byte varints: every counter below 128 is a table lookup.
_UVARINT1 = [bytes([n]) for n in range(0x80)]


#: A context's shape, one column per field: the groups' packed gids,
#: their view ids, their vector sizes and where each vector starts in
#: the counts.
Layout = Tuple[Tuple[bytes, ...], Tuple[int, ...], Tuple[int, ...],
               Tuple[int, ...]]

#: Most layouts one :func:`intern_layout` table holds; past it the table
#: is emptied, not grown (a peer can name any gid on the wire).
LAYOUT_CAP = 256


def intern_layout(table: Dict[Layout, Layout],
                  columns: Sequence[Sequence]) -> Layout:
    """``columns`` as a :data:`Layout`: the copy ``table`` holds, entered
    if it holds none."""
    layout = tuple(map(tuple, columns))
    held = table.get(layout)
    if held is None:
        if len(table) >= LAYOUT_CAP:
            table.clear()
        held = table[layout] = layout
    return held


class ChainContext:
    """An absolute causal context in canonical order, by position.

    Group ``gpos`` is ``gids[gpos]`` in view ``views[gpos]``, a view of
    ``sizes[gpos]`` members, where ``gids, views, sizes, starts =
    layout``; the member of rank ``r`` in it has delivered
    ``counts[starts[gpos] + r]``.  A kernel holds one of these per
    sender and group, and a sender's chains in all its groups have one
    shape, so they hold one layout: a tuple of tuples, interned
    (:func:`apply_context_delta`), which a mutation copies to lists of
    the chain's own first.  Only the flat list of counts is each
    chain's.
    """

    __slots__ = ("layout", "counts")

    def __init__(self) -> None:
        self.layout: Sequence[Sequence] = ((), (), (), ())
        self.counts: List[int] = []

    def _columns(self) -> List[list]:
        """The layout as lists of this chain's own, copied if shared."""
        layout = self.layout
        if type(layout) is tuple:
            layout = self.layout = [list(column) for column in layout]
        return layout   # type: ignore[return-value]

    def name(self, gid: bytes, view_id: int, counts: List[int]) -> None:
        """``gid`` is now this vector: in place if held, else appended."""
        try:
            gpos = self.layout[0].index(gid)
        except ValueError:
            self.append(gid, view_id, counts)
            return
        self._columns()[1][gpos] = view_id
        self._splice(gpos, counts)

    def append(self, gid: bytes, view_id: int, counts: List[int]) -> None:
        """A group not held so far, after the others."""
        gids, views, sizes, starts = self._columns()
        gids.append(gid)
        views.append(view_id)
        sizes.append(len(counts))
        starts.append(len(self.counts))
        self.counts += counts

    def remove(self, gid: bytes) -> None:
        """``gid`` goes, if held; what came after it moves up."""
        try:
            gpos = self.layout[0].index(gid)
        except ValueError:
            return
        self._splice(gpos, [])
        for column in self._columns():
            del column[gpos]

    def _splice(self, gpos: int, counts: List[int]) -> None:
        """Group ``gpos``'s vector becomes ``counts``; the later ones
        start that much further on or back."""
        _, _, sizes, starts = self._columns()
        start = starts[gpos]
        held = sizes[gpos]
        sizes[gpos] = len(counts)
        self.counts[start:start + held] = counts
        if len(counts) != held:
            by = len(counts) - held
            starts[gpos + 1:] = [at + by for at in starts[gpos + 1:]]

    def clear(self) -> None:
        self.layout = [[], [], [], []]
        self.counts = []

    def entries(self) -> List[Tuple[bytes, int, List[int]]]:
        """``(gid, view id, counts in rank order)`` per group, in order."""
        return [(gid, view_id, self.counts[start:start + size])
                for gid, view_id, size, start in zip(*self.layout)]

    def copy(self) -> "ChainContext":
        """The same context, with counts of its own: a layout of tuples
        is shared (``tuple`` of a tuple is that tuple), one of lists
        frozen."""
        out = ChainContext()
        out.layout = tuple(map(tuple, self.layout))
        out.counts = list(self.counts)
        return out


class ContextDelta(NamedTuple):
    """One parsed ``cb_ctx``: what changed since the sender's last one.

    ``full`` marks the head of a chain, which names every group and
    moves none.  Positions are the predecessor context's, so they mean
    nothing until it is known (:func:`check_delta_positions`).
    """

    full: bool
    #: ``(gid, view id, counts in rank order)``: whole vectors.
    named: List[Tuple[bytes, int, List[int]]]
    #: ``(gpos, [(rank, count)])``: counters that moved in a group held
    #: by position; ``(gpos, None)`` a unit entry, every counter plus one.
    moved: List[Tuple[int, Optional[List[Tuple[int, int]]]]]
    removed: List[bytes]


def parse_context_delta(data: bytes) -> ContextDelta:
    """Decode a compact ``cb_ctx`` into its flat delta form; anything
    but the canonical form is :class:`CodecError`."""
    if not data:
        raise CodecError("empty compact context")
    kind = data[0]
    if kind not in (_CTX_FULL, _CTX_DELTA):
        raise CodecError(f"unknown compact-context kind {kind}")
    named: List[Tuple[bytes, int, List[int]]] = []
    moved: List[Tuple[int, Optional[List[Tuple[int, int]]]]] = []
    removed: List[bytes] = []
    # On the steady path (a delta that only moves counters) every varint
    # is one byte: those are read in line, a call apiece otherwise.
    try:
        count, offset = decode_uvarint(data, 1)
        last_gid = b""
        for _ in range(count):
            end = offset + ADDRESS_SIZE
            gid = data[offset:end]
            if gid <= last_gid:
                raise CodecError("named groups do not ascend")
            last_gid = gid
            view_id, offset = decode_uvarint(data, end)
            n, offset = decode_uvarint(data, offset)
            counts: List[int] = []
            for _ in range(n):
                value = data[offset]
                if value < 0x80:        # the common one-byte varint
                    offset += 1
                else:
                    value, offset = decode_uvarint(data, offset)
                counts.append(value)
            named.append((gid, view_id, counts))
        if kind == _CTX_DELTA:
            count, offset = decode_uvarint(data, offset)
            gpos = -1
            for _ in range(count):
                word = data[offset]
                offset += 1
                if word >= 0x80:
                    word, offset = decode_uvarint(data, offset - 1)
                if word & 1:
                    gpos += 1
                else:
                    gap = data[offset]
                    offset += 1
                    if gap >= 0x80:
                        gap, offset = decode_uvarint(data, offset - 1)
                    gpos += gap + 2
                n = word >> 2
                if not n:
                    if not word & 2:
                        raise CodecError("a moved entry moves no counter")
                    moved.append((gpos, None))      # a unit entry
                    continue
                counters: List[Tuple[int, int]] = []
                if word & 2:
                    for rank in range(n):
                        value = data[offset]
                        if value < 0x80:
                            offset += 1
                        else:
                            value, offset = decode_uvarint(data, offset)
                        counters.append((rank, value))
                else:
                    last = -1
                    for _ in range(n):
                        # Rank and count each on their own: a count past
                        # 127 says nothing about the rank's size.
                        rank = data[offset]
                        if rank < 0x80:
                            offset += 1
                        else:
                            rank, offset = decode_uvarint(data, offset)
                        value = data[offset]
                        if value < 0x80:
                            offset += 1
                        else:
                            value, offset = decode_uvarint(data, offset)
                        if rank <= last:
                            raise CodecError("member ranks do not ascend")
                        last = rank
                        counters.append((rank, value))
                    if last == n - 1:
                        raise CodecError("a rank prefix spelled as pairs")
                moved.append((gpos, counters))
            count, offset = decode_uvarint(data, offset)
            last_gid = b""
            for _ in range(count):
                gid = data[offset:offset + ADDRESS_SIZE]
                if gid <= last_gid:
                    raise CodecError("removed groups do not ascend")
                last_gid = gid
                removed.append(gid)
                offset += ADDRESS_SIZE
    except IndexError:
        raise CodecError("truncated compact context") from None
    if offset > len(data):      # a removal's slice ran off the end
        raise CodecError("truncated compact context")
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after "
                         "compact context")
    return ContextDelta(kind == _CTX_FULL, named, moved, removed)


def check_delta_positions(context: ChainContext, delta: ContextDelta) -> None:
    """Does every position in ``delta`` name something ``context``
    holds?  :class:`CodecError` if not, with nothing touched.

    ``context`` must be the delta's predecessor, which a receiver has
    once the message is its sender's next.  Positions and ranks ascend
    (the parser saw to it), so the last of a run speaks for all of it.
    Only here is the predecessor known, so only here is the one spelling
    of a unit entry held: a whole vector whose counts are each one past
    the predecessor's is refused, and so is a unit entry in a vector of
    no member.
    """
    _, _, sizes, starts = context.layout
    held = len(sizes)
    for gpos, counters in delta.moved:
        if gpos >= held:
            raise CodecError(f"context names group {gpos} of {held}")
        size = sizes[gpos]
        if counters is None:
            if not size:
                raise CodecError(f"a unit entry in group {gpos} of no member")
            continue
        if counters[-1][0] >= size:
            raise CodecError(
                f"context names rank {counters[-1][0]} of "
                f"{size} in group {gpos}")
        if len(counters) == size:
            counts, start = context.counts, starts[gpos]
            if all(value == counts[start + rank] + 1
                   for rank, value in counters):
                raise CodecError(f"group {gpos}'s unit entry spelled whole")


def apply_context_delta(context: ChainContext, delta: ContextDelta,
                        layouts: Dict[Layout, Layout]) -> None:
    """Advance an absolute context in place by one parsed ``cb_ctx``
    whose positions :func:`check_delta_positions` has passed.

    Positions are resolved first, against the context as the sender's
    previous message left it; then the named groups take their places
    and the removed ones go, and a new layout is interned in ``layouts``.
    """
    if delta.full:
        context.clear()
        for row in delta.named:
            context.append(*row)
    else:
        _, _, sizes, starts = context.layout
        counts = context.counts
        for gpos, counters in delta.moved:
            start = starts[gpos]
            if counters is None:
                for at in range(start, start + sizes[gpos]):
                    counts[at] += 1
                continue
            for rank, value in counters:
                counts[start + rank] = value
        if not (delta.named or delta.removed):
            return
        for row in delta.named:
            context.name(*row)
        for gid in delta.removed:
            context.remove(gid)
    context.layout = intern_layout(layouts, context.layout)


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


#: What a :class:`ContextEncoder` reads of one group: its view id, the
#: view's members packed in rank order, and the *live* ``packed member
#: -> count`` delivered vector.
GroupRow = Tuple[int, Tuple[bytes, ...], Dict[bytes, int]]


class ContextEncoder:
    """Send side of one delta chain (one sender in one group view).

    Keeps the absolute context of the previous ``cb_ctx`` and diffs the
    caller's *live* vectors against it, updating it in place — no
    snapshot of the live state is taken and nothing unchanged is
    touched beyond one comparison per counter.  Within one view the
    members, and so the ranks, stay as they are (a new view brings a
    new view id, and is named whole).
    """

    __slots__ = ("_base", "_layouts")

    def __init__(self, layouts: Dict[Layout, Layout]) -> None:
        #: Context as of the last encode (``None``: chain head).
        self._base: Optional[ChainContext] = None
        #: Where a new layout of the base is interned: the ``layouts``
        #: of the kernel's :class:`~repro.core.cbcast.CausalCheck`.
        self._layouts = layouts

    def encode(self, groups: Mapping[bytes, GroupRow]) -> bytes:
        """The next ``cb_ctx`` of the chain: ``groups`` maps ``packed
        gid -> (view id, members by rank, live counts)`` in gid order."""
        base = self._base
        if base is None:
            base = self._base = ChainContext()
            out = bytearray((_CTX_FULL,))
            out += _uvarint(len(groups))
            for gid, row in groups.items():
                _name(base.append, out, gid, *row)
            base.layout = intern_layout(self._layouts, base.layout)
            return bytes(out)
        named: List[bytes] = []
        gone: List[bytes] = []
        moved = bytearray()
        n_moved = 0
        body = bytearray()
        gids, views, _, starts = base.layout
        counts = base.counts
        gpos = last = -1
        for gid in gids:
            gpos += 1
            row = groups.get(gid)
            if row is None:
                gone.append(gid)
                continue
            view_id, members, live = row
            if view_id != views[gpos]:
                named.append(gid)
                continue
            at = start = starts[gpos]
            n = 0
            prefix = unit = True
            for member in members:
                value = live.get(member, 0)
                was = counts[at]
                if value != was:
                    counts[at] = value
                    if value != was + 1:
                        unit = False
                    rank = at - start
                    if prefix and rank != n:
                        # Not ranks 0 .. n-1 after all: what the body
                        # holds so far becomes (rank, count) pairs.
                        prefix = False
                        body.clear()
                        for was in range(n):
                            body += _uvarint(was)
                            body += _uvarint(counts[start + was])
                    if not prefix:
                        body += _uvarint(rank)
                    if value < 0x80:
                        body.append(value)      # the steady case
                    else:
                        body += encode_uvarint(value)
                    n += 1
                at += 1
            if not n:
                continue
            n_moved += 1
            if unit and n == len(members):
                # Every counter one past the base's: a unit entry.
                n = 0
                body.clear()
            word = n << 2 | prefix << 1 | (gpos == last + 1)
            if word < 0x80:
                moved.append(word)
            else:
                moved += encode_uvarint(word)
            if gpos != last + 1:
                moved += _uvarint(gpos - last - 2)
            last = gpos
            moved += body
            body.clear()
        if len(groups) > len(gids) - len(gone):
            held = set(gids)
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
        if named or gone:
            base.layout = intern_layout(self._layouts, base.layout)
        return bytes(out)


def _name(hold: Callable[[bytes, int, List[int]], None],
          out: bytearray, gid: bytes, view_id: int,
          members: Sequence[bytes], live: Dict[bytes, int]) -> None:
    """Name ``gid`` whole: on the wire, and to the chain's base through
    its ``name`` (or, at the head, ``append``)."""
    counts = [live.get(member, 0) for member in members]
    hold(gid, view_id, counts)
    out += gid
    out += _uvarint(view_id)
    out += _uvarint(len(counts))
    for value in counts:
        out += _uvarint(value)


def _uvarint(n: int) -> bytes:
    return _UVARINT1[n] if 0 <= n < 0x80 else encode_uvarint(n)
