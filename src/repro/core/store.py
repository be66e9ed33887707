"""Per-group message store: buffering, dedupe, have-vectors, stability.

Every group data message is tagged ``(view_id, origin_site, gseq)`` where
``gseq`` is a per-(group, view, origin-site) counter.  Each member kernel:

* records its *own* sends immediately (so the flush union always contains
  every message that any survivor could ever receive);
* records receptions, deduplicating by tag;
* discards messages from views older than its current one (a message is
  delivered in the view it was sent in, or nowhere — the atomicity part
  of view synchrony);
* retains everything until told it is *stable* (received at every member
  site), because an unstable message may have to be re-sent to a peer
  during a flush.

A message is buffered as its wire bytes: the frame a received envelope
was decoded from, or the bytes fan-out sends for our own.  Nothing
mutates an envelope once it is recorded, so a flush refill re-sends
exactly what was recorded, decoded again only for that
(:meth:`MessageStore.get`).

What was received is a :class:`SeqSet`, whose floors are the
*have-vector* (per origin site the maximum contiguous gseq), which is
all a flush coordinator needs to compute the union cut.  The
write-ahead log keeps its delivered cut as a ``SeqSet`` too.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import CodecError
from ..msg.message import Message

Tag = Tuple[int, int]  # (origin_site, gseq) within the current view


class SeqSet:
    """A set of ``(origin, gseq)`` tags, gseqs counted from 1: per
    origin a floor (every gseq 1 … floor is in) and the gseqs in above
    a gap.  It is exact: the causal and total queues drain one origin's
    counter independently, so a per-origin maximum would not do.

    On the wire (the ``delivered`` kind) it has one spelling, which
    :meth:`entries` writes and :meth:`from_entries` alone reads.
    """

    __slots__ = ("floors", "_gapped")

    def __init__(self) -> None:
        #: Per origin with a floor of 1 or more: the floor (the
        #: have-vector, in the order the floors were first raised).
        self.floors: Dict[int, int] = {}
        self._gapped: Dict[int, Set[int]] = {}

    def add(self, origin: int, gseq: int) -> bool:
        """Put ``(origin, gseq)`` in; False if it was in already."""
        floor = self.floors.get(origin, 0)
        if gseq <= floor:
            return False
        gapped = self._gapped.get(origin)
        if gseq == floor + 1:
            while gapped and gseq + 1 in gapped:
                gseq += 1
                gapped.remove(gseq)
            self.floors[origin] = gseq
            return True
        if gapped is None:
            gapped = self._gapped[origin] = set()
        elif gseq in gapped:
            return False
        gapped.add(gseq)
        return True

    def __contains__(self, tag: Tag) -> bool:
        origin, gseq = tag
        return (gseq <= self.floors.get(origin, 0)
                or gseq in self._gapped.get(origin, ()))

    def __le__(self, other: "SeqSet") -> bool:
        """Is every tag of this set in ``other``?"""
        floors = other.floors
        for origin, floor in self.floors.items():
            if floor > floors.get(origin, 0):
                return False
        for origin, gapped in self._gapped.items():
            if not all((origin, gseq) in other for gseq in gapped):
                return False
        return True

    def copy(self) -> "SeqSet":
        out = SeqSet()
        out.floors = dict(self.floors)
        out._gapped = {origin: set(gapped)
                       for origin, gapped in self._gapped.items()}
        return out

    def entries(self) -> list:
        """The ``delivered`` wire kind: ``[origin, floor, gapped]`` by
        ascending origin, the gapped gseqs ascending."""
        return [[origin, self.floors.get(origin, 0),
                 sorted(self._gapped.get(origin, ()))]
                for origin in sorted(self.floors.keys() | self._gapped)]

    @classmethod
    def from_entries(cls, entries: Iterable) -> "SeqSet":
        """Inverse of :meth:`entries`; :class:`CodecError` on any other
        spelling (an origin repeated or out of order, an empty entry, a
        gapped gseq at or below ``floor + 1``, gapped gseqs repeated or
        out of order)."""
        out, last = cls(), -1
        for origin, floor, gapped in entries:
            if origin <= last:
                raise CodecError(f"origin {origin} after {last}")
            last, low = origin, floor + 1
            for gseq in gapped:
                if gseq <= low:
                    raise CodecError(f"origin {origin}: gapped gseq {gseq} "
                                     f"not above {low}")
                low = gseq
            if floor:
                out.floors[origin] = floor
            elif not gapped:
                raise CodecError(f"origin {origin}: an empty entry")
            if gapped:
                out._gapped[origin] = set(gapped)
        return out


class MessageStore:
    """Buffered group messages for one group at one member kernel."""

    __slots__ = ("_messages", "_received", "_buffered_bytes", "_trimmed")

    def __init__(self) -> None:
        #: Each buffered message's wire bytes.
        self._messages: Dict[Tag, bytes] = {}
        #: Every tag received in this view, trimmed or not (above a gap
        #: only during a flush refill).
        self._received = SeqSet()
        #: Encoded bytes currently buffered (kept incrementally).
        self._buffered_bytes = 0
        #: Per origin site: the stable cut already applied.  Nothing at
        #: or below it is buffered, and nothing can be again: it never
        #: passes the contiguous top, below which ``record`` refuses.
        self._trimmed: Dict[int, int] = {}

    # -- recording ---------------------------------------------------------
    def record(self, origin_site: int, gseq: int, msg: Message) -> bool:
        """Buffer a message as its wire bytes; returns True if it was new."""
        # A tag received before is refused even if since trimmed as
        # stable: a late copy (flush refill racing a trim) must not be
        # mistaken for a new message.
        if not self._received.add(origin_site, gseq):
            return False
        data = self._messages[(origin_site, gseq)] = msg.encode()
        self._buffered_bytes += len(data)
        return True

    def has(self, origin_site: int, gseq: int) -> bool:
        return (origin_site, gseq) in self._messages

    def get(self, origin_site: int, gseq: int) -> Optional[Message]:
        """The buffered message, decoded from the bytes recorded (which
        it re-encodes to), or None."""
        data = self._messages.get((origin_site, gseq))
        return None if data is None else Message.decode(data)

    # -- have-vectors -----------------------------------------------------------
    def have_vector(self) -> Dict[int, int]:
        """Per origin site: highest contiguous gseq received."""
        return dict(self._received.floors)

    def all_tags(self) -> List[Tag]:
        return sorted(self._messages)

    def missing_from(self, union: Dict[int, int]) -> List[Tag]:
        """Tags in ``union`` (per-site maxima) that we never received.

        Messages at or below the contiguous floor were received here and
        possibly trimmed since — a trim only ever drops messages stable
        at *every* member site, so nothing below the floor can be needed
        for a flush refill.
        """
        missing = []
        for origin_site, top in union.items():
            floor = self._received.floors.get(origin_site, 0)
            for gseq in range(floor + 1, top + 1):
                if (origin_site, gseq) not in self._messages:
                    missing.append((origin_site, gseq))
        return missing

    @staticmethod
    def union(have_vectors: Iterable[Dict[int, int]]) -> Dict[int, int]:
        """Pointwise maximum over several have-vectors."""
        out: Dict[int, int] = {}
        for have in have_vectors:
            for origin_site, top in have.items():
                if top > out.get(origin_site, 0):
                    out[origin_site] = top
        return out

    def complete_for(self, union: Dict[int, int]) -> bool:
        """Do we hold every message up to the union cut?"""
        return not self.missing_from(union)

    # -- stability / lifecycle -----------------------------------------------------
    def trim_stable(self, stable: Dict[int, int]) -> int:
        """Drop messages known received everywhere; returns count dropped.

        Costs what the cut advanced, not what is buffered: per origin
        only ``applied + 1 … new`` can still be here.  A stable cut is a
        minimum that includes this site's own have-vector, so it is
        capped at the contiguous top (which also bounds the work a
        made-up ``g.stab.dn`` can ask for).
        """
        dropped = 0
        for origin_site, top in stable.items():
            applied = self._trimmed.get(origin_site, 0)
            if top <= applied:
                continue
            ceiling = self._received.floors.get(origin_site, 0)
            if top > ceiling:
                top = ceiling
            self._trimmed[origin_site] = top
            for gseq in range(applied + 1, top + 1):
                self._buffered_bytes -= len(
                    self._messages.pop((origin_site, gseq)))
            dropped += top - applied
        return dropped

    def reset(self) -> None:
        """New view installed: all old-view messages are settled."""
        self._messages.clear()
        self._received = SeqSet()
        self._buffered_bytes = 0
        self._trimmed.clear()

    @property
    def buffered_count(self) -> int:
        return len(self._messages)

    @property
    def buffered_bytes(self) -> int:
        """Encoded bytes held for potential flush refill."""
        return self._buffered_bytes
