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

The *have-vector* summarises reception per origin site as the maximum
contiguous gseq, which is all a flush coordinator needs to compute the
union cut.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..msg.message import Message

Tag = Tuple[int, int]  # (origin_site, gseq) within the current view


class MessageStore:
    """Buffered group messages for one group at one member kernel."""

    __slots__ = ("_messages", "_contiguous", "_gapped",
                 "_buffered_bytes", "_trimmed")

    def __init__(self) -> None:
        #: Each buffered message's wire bytes.
        self._messages: Dict[Tag, bytes] = {}
        #: Per origin site: highest contiguous gseq seen (gseq starts at 1).
        self._contiguous: Dict[int, int] = {}
        #: Per origin site: gseqs received above a gap (possible during
        #: flush refill).
        self._gapped: Dict[int, Set[int]] = {}
        #: Encoded bytes currently buffered (kept incrementally).
        self._buffered_bytes = 0
        #: Per origin site: the stable cut already applied.  Nothing at
        #: or below it is buffered, and nothing can be again: it never
        #: passes the contiguous top, below which ``record`` refuses.
        self._trimmed: Dict[int, int] = {}

    # -- recording ---------------------------------------------------------
    def record(self, origin_site: int, gseq: int, msg: Message) -> bool:
        """Buffer a message as its wire bytes; returns True if it was new."""
        tag = (origin_site, gseq)
        if tag in self._messages:
            return False
        if gseq <= self._contiguous.get(origin_site, 0):
            # Everything up to the contiguous floor was received here,
            # even if since trimmed as stable: a late copy (flush refill
            # racing a trim) must not be mistaken for a new message.
            return False
        data = self._messages[tag] = msg.encode()
        self._buffered_bytes += len(data)
        top = self._contiguous.get(origin_site, 0)
        if gseq == top + 1:
            top = gseq
            pending = self._gapped.get(origin_site, ())
            while top + 1 in pending:
                top += 1
                pending.remove(top)
            self._contiguous[origin_site] = top
        else:
            self._gapped.setdefault(origin_site, set()).add(gseq)
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
        return dict(self._contiguous)

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
            floor = self._contiguous.get(origin_site, 0)
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
            ceiling = self._contiguous.get(origin_site, 0)
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
        self._contiguous.clear()
        self._gapped.clear()
        self._buffered_bytes = 0
        self._trimmed.clear()

    @property
    def buffered_count(self) -> int:
        return len(self._messages)

    @property
    def buffered_bytes(self) -> int:
        """Encoded bytes held for potential flush refill."""
        return self._buffered_bytes
