"""CBCAST delivery queue: causal order within and across groups.

See :mod:`repro.core.vectorclock` for the delivery rule.  This module
holds the per-group receiver state: the delivered vector and the queue of
messages waiting for causal predecessors.  The surrounding engine feeds
it received CBCASTs and drains whatever became deliverable.

Pending messages are keyed by ``(sender, seq)``.  Delivering seq *k* of
a sender wakes exactly ``(sender, k+1)``; a message whose cross-group
causal context is unsatisfied registers one precise wait threshold in
the kernel's :class:`~repro.core.kernel.WaitIndex` and is woken only
when that threshold is crossed.  Each arrival or wake costs O(1)
amortized, independent of pending depth.

The drain evaluates *candidates* — pending messages whose blocking
condition may have cleared — in arrival order, which is the order a scan
of the whole pending buffer would discover deliverable messages in
(``tests/properties/reference_causal.py`` holds that scan as the
reference).  An arrival while no candidate is marked would be the
drain's first and only candidate, so it is evaluated at once and enters
the pending buffer only if it must wait: an in-order stream never
touches the buffer or the heap.  The completeness invariant is that
every deliverable pending message is a candidate: new arrivals are
candidates, a FIFO-blocked message is woken by its predecessor's
delivery, and a context-blocked message always holds a WaitIndex
registration on the first threshold its context fails.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import CodecError
from ..msg.message import Message
from .vectorclock import (
    ChainContext,
    ContextDelta,
    apply_context_delta,
    check_delta_positions,
)

#: A pending CBCAST is identified by (packed sender process, per-view
#: seq): the sender in the form delivered counts and contexts key it by.
PendingKey = Tuple[bytes, int]


#: What a ``g.cb`` adds to a data envelope (``msg/wire.py`` parses it):
#: who sent it, its number in that sender's stream, and what the sender
#: had delivered by then — ``None`` for this kernel's own send, whose
#: context is satisfied here by construction.
CausalFields = Tuple[PendingKey, Optional[ContextDelta]]

class SenderChain:
    """One sender's ``cb_ctx`` delta chain at one receiver."""

    __slots__ = ("context", "installs")

    def __init__(self) -> None:
        #: The sender's absolute context as of its last message delivered
        #: here, advanced in place at each delivery.
        self.context = ChainContext()
        #: The kernel's group-install count when that message's context
        #: check passed (see ``check_delta_and_register``).
        self.installs = -1


class CausalReceiver:
    """Receiver-side causal ordering for one group at one kernel.

    ``cb_ctx`` fields are delta-chained per sender: message *n* encodes
    only what changed since message *n-1*.  Because the FIFO rule
    already forces delivery in contiguous ``cb_seq`` order, a message
    becomes a delivery candidate only once its predecessor was delivered
    here, so the receiver keeps one absolute context per sender
    (:class:`SenderChain`), advanced in place at delivery, and a pending
    message keeps its ``cb_ctx`` parsed once, on arrival, as a flat
    delta.  A delta names what the predecessor context holds by position
    there, so its positions can only be judged once it is a candidate:
    one that names nothing is malformed outside input found late — the
    message leaves the pending buffer, ``on_refuse()`` counts it, and
    chain, delivered vector and wait index stay as they were.

    This kernel's own copy of its send carries no delta (``None``) and
    is delivered on the FIFO rule alone, without a chain: its context is
    our delivered counts at send time, which only grow within a view,
    and it comes here only from the send (the store drops a refill or a
    relay of an envelope this site stored).

    One delivered vector, ``delivered``, read by the FIFO rule, the
    kernel's context check and the send side's encoder.  It, the pending
    buffer and the chains key a sender packed, as a ``cb_ctx`` does.

    ``delta_check(chain, delta, key)`` says whether the context ``chain``
    advanced by ``delta`` is satisfied and, if not, registers ``key``
    against the first unsatisfied threshold so a later advance re-marks
    the message as a candidate (``ProtocolsProcess.
    check_delta_and_register``).  ``on_advance(sender, seq)`` tells the
    kernel this group's delivered vector advanced, waking cross-group
    waiters.
    """

    __slots__ = ("delivered", "_pending", "_chains",
                 "_delta_check", "_on_advance", "_on_refuse",
                 "_next_arrival", "_ready", "_ready_set", "peak_pending")

    def __init__(self,
                 delta_check: Callable[
                     [SenderChain, ContextDelta, PendingKey], bool],
                 on_advance: Callable[[bytes, int], None],
                 on_refuse: Callable[[], None]):
        #: Delivered CBCAST count per packed sender (resets per view).
        self.delivered: Dict[bytes, int] = {}
        self._delta_check = delta_check
        self._on_advance = on_advance
        self._on_refuse = on_refuse
        #: (sender, seq) -> (arrival index, pending message, its parsed
        #: ``cb_ctx`` or None); the drain evaluates in arrival order.
        self._pending: Dict[
            PendingKey, Tuple[int, Message, Optional[ContextDelta]]] = {}
        self._next_arrival = 0
        #: Min-heap of (arrival, key): candidates awaiting evaluation.
        self._ready: List[Tuple[int, PendingKey]] = []
        self._ready_set: Set[PendingKey] = set()
        #: Per-sender delta chain, remote senders only.
        self._chains: Dict[bytes, SenderChain] = {}
        #: High-water mark of the pending buffer (kernel stats).
        self.peak_pending = 0

    def offer(self, msg: Message, causal: CausalFields) -> List[Message]:
        """Feed one received CBCAST, with its causal fields; return
        messages now deliverable, in order."""
        key, delta = causal
        pending = self._pending
        if key in pending:
            return []
        entry = (self._next_arrival, msg, delta)
        self._next_arrival += 1
        if len(pending) >= self.peak_pending:
            self.peak_pending = len(pending) + 1
        if self._ready:
            # Marked candidates arrived earlier: the drain takes them first.
            pending[key] = entry
            self.mark_candidate(key)
            return self.recheck()
        # Nothing is marked, so a drain would evaluate this arrival first:
        # evaluate it without queueing it.
        delivered = self._evaluate(key, entry)
        out = [] if delivered is None else [delivered]
        if self._ready:  # its delivery woke its successor or a waiter
            out += self.recheck()
        return out

    def mark_candidate(self, key: PendingKey) -> bool:
        """A blocking condition for ``key`` may have cleared.

        Returns True if the message is pending here and was not already
        marked (the kernel uses this to decide whether a recheck pass is
        owed to this group).
        """
        entry = self._pending.get(key)
        if entry is None or key in self._ready_set:
            return False
        self._ready_set.add(key)
        heapq.heappush(self._ready, (entry[0], key))
        return True

    def recheck(self) -> List[Message]:
        """Evaluate the marked candidates; return what became deliverable
        (e.g. after another group advanced), in order."""
        out: List[Message] = []
        while self._ready:
            _, key = heapq.heappop(self._ready)
            self._ready_set.discard(key)
            entry = self._pending.pop(key, None)
            if entry is None:
                continue  # stale wake: delivered or dropped meanwhile
            delivered = self._evaluate(key, entry)
            if delivered is not None:
                out.append(delivered)
        return out

    def _evaluate(self, key: PendingKey,
                  entry: Tuple[int, Message, Optional[ContextDelta]],
                  ) -> Optional[Message]:
        """Deliver candidate ``key``, whose ``entry`` is out of the pending
        buffer, and return its message; or put it back to wait, or drop
        it if its delta names nothing (``None`` for both)."""
        _, msg, delta = entry
        sender, seq = key
        if seq != self.delivered.get(sender, 0) + 1:
            # FIFO-blocked: the predecessor's delivery re-marks it.
            self._pending[key] = entry
            return None
        if delta is not None:   # a remote sender's: its context can fail
            chain = self._chains.get(sender)
            if chain is None:
                chain = self._chains[sender] = SenderChain()
            try:
                # Its predecessor was delivered here: the chain is this
                # delta's base, whose positions can be judged at last.
                check_delta_positions(chain.context, delta)
            except CodecError:
                self._on_refuse()
                return None
            if not self._delta_check(chain, delta, key):
                # Blocked on a cross-group threshold; the check registered
                # the precise wait, whose crossing re-marks the candidate.
                self._pending[key] = entry
                return None
            # Its context becomes the chain base.
            apply_context_delta(chain.context, delta)
        self.delivered[sender] = seq
        successor = (sender, seq + 1)
        if successor in self._pending:
            self.mark_candidate(successor)
        self._on_advance(sender, seq)
        return msg

    # -- view transitions ----------------------------------------------------
    def on_new_view(self) -> None:
        """Reset for a new view.

        The flush delivered every old-view message before the view was
        installed, so both the delivered vector and the pending queue
        restart from empty (per-view sequence numbers also restart).
        Context caches for every sender — including members that left —
        are evicted here: delta chains restart with the view's sequence
        numbers, so no entry can carry over.
        """
        self.delivered = {}
        self._pending.clear()
        self._chains.clear()
        self._ready.clear()
        self._ready_set.clear()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_messages(self) -> List[Message]:
        """Undelivered messages in arrival order (flush leftovers)."""
        return [msg for _, msg, _ in
                sorted(self._pending.values(), key=itemgetter(0))]

    def cache_sizes(self) -> Tuple[int, int]:
        """(sender chains, parsed pending deltas) — bounded-growth stats."""
        return len(self._chains), len(self._pending)
