"""CBCAST delivery queue: causal order within and across groups.

See :mod:`repro.core.vectorclock` for the delivery rule.  This module
holds the per-group receiver state: the delivered vector and the queue of
messages waiting for causal predecessors.  The surrounding engine feeds
it received CBCASTs and drains whatever became deliverable.

Two drain engines share this class:

* **Indexed** (``IsisConfig.indexed_delivery``, the default): pending
  messages are keyed by ``(sender, seq)``.  Delivering seq *k* of a
  sender wakes exactly ``(sender, k+1)``; a message whose cross-group
  causal context is unsatisfied registers one precise wait threshold in
  the kernel's :class:`~repro.core.kernel.WaitIndex` and is woken only
  when that threshold is crossed.  Each arrival or wake costs O(1)
  amortized, independent of pending depth.
* **Legacy scan** (``indexed_delivery=False``): every drain re-scans the
  whole pending buffer until a pass makes no progress — O(pending²) per
  arrival.  Kept for differential testing; both engines produce
  byte-identical delivery trajectories.

The indexed drain evaluates *candidates* — pending messages whose
blocking condition may have cleared — in arrival order, which is exactly
the order the legacy scan discovers deliverable messages in.  The
completeness invariant is that every deliverable pending message is a
candidate: new arrivals are candidates, a FIFO-blocked message is woken
by its predecessor's delivery, and a context-blocked message always
holds a WaitIndex registration on the first threshold its context fails.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import CodecError
from ..msg.address import Address
from ..msg.message import Message
from .vectorclock import (
    Context,
    ContextDelta,
    PackedContext,
    VectorClock,
    advanced_context,
    apply_context_delta,
    decode_context,
    parse_context_delta,
)

#: A pending CBCAST is identified by (sender process, per-view seq).
PendingKey = Tuple[Address, int]


class SenderChain:
    """One sender's ``cb_ctx`` delta chain at one receiver."""

    __slots__ = ("context", "installs")

    def __init__(self) -> None:
        #: The sender's absolute context as of its last message delivered
        #: here, advanced in place at each delivery.
        self.context: PackedContext = {}
        #: The kernel's group-install count when that message's context
        #: check passed (see ``check_delta_and_register``).
        self.installs = -1


class CausalReceiver:
    """Receiver-side causal ordering for one group at one kernel.

    Compact (bytes-form) ``cb_ctx`` fields are delta-chained per sender:
    message *n* encodes only what changed since message *n-1*.  Because
    the FIFO rule already forces delivery in contiguous ``cb_seq`` order,
    a message becomes a delivery candidate only once its predecessor was
    delivered here, so the receiver keeps one absolute context per
    sender (:class:`SenderChain`), advanced in place at delivery, and a
    pending message keeps its ``cb_ctx`` parsed once as a flat delta.

    ``ctx_check(context, key)`` (indexed mode) must behave like
    ``is_deliverable_ctx`` but, on failure, register ``key`` against the
    first unsatisfied threshold so a later advance re-marks the message
    as a candidate (see ``ProtocolsProcess.check_context_and_register``).
    ``delta_check(chain, delta, key)`` is the same contract for a
    chained context — ``chain`` advanced by ``delta`` — which the kernel
    answers from the delta alone (``check_delta_and_register``).
    ``on_advance(sender, seq)`` tells the kernel this group's delivered
    vector advanced, waking cross-group waiters.
    """

    __slots__ = ("delivered", "delivered_packed", "_pending",
                 "_is_deliverable_ctx",
                 "_chains", "_deltas", "_indexed", "_ctx_check",
                 "_delta_check", "_on_advance", "_arrival", "_next_arrival",
                 "_ready", "_ready_set", "peak_pending")

    def __init__(self, is_deliverable_ctx: Callable[[Context], bool],
                 indexed: bool = False,
                 ctx_check: Optional[Callable[[Context, PendingKey], bool]] = None,
                 on_advance: Optional[Callable[[Address, int], None]] = None,
                 delta_check: Optional[Callable[
                     [SenderChain, ContextDelta, PendingKey], bool]] = None):
        #: Delivered CBCAST count per sending member (resets per view).
        self.delivered = VectorClock()
        #: The same counts keyed by packed member: the form compact
        #: contexts are encoded from and checked against.
        self.delivered_packed: Dict[bytes, int] = {}
        #: Callback asking the kernel whether a cross-group causal context
        #: is satisfied (the kernel checks the *other* groups we belong to).
        self._is_deliverable_ctx = is_deliverable_ctx
        self._indexed = indexed
        self._ctx_check = ctx_check
        self._delta_check = delta_check
        self._on_advance = on_advance
        if indexed:
            assert ctx_check is not None and delta_check is not None
            #: (sender, seq) -> pending message.
            self._pending: Dict[PendingKey, Message] = {}
            #: (sender, seq) -> arrival index (drain evaluates in this order).
            self._arrival: Dict[PendingKey, int] = {}
            self._next_arrival = 0
            #: Min-heap of (arrival, key): candidates awaiting evaluation.
            self._ready: List[Tuple[int, PendingKey]] = []
            self._ready_set: Set[PendingKey] = set()
        else:
            self._pending: List[Message] = []  # type: ignore[no-redef]
        #: Per-sender delta chain (compact contexts only).
        self._chains: Dict[Address, SenderChain] = {}
        #: (sender, seq) -> parsed ``cb_ctx`` of a pending message.
        self._deltas: Dict[PendingKey, ContextDelta] = {}
        #: High-water mark of the pending buffer (kernel stats).
        self.peak_pending = 0

    def offer(self, msg: Message) -> List[Message]:
        """Feed one received CBCAST; return messages now deliverable, in order."""
        if not self._indexed:
            self._pending.append(msg)
            if len(self._pending) > self.peak_pending:
                self.peak_pending = len(self._pending)
            return self._drain()
        key = (msg["cb_sender"].process(), msg["cb_seq"])
        if key in self._pending:
            return []
        self._pending[key] = msg
        self._arrival[key] = self._next_arrival
        self._next_arrival += 1
        if len(self._pending) > self.peak_pending:
            self.peak_pending = len(self._pending)
        self.mark_candidate(key)
        return self._drain_indexed()

    def recheck(self) -> List[Message]:
        """Re-evaluate pending messages (e.g. after another group advanced)."""
        if self._indexed:
            return self._drain_indexed()
        return self._drain()

    def mark_candidate(self, key: PendingKey) -> bool:
        """A blocking condition for ``key`` may have cleared.

        Returns True if the message is pending here and was not already
        marked (the kernel uses this to decide whether a recheck pass is
        owed to this group).
        """
        if key not in self._pending or key in self._ready_set:
            return False
        self._ready_set.add(key)
        heapq.heappush(self._ready, (self._arrival[key], key))
        return True

    # -- indexed drain -------------------------------------------------------
    def _drain_indexed(self) -> List[Message]:
        out: List[Message] = []
        while self._ready:
            _, key = heapq.heappop(self._ready)
            self._ready_set.discard(key)
            msg = self._pending.get(key)
            if msg is None:
                continue  # stale wake: delivered or dropped meanwhile
            sender, seq = key
            if seq != self.delivered.get(sender) + 1:
                # FIFO-blocked: the predecessor's delivery re-marks it.
                continue
            raw = msg.get("cb_ctx")
            if isinstance(raw, (bytes, bytearray)):
                satisfied = self._delta_check(*self._chained(raw, key), key)
            else:
                satisfied = self._ctx_check(_absolute_context(raw), key)
            if not satisfied:
                # Blocked on a cross-group threshold; the check registered
                # the precise wait, whose crossing re-marks the candidate.
                continue
            del self._pending[key]
            del self._arrival[key]
            self._note_delivered(key)
            out.append(msg)
            successor = (sender, seq + 1)
            if successor in self._pending:
                self.mark_candidate(successor)
            if self._on_advance is not None:
                self._on_advance(sender, seq)
        return out

    # -- legacy scan drain ---------------------------------------------------
    def _drain(self) -> List[Message]:
        out: List[Message] = []
        progress = True
        while progress:
            progress = False
            for i, msg in enumerate(self._pending):
                if self._deliverable(msg):
                    self._pending.pop(i)
                    self._note_delivered(
                        (msg["cb_sender"].process(), msg["cb_seq"]))
                    out.append(msg)
                    progress = True
                    break
        return out

    def _deliverable(self, msg: Message) -> bool:
        sender: Address = msg["cb_sender"]
        seq: int = msg["cb_seq"]
        if seq != self.delivered.get(sender) + 1:
            return False
        raw = msg.get("cb_ctx")
        if isinstance(raw, (bytes, bytearray)):
            # The scan engine is the oracle: it walks the whole context.
            chain, delta = self._chained(raw, (sender.process(), seq))
            return self._is_deliverable_ctx(
                advanced_context(chain.context, delta))
        return self._is_deliverable_ctx(_absolute_context(raw))

    def _chained(self, raw: bytes,
                 key: PendingKey) -> Tuple[SenderChain, ContextDelta]:
        """The sender's chain and this message's delta (parsed once)."""
        delta = self._deltas.get(key)
        if delta is None:
            delta = self._deltas[key] = parse_context_delta(bytes(raw))
        chain = self._chains.get(key[0])
        if chain is None:
            if not delta.full:
                raise CodecError("delta context without a predecessor")
            chain = self._chains[key[0]] = SenderChain()
        return chain, delta

    def _note_delivered(self, key: PendingKey) -> None:
        """Count the delivery; its context becomes the chain base."""
        sender, seq = key
        self.delivered.set(sender, seq)
        self.delivered_packed[sender.pack()] = seq
        delta = self._deltas.pop(key, None)
        if delta is not None:
            apply_context_delta(self._chains[key[0]].context, delta)

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
        self.delivered = VectorClock()
        self.delivered_packed = {}
        self._pending.clear()
        self._chains.clear()
        self._deltas.clear()
        if self._indexed:
            self._arrival.clear()
            self._ready.clear()
            self._ready_set.clear()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_messages(self) -> List[Message]:
        """Undelivered messages in arrival order (flush leftovers)."""
        if not self._indexed:
            return list(self._pending)
        return [self._pending[key] for key in
                sorted(self._pending, key=self._arrival.__getitem__)]

    def cache_sizes(self) -> Tuple[int, int]:
        """(sender chains, parsed pending deltas) — bounded-growth stats."""
        return len(self._chains), len(self._deltas)


def _absolute_context(raw) -> Context:
    """A ``cb_ctx`` that is not chained: absent, or the dict encoding."""
    return {} if raw is None else decode_context(raw)
