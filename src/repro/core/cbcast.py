"""CBCAST delivery: causal order within and across groups.

The delivery rule is the paper's: a CBCAST is delivered once its causal
predecessors have been, here.  Its ``cb_ctx`` (the codec is
:mod:`repro.core.vectorclock`) names what its sender had delivered in
every group when it sent.  This module owns both sides of the rule at
one kernel:

* :class:`CausalReceiver`, one per group: the delivered vector and the
  messages waiting for their predecessors;
* :class:`CausalCheck`, one per kernel: the test of a ``cb_ctx`` against
  every group hosted here, the :class:`WaitIndex` a failed test is filed
  in, and the *wake set* of groups whose waits a delivery crossed.

Pending messages are keyed by ``(sender, seq)``.  Delivering seq *k* of
a sender wakes exactly ``(sender, k+1)``; a message whose cross-group
causal context is unsatisfied registers one precise wait threshold in
the :class:`WaitIndex` and is woken only when that threshold is crossed.
Each arrival or wake costs O(1) amortized, independent of pending depth.

A receiver's drain evaluates *candidates* — pending messages whose
blocking condition may have cleared — in arrival order, which is the
order a scan of the whole pending buffer would discover deliverable
messages in (``tests/properties/reference_causal.py`` holds that scan as
the reference).  An arrival while no candidate is marked would be the
drain's first and only candidate, so it is evaluated at once and enters
the pending buffer only if it must wait: an in-order stream never
touches the buffer or the heap.  The completeness invariant is that
every deliverable pending message is a candidate: new arrivals are
candidates, a FIFO-blocked message is woken by its predecessor's
delivery, and a context-blocked message always holds a WaitIndex
registration on the first threshold its context fails.

Across groups, :meth:`CausalCheck.recheck` drains to a fixpoint: while
any group is in the wake set it drains the one created here first
(``kernel.engine_order``, the order the stability tick visits groups
in), the group whose arrival called it included.  A delivery that wakes
a candidate in a group already drained puts that group back in the set,
so nothing deliverable is left pending when it returns.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, List, Optional,
                    Sequence, Set, Tuple)

from ..errors import CodecError
from ..msg.message import Message
from .vectorclock import (
    ChainContext,
    ContextDelta,
    GroupRow,
    Layout,
    apply_context_delta,
    check_delta_positions,
    first_in_walk_order,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..msg.address import Address
    from .engine import GroupEngine
    from .kernel import ProtocolsProcess

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
        #: check passed (see :meth:`CausalCheck.check_delta_and_register`).
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
    there, and a member by its rank in a view of ours, so it can only be
    judged once it is a candidate: one whose positions name nothing, or
    whose vector does not fit our view of the id it names, is malformed
    outside input found late — the message leaves the pending buffer,
    ``on_refuse()`` counts it, and chain, delivered vector and wait index
    stay as they were.

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
    the message as a candidate; :class:`CodecError`, with nothing
    registered, if the delta does not fit our views
    (:meth:`CausalCheck.check_delta_and_register`).
    ``on_advance(sender, seq)`` tells the kernel this group's delivered
    vector advanced, waking cross-group waiters
    (:meth:`CausalCheck.note_advance`).  ``layouts`` is the kernel's
    table of chain layouts (the check's ``layouts``), which a chain
    advanced to a new shape interns its layout in.
    """

    __slots__ = ("delivered", "_pending", "_chains", "_layouts",
                 "_delta_check", "_on_advance", "_on_refuse",
                 "_next_arrival", "_ready", "_ready_set", "peak_pending")

    def __init__(self,
                 delta_check: Callable[
                     [SenderChain, ContextDelta, PendingKey], bool],
                 on_advance: Callable[[bytes, int], None],
                 on_refuse: Callable[[], None],
                 layouts: Dict[Layout, Layout]):
        #: Delivered CBCAST count per packed sender (resets per view).
        self.delivered: Dict[bytes, int] = {}
        self._layouts = layouts
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
        marked (the kernel uses this to decide whether this group is owed
        a drain).
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
                satisfied = self._delta_check(chain, delta, key)
            except CodecError:
                self._on_refuse()
                return None
            if not satisfied:
                # Blocked on a cross-group threshold; the check registered
                # the precise wait, whose crossing re-marks the candidate.
                self._pending[key] = entry
                return None
            # Its context becomes the chain base.
            apply_context_delta(chain.context, delta, self._layouts)
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


#: A blocked CBCAST is identified kernel-wide by the group it is pending
#: in plus its (sender, seq) key within that group's causal receiver.
WaiterKey = Tuple[Hashable, Tuple[bytes, int]]


class WaitIndex:
    """Cross-group causal wait thresholds, kernel-wide.

    A CBCAST whose causal context is unsatisfied registers here against
    the *first* threshold its context fails: either a delivery counter
    ``(gid, member, needed_seq)`` — woken the moment that group's
    delivered vector reaches ``needed_seq`` for ``member`` — or a view
    threshold on ``gid`` — woken when that group installs any newer view
    (vectors reset per view, so any view event can only satisfy waits).
    Each waiter holds at most one slot; on wake it re-evaluates its full
    context and either delivers or re-registers on the next failing
    threshold.

    Slots are keyed by the *watched* group, so register, advance and view
    event touch only that group's dictionaries however many groups the
    kernel hosts.  The index compares keys and nothing else: groups and
    members packed, as a ``cb_ctx`` names them, and a waiter as the key
    of the receiver it is pending in.
    """

    __slots__ = ("_counter_waits", "_view_waits", "_slots", "peak_size")

    def __init__(self) -> None:
        #: gid -> (member, needed_seq) -> ordered waiters (dict-as-set).
        self._counter_waits: Dict[
            bytes, Dict[Tuple[bytes, int], Dict[WaiterKey, None]]] = {}
        #: gid -> ordered waiters blocked on a future view of gid.
        self._view_waits: Dict[bytes, Dict[WaiterKey, None]] = {}
        #: waiter -> (gid, bucket key or None-for-view) reverse map.
        self._slots: Dict[WaiterKey, Tuple[bytes,
                                           Optional[Tuple[bytes, int]]]] = {}
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._slots)

    def register_counter(self, gid: bytes, member: bytes, needed: int,
                         waiter: WaiterKey) -> None:
        """Wake ``waiter`` when gid's delivered[member] reaches ``needed``."""
        self.remove(waiter)
        bucket_key = (member, needed)
        self._counter_waits.setdefault(gid, {}).setdefault(
            bucket_key, {})[waiter] = None
        self._hold(waiter, gid, bucket_key)

    def register_view(self, gid: bytes, waiter: WaiterKey) -> None:
        """Wake ``waiter`` when ``gid`` installs a newer view."""
        self.remove(waiter)
        self._view_waits.setdefault(gid, {})[waiter] = None
        self._hold(waiter, gid, None)

    def _hold(self, waiter: WaiterKey, gid: bytes,
              bucket_key: Optional[Tuple[bytes, int]]) -> None:
        self._slots[waiter] = (gid, bucket_key)
        if len(self._slots) > self.peak_size:
            self.peak_size = len(self._slots)

    def remove(self, waiter: WaiterKey) -> None:
        """Drop a waiter's slot (delivered, re-registering, or discarded)."""
        slot = self._slots.pop(waiter, None)
        if slot is None:
            return
        gid, bucket_key = slot
        if bucket_key is None:
            bucket = self._view_waits[gid]
            del bucket[waiter]
            if not bucket:
                del self._view_waits[gid]
        else:
            buckets = self._counter_waits[gid]
            bucket = buckets[bucket_key]
            del bucket[waiter]
            if not bucket:
                del buckets[bucket_key]
                if not buckets:
                    del self._counter_waits[gid]

    def on_advance(self, gid: bytes, member: bytes,
                   seq: int) -> List[WaiterKey]:
        """Group ``gid`` delivered ``member``'s message ``seq``."""
        buckets = self._counter_waits.get(gid)
        if buckets is None:
            return []
        bucket = buckets.pop((member, seq), None)
        if bucket is None:
            return []
        if not buckets:
            del self._counter_waits[gid]
        return self._release(bucket)

    def on_view_event(self, gid: bytes) -> List[WaiterKey]:
        """Group ``gid`` installed a new view (or was retired)."""
        woken: List[WaiterKey] = []
        for bucket in self._counter_waits.pop(gid, {}).values():
            woken += self._release(bucket)
        return woken + self._release(self._view_waits.pop(gid, {}))

    def purge_engine(self, engine_gid: Hashable) -> None:
        """An engine's pending buffer reset: drop its registrations."""
        for waiter in [w for w in self._slots if w[0] == engine_gid]:
            self.remove(waiter)

    def _release(self, bucket: Dict[WaiterKey, None]) -> List[WaiterKey]:
        """A popped bucket's waiters, their slots gone."""
        for waiter in bucket:
            del self._slots[waiter]
        return list(bucket)


def _shortfall(row: Optional[GroupRow], view_id: int,
               counts: Sequence[int]) -> Optional[tuple]:
    """One named causal-context entry (a whole vector of view ``view_id``,
    by rank) against ``row``, its group here (:meth:`CausalCheck.groups`):
    ``()`` if satisfied — not installed here (cannot, and need not, wait)
    or a newer view (the old one was flushed) satisfies —, None if our
    view is older, else the first ``(member, count)`` we are short of.
    :class:`CodecError` if our view of that id has another size."""
    if row is None:
        return ()
    ours, members, have = row
    if ours > view_id:
        return ()
    if ours < view_id:
        return None
    if len(counts) != len(members):
        raise CodecError(f"context names {len(counts)} members in a view "
                         f"of {len(members)}")
    for member, count in zip(members, counts):
        if have.get(member, 0) < count:
            return member, count
    return ()


class CausalCheck:
    """Cross-group causal delivery at one kernel.

    Owns the :class:`WaitIndex`, the *wake set* (groups a wake marked
    candidates in, owed a drain) and the count of groups installed here
    since boot.  The kernel's group table it reads and does not own: it
    is told when that table changes (:meth:`engines_changed`,
    :meth:`retire`).
    """

    def __init__(self, kernel: "ProtocolsProcess"):
        self.kernel = kernel
        self.counters = kernel.counters
        #: Cross-group causal wait thresholds.
        self.wait_index = WaitIndex()
        #: Groups owed a candidate drain (a wake marked candidates
        #: there); :meth:`recheck` empties it.
        self.wakes: Set["Address"] = set()
        #: Groups that became installed here since boot.  A sender chain
        #: checked before the latest install may hold an entry that was
        #: skipped as "not a member" and is testable now.
        self.installs = 0
        #: ``kernel.engines`` keyed by packed gid, in packed order — how
        #: a ``cb_ctx`` names and orders groups; rebuilt when the group
        #: table changes.
        self._packed: Optional[Dict[bytes, "GroupEngine"]] = None
        #: :meth:`groups`, rebuilt when the group table changes, a group
        #: installs here or installs a view (a new view id, member list
        #: and vector).
        self._groups: Optional[Dict[bytes, GroupRow]] = None
        #: Every sender chain's layout here, each shape once
        #: (:func:`~repro.core.vectorclock.intern_layout`).
        self.layouts: Dict[Layout, Layout] = {}

    def engines_changed(self) -> None:
        """The kernel's group table gained or lost a group."""
        self._packed = self._groups = None

    def note_install(self) -> None:
        """A group became installed here."""
        self.installs += 1
        self._groups = None

    def _packed_engines(self) -> Dict[bytes, "GroupEngine"]:
        table = self._packed
        if table is None:
            table = self._packed = dict(sorted(
                (gid.pack(), engine)
                for gid, engine in self.kernel.engines.items()))
        return table

    def groups(self) -> Dict[bytes, GroupRow]:
        """Our installed groups' views and *live* delivered counts, as
        ``packed gid -> (view id, packed members by rank, packed member
        -> count)`` in gid order: what a
        :class:`~repro.core.vectorclock.ContextEncoder` diffs, and what
        the check maps a rank to a member through.  One table, reused
        until the set of groups or a view changes: the vectors in it are
        the live ones."""
        table = self._groups
        if table is None:
            table = self._groups = {
                gid: (engine.view.view_id,
                      tuple(member.pack() for member in engine.view.members),
                      engine.causal.delivered)
                for gid, engine in self._packed_engines().items()
                if engine.installed and engine.view is not None}
        return table

    def check_delta_and_register(self, chain: SenderChain,
                                 delta: ContextDelta,
                                 waiter: WaiterKey) -> bool:
        """Is the causal context ``chain.context`` advanced by ``delta``
        satisfied at our kernel?

        On failure the waiter is registered in the :class:`WaitIndex`
        against the first unsatisfied threshold, so the matching advance
        (or view event) re-marks it as a delivery candidate; any stale
        slot from a previous evaluation is dropped first.

        The message is a candidate, so its predecessor passed this check
        here.  An entry the delta does not name was satisfied then and
        still is: delivered vectors only grow within a view, and a newer
        local view (or a retired group) satisfies by rule.  So only the
        delta's entries are tested.  The one exception is an entry
        skipped then because the group was not installed here: if any
        group was installed since, the same test runs over a copy of the
        advanced context taken as a chain head, which names every entry.

        A named vector that does not fit our view of the id it names is
        :class:`CodecError`, raised before anything is registered.  A
        moved one was named, and so sized, when we held that view or
        checked whole at an install since, and its ranks are within that
        size (:func:`~repro.core.vectorclock.check_delta_positions`).
        """
        self.wait_index.remove(waiter)
        if delta.full or chain.installs == self.installs:
            self.counters.bump("causal.ctx_delta_entries",
                               len(delta.named) + len(delta.moved))
            satisfied = self._check_delta(chain.context, delta, waiter)
        else:
            self.counters.bump("causal.ctx_full_walks")
            context = chain.context.copy()
            apply_context_delta(context, delta, self.layouts)
            satisfied = self._check_delta(
                context, ContextDelta(True, context.entries(), [], []), waiter)
        if satisfied:
            chain.installs = self.installs
        return satisfied

    def _check_delta(self, base: ChainContext, delta: ContextDelta,
                     waiter: WaiterKey) -> bool:
        """The context check restricted to the delta's entries.

        On failure the waiter goes on the threshold a walk of ``base``
        advanced by ``delta`` would meet first: the chain's order, which
        a moved entry's counters are already in.
        """
        rows = self.groups()
        #: gid -> the first (member, count) we are short of; None for a
        #: view threshold.
        failed: Dict[bytes, Optional[tuple]] = {}
        for gid, view_id, counts in delta.named:
            short = _shortfall(rows.get(gid), view_id, counts)
            if short is None or short:
                failed[gid] = short
        # What the delta names by position: the group and its view are
        # the chain's, a rank names a member of our view of that id, and
        # a unit entry wants every member one past the base's count.
        # Tested in line — the steady path.
        gids, views, _, starts = base.layout
        for gpos, counters in delta.moved:
            gid = gids[gpos]
            row = rows.get(gid)
            if row is None:
                continue
            ours, members, have = row
            if ours > views[gpos]:
                continue
            if ours < views[gpos]:
                failed[gid] = None
                continue
            if counters is None:
                at = starts[gpos]
                for member in members:
                    count = base.counts[at] + 1
                    if have.get(member, 0) < count:
                        failed[gid] = (member, count)
                        break
                    at += 1
                continue
            for rank, count in counters:
                if have.get(members[rank], 0) < count:
                    failed[gid] = (members[rank], count)
                    break
        if not failed:
            return True
        gid = first_in_walk_order(list(failed), () if delta.full else gids)
        short = failed[gid]
        if short is None:
            self.wait_index.register_view(gid, waiter)
        else:
            self.wait_index.register_counter(gid, *short, waiter)
        return False

    def note_advance(self, gid: bytes, sender: bytes, seq: int) -> None:
        """Group ``gid`` (packed) delivered (sender, seq): wake threshold
        waiters."""
        self._wake_waiters(self.wait_index.on_advance(gid, sender, seq))

    def note_view_event(self, gid: "Address") -> None:
        """Group ``gid`` installed a view (or retired) here: the waits
        its pending messages held are gone with its buffer, and the
        thresholds others wait on in it are all satisfied now — wake
        everything keyed on it."""
        key = gid.process()
        self._groups = None
        self.wait_index.purge_engine(key)
        self._wake_waiters(self.wait_index.on_view_event(key.pack()))

    def retire(self, key: "Address") -> None:
        """Group ``key`` left the kernel's table: its pending buffer is
        gone, and contexts naming it are now trivially satisfied ("not a
        member: cannot wait")."""
        self.engines_changed()
        self.wakes.discard(key)
        self.note_view_event(key)

    def _wake_waiters(self, waiters: List[WaiterKey]) -> None:
        engines = self.kernel.engines
        for engine_gid, key in waiters:
            engine = engines.get(engine_gid)
            if engine is not None and engine.causal.mark_candidate(key):
                self.wakes.add(engine_gid)

    def recheck(self) -> None:
        """Drain the woken groups to a fixpoint: while the wake set holds
        a group, drain the one created here first.  A delivery that wakes
        a candidate in a group already drained, the caller's own
        included, queues that group again.  O(1) when nothing woke."""
        wakes = self.wakes
        order = self.kernel.engine_order
        engines = self.kernel.engines
        while wakes:
            gid = min(wakes, key=order.__getitem__)
            wakes.discard(gid)
            engine = engines.get(gid)
            if engine is None:
                continue
            for ready in engine.causal.recheck():
                engine.deliver_env(ready)
