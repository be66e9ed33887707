"""ABCAST receiver state: two-phase priorities and sequencer stamps.

Two total-order engines share this module.  The paper's protocol
(:class:`TotalOrderReceiver` / :class:`TotalOrderSender`) of [Birman-a],
as sketched in §3.1 and costed in Figure 3
(3 inter-site messages on the critical path):

1. The sender's kernel disseminates the message to every member site;
   each site assigns it a *proposed priority* — one more than the highest
   priority it has seen, tie-broken by site id — and buffers the message
   as undeliverable.
2. The sites send their proposals back to the sender's kernel, which
   picks the **maximum** as the final priority.
3. The sender's kernel disseminates the final priority; each site tags
   the message deliverable, reorders its queue by priority, and delivers
   a message once no undeliverable message could precede it.

A message with final priority ``f`` may be delivered when every other
queued message has (proposed or final) priority greater than ``f`` —
a proposal can only grow into a larger final value, never shrink.

Priorities are ``(counter, site_id)`` pairs, globally unique because each
site's counter advances on every proposal it makes.

:class:`SequencerReceiver` implements the Isis-lineage one-phase
alternative (``IsisConfig.abcast_mode = "sequencer"``): a single token
site assigns a dense per-view sequence number (*stamp*) to each ABCAST
and broadcasts the stamps; every site delivers in contiguous stamp
order.  A stamp ``s`` is represented as the priority ``(s, 0)`` so the
flush protocol's cut machinery (reports, union, ``force_order``) works
identically for both modes: survivors union the stamped prefix and
order any still-unstamped messages after it with the deterministic
:data:`UNSTAMPED_BASE` priorities.

How a stamp message reaches the members is the dissemination stage's
concern, not this module's: with ``IsisConfig.dissemination = "tree"``
the token's ``g.abs`` broadcasts relay down the view's spanning tree
(O(fanout) sends at the token instead of O(n)), falling back to flat
fan-out while the group is wedged so stamps never trail flush traffic.
Stamp *semantics* — dense per-view numbering, contiguous-prefix
delivery, the wedge rules — are identical in both modes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..msg.message import Message

Priority = Tuple[int, int]       # (counter, proposer site id)
MsgRef = Tuple[int, int]         # (origin_site, gseq) within the view

#: Sequencer mode: priority base for messages the token never stamped.
#: Far above any reachable stamp, so the flush cut orders the stamped
#: prefix first and the unstamped tail after it, deterministically
#: (``(UNSTAMPED_BASE + gseq, origin_site)`` is the same at every site).
UNSTAMPED_BASE = 1 << 32


@dataclass(slots=True)
class _QueueEntry:
    ref: MsgRef
    msg: Message
    priority: Priority
    final: bool = False


class TotalOrderReceiver:
    """Receiver-side ABCAST state for one group at one kernel.

    The drain tracks the queue minimum in a lazy-deletion priority heap:
    every (re)prioritisation pushes an entry, and stale heap heads —
    entries whose ref was delivered or whose priority has since changed
    — are discarded on pop.  Priorities are globally unique, so the heap
    order is the order a scan for the minimum would find, at
    O(log pending) per delivery instead of O(pending).
    """

    __slots__ = ("site_id", "_counter", "_queue", "_drained", "_heap")

    def __init__(self, site_id: int):
        self.site_id = site_id
        self._counter = 0
        self._queue: Dict[MsgRef, _QueueEntry] = {}
        #: (ref, final priority) drained since :meth:`take_delivered`.
        self._drained: List[Tuple[MsgRef, Priority]] = []
        #: Lazy min-heap of (priority, ref); stale entries skipped on pop.
        self._heap: List[Tuple[Priority, MsgRef]] = []

    # -- phase 1: propose ---------------------------------------------------
    def propose(self, ref: MsgRef, msg: Message) -> Priority:
        """Buffer an arriving ABCAST and return our proposed priority."""
        existing = self._queue.get(ref)
        if existing is not None:
            return existing.priority
        self._counter += 1
        priority = (self._counter, self.site_id)
        self._queue[ref] = _QueueEntry(ref=ref, msg=msg, priority=priority)
        heapq.heappush(self._heap, (priority, ref))
        return priority

    # -- phase 3: finalize ---------------------------------------------------
    def finalize(self, ref: MsgRef, final: Priority) -> List[Message]:
        """Record the final priority; return messages now deliverable."""
        entry = self._queue.get(ref)
        if entry is None:
            # Final for a message we never saw (it was delivered at a
            # flush cut, or this is a duplicate) — nothing to do.
            return []
        entry.final = True
        self._counter = max(self._counter, final[0])
        if entry.priority != final:  # else its heap entry already says so
            entry.priority = final
            heapq.heappush(self._heap, (final, ref))
        return self._drain()

    def _drain(self) -> List[Message]:
        out: List[Message] = []
        heap = self._heap
        while self._queue and heap:
            priority, ref = heap[0]
            entry = self._queue.get(ref)
            if entry is None or entry.priority != priority:
                heapq.heappop(heap)  # delivered or re-prioritised since
                continue
            if not entry.final:
                break
            heapq.heappop(heap)
            del self._queue[ref]
            self._drained.append((ref, entry.priority))
            out.append(entry.msg)
        return out

    # -- flush support ----------------------------------------------------------
    def pending_state(self) -> List[Dict]:
        """Wire-encodable snapshot of undelivered ABCASTs (for FLUSH_OK)."""
        return [
            {
                "ref": list(entry.ref),
                "prio": list(entry.priority),
                "final": entry.final,
            }
            for entry in self._queue.values()
        ]

    def take_delivered(self) -> List[Tuple[MsgRef, Priority]]:
        """``(ref, final priority)`` of every message drained since the
        last call, in delivery order; the receiver then forgets them.

        A drain can deliver several queued messages at once; each must be
        reported (e.g. to a flush) with its *own* final priority, not the
        priority of the finalize call that unblocked the queue.
        """
        taken, self._drained = self._drained, []
        return taken

    def force_order(self, order: List[Tuple[MsgRef, Priority]]) -> List[Message]:
        """Apply a flush coordinator's final cut ordering.

        Every listed message we still hold becomes final with the given
        priority; the drain then delivers them all (the flush guarantees
        we hold every listed message by now).  Unlisted queued messages
        cannot exist at this point — the coordinator's union covers all.
        """
        for ref_raw, prio_raw in order:
            ref = (ref_raw[0], ref_raw[1])
            entry = self._queue.get(ref)
            if entry is not None:
                entry.priority = (prio_raw[0], prio_raw[1])
                entry.final = True
                heapq.heappush(self._heap, (entry.priority, ref))
        return self._drain()

    def on_new_view(self) -> None:
        """Reset for a new view (old-view messages all settled by flush)."""
        self._queue.clear()
        self._drained.clear()
        self._heap.clear()
        # The counter survives: priorities stay monotone across views,
        # which keeps late duplicate finals harmless.

    @property
    def pending_count(self) -> int:
        return len(self._queue)


class TotalOrderSender:
    """Sender-side bookkeeping: collect proposals, pick the max."""

    __slots__ = ("_collecting",)

    def __init__(self) -> None:
        #: ref -> {site: priority}, sites we still expect proposals from.
        self._collecting: Dict[MsgRef, Dict] = {}

    def start(self, ref: MsgRef, member_sites: List[int]) -> None:
        self._collecting[ref] = {
            "waiting": set(member_sites),
            "proposals": [],
        }

    def offer_proposal(self, ref: MsgRef, site: int,
                       priority: Priority) -> Optional[Priority]:
        """Record one proposal; returns the final priority when complete."""
        state = self._collecting.get(ref)
        if state is None:
            return None
        if site in state["waiting"]:
            state["waiting"].discard(site)
            state["proposals"].append(tuple(priority))
        if state["waiting"]:
            return None
        del self._collecting[ref]
        return max(state["proposals"])

    def drop_site(self, site: int) -> List[Tuple[MsgRef, Priority]]:
        """A member site died: stop waiting for it everywhere.

        Returns refs whose collection *completed* because of the drop,
        with their final priorities.
        """
        completed = []
        for ref in list(self._collecting):
            state = self._collecting[ref]
            state["waiting"].discard(site)
            if not state["waiting"] and state["proposals"]:
                del self._collecting[ref]
                completed.append((ref, max(state["proposals"])))
        return completed

    def abandon_all(self) -> None:
        """View change: in-flight collections are settled by the flush."""
        self._collecting.clear()


class SequencerReceiver:
    """Receiver-side sequencer-mode ABCAST state for one group.

    Holds data envelopes until their stamp arrives and delivers in
    contiguous stamp order: stamp ``s`` is delivered only after stamps
    ``1..s-1`` — never "least priority wins" across a gap, which would
    let two sites with different stamp knowledge diverge.  Stamps from
    the token site travel over the FIFO transport, so each site's stamp
    knowledge is always a prefix of the token's order.

    Exposes the same flush-facing surface as :class:`TotalOrderReceiver`
    (``pending_state`` / ``take_delivered`` / ``force_order`` / ...)
    with stamps encoded as ``(seq, 0)`` priorities, so the engine and
    :class:`~repro.core.flush.FlushCoordinator` are mode-agnostic.
    """

    __slots__ = ("site_id", "_held", "_stamps", "_ref_at", "_next_deliver",
                 "_drained")

    def __init__(self, site_id: int):
        self.site_id = site_id
        #: ref -> data envelope held but not yet delivered.
        self._held: Dict[MsgRef, Message] = {}
        #: ref -> stamp, for stamps known but not yet delivered.
        self._stamps: Dict[MsgRef, int] = {}
        #: stamp -> ref (inverse of _stamps).
        self._ref_at: Dict[int, MsgRef] = {}
        self._next_deliver = 1
        #: (ref, (stamp, 0)) drained since :meth:`take_delivered`.
        self._drained: List[Tuple[MsgRef, Priority]] = []

    # -- data and stamps ----------------------------------------------------
    def hold(self, ref: MsgRef, msg: Message) -> List[Message]:
        """Buffer an arriving ABCAST; return messages now deliverable.

        The message store lets a ref through once per view, so a copy of
        a delivered message never gets here.
        """
        if ref in self._held:
            return []
        self._held[ref] = msg
        return self._drain()

    def has_stamp(self, ref: MsgRef) -> bool:
        """A stamp is known for the undelivered ``ref``."""
        return ref in self._stamps

    def apply_stamps(self, pairs: List[Tuple[MsgRef, int]]) -> List[Message]:
        """Record token-site stamps; return messages now deliverable."""
        for ref, seq in pairs:
            if seq < self._next_deliver or ref in self._stamps:
                continue  # duplicate stamp (retransmit / flush overlap)
            self._stamps[ref] = seq
            self._ref_at[seq] = ref
        return self._drain()

    def _drain(self) -> List[Message]:
        out: List[Message] = []
        while True:
            ref = self._ref_at.get(self._next_deliver)
            if ref is None:
                break
            msg = self._held.get(ref)
            if msg is None:
                break  # stamp known, data still in flight
            del self._held[ref]
            del self._ref_at[self._next_deliver]
            seq = self._stamps.pop(ref)
            self._drained.append((ref, (seq, 0)))
            self._next_deliver += 1
            out.append(msg)
        return out

    # -- flush support ------------------------------------------------------
    def pending_state(self) -> List[Dict]:
        """Wire-encodable snapshot of undelivered ABCAST state.

        Includes stamps we know for data still in flight: the flush
        coordinator must learn the stamped prefix even from sites that
        hold the stamp but not (yet) the message.
        """
        out = []
        for ref in sorted(set(self._held) | set(self._stamps)):
            seq = self._stamps.get(ref)
            if seq is not None:
                entry = {"ref": list(ref), "prio": [seq, 0], "final": True}
            else:
                entry = {"ref": list(ref),
                         "prio": [UNSTAMPED_BASE + ref[1], ref[0]],
                         "final": False}
            out.append(entry)
        return out

    def take_delivered(self) -> List[Tuple[MsgRef, Priority]]:
        """See :meth:`TotalOrderReceiver.take_delivered`."""
        taken, self._drained = self._drained, []
        return taken

    def force_order(self, order: List[Tuple[MsgRef, Priority]]) -> List[Message]:
        """Apply a flush coordinator's final cut ordering.

        The cut extends the stamp order (stamped prefix first, then the
        deterministic unstamped tail), so delivering held messages in the
        listed order agrees with every survivor's already-delivered
        prefix.  Contiguity gating is dropped here: a stamp whose data no
        survivor holds is skipped identically everywhere.
        """
        out: List[Message] = []
        for ref_raw, prio_raw in order:
            ref = (ref_raw[0], ref_raw[1])
            msg = self._held.pop(ref, None)
            if msg is None:
                continue
            seq = self._stamps.pop(ref, None)
            if seq is not None:
                self._ref_at.pop(seq, None)
            self._drained.append((ref, (prio_raw[0], prio_raw[1])))
            out.append(msg)
        return out

    def on_new_view(self) -> None:
        """Reset for a new view (old-view messages all settled by flush)."""
        self._held.clear()
        self._stamps.clear()
        self._ref_at.clear()
        self._next_deliver = 1
        self._drained.clear()

    @property
    def pending_count(self) -> int:
        return len(self._held)
