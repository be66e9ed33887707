"""Total-order engines: one class per ``IsisConfig.abcast_mode``.

Two engines plug into the delivery pipeline's ordering slot, both
honouring one contract so the group engine, the flush machinery and
the stats layer never branch on the mode.  Each holds all of its
group's total-order state at one site: what is queued, what it sent,
and the book of what it delivered.

* **Stamp issuance** — ``stamp(env, sender)`` attaches whatever
  send-side metadata the engine needs; ``ingest(env)`` buffers a
  received envelope and drives delivery.  A drain yields
  ``(msg, ref, final)`` triples and :meth:`OrderingEngine._deliver`
  books each one with its own final priority, so the delivery floor
  stays monotone within a view for every engine.
* **Wedge behaviour** — while the group is wedged (flush in progress)
  an engine must neither assign new order (stamps, finals) nor apply
  order that arrives: the site's FLUSH_OK report already went out, and
  post-report deliveries would sit at positions the coordinator's cut
  cannot see.  ``on_wedge()`` is the hook to push buffered order out
  *ahead* of the report.
* **Flush-cut contribution** — ``pending_state()`` reports undelivered
  state as ``(priority, final?)`` entries, ``delivered`` what this view
  delivered at which final, and :func:`cut_order`, run by the flush
  coordinator over every report (finals win; otherwise max proposal;
  refs unseen at some survivor are lifted above every final), orders
  them identically at every survivor, which ``force_order()`` applies.
* **Unstamped-tail rule** — refs the engine never ordered are reported
  with deterministic priorities above every assignable one
  (:data:`UNSTAMPED_BASE`), so the cut appends them in the same order
  everywhere.

:func:`make_ordering` is the pipeline's only construction path.

=============== ==============================================================
``two_phase``   :class:`TotalOrdering` — the paper's ABCAST: every
                receiver proposes a priority, the sender unions and
                rebroadcasts the final (``g.abp`` / ``g.abf``).
``sequencer``   :class:`SequencerOrdering` — the view's lowest-ranked
                member's site holds the token and broadcasts batched
                ``g.abs`` stamps; one phase, O(1) messages per ABCAST.
=============== ==============================================================
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..errors import GroupError
from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Timer

if TYPE_CHECKING:  # pragma: no cover
    from .engine import GroupEngine
    from .pipeline import DeliveryPipeline

Priority = Tuple[int, int]       # (counter, proposer site id)
MsgRef = Tuple[int, int]         # (origin_site, gseq) within the view
#: What a drain hands on: the message, its ref and its final priority.
Drained = List[Tuple[Message, MsgRef, Priority]]

#: Sequencer mode: priority base for messages the token never stamped.
#: Far above any reachable stamp, so the flush cut orders the stamped
#: prefix first and the unstamped tail after it, deterministically
#: (``(UNSTAMPED_BASE + gseq, origin_site)`` is the same at every site).
UNSTAMPED_BASE = 1 << 32


#: An undelivered ABCAST in a flush report, as ``msg/wire.py`` parses a
#: :meth:`OrderingEngine.pending_state` entry: ``(ref, priority, final?)``.
Pending = Tuple[MsgRef, Priority, bool]
#: One site's flush report of its ABCAST state: what it holds undelivered
#: and the ``(ref, final)`` of what it delivered (``delivered``).
Report = Tuple[List[Pending], List[Tuple[MsgRef, Priority]]]


def cut_order(reports: List[Report]) -> List[List[List[int]]]:
    """The flush's agreed ABCAST cut: final (ref, priority) list, sorted
    by priority, from every reporting site's :data:`Report`.

    For each undelivered ABCAST anywhere: if any site knows the true
    final priority (delivered it, or holds it finalized), use that.
    A ref finalized nowhere but *held* by every reporting site keeps
    the maximum over the reported proposals: each holder's pending
    proposal capped what it could deliver, so the maximum sorts
    after everything any survivor delivered.  That argument breaks
    for a ref some survivor never received — that site proposed
    nothing, so it may have delivered messages above every reported
    proposal, and ordering the ref by the reported maximum could
    slot it *before* messages already delivered without it.  Such
    refs are lifted above every final in the cut (reported
    proposals order the lifted tail deterministically), mirroring
    the sequencer mode's unstamped-tail rule.  Every survivor's
    :meth:`OrderingEngine.force_order` applies the result.
    """
    finals: Dict[MsgRef, Priority] = {}
    proposals: Dict[MsgRef, List[Priority]] = {}
    delivered_everywhere: Set[MsgRef] = set()
    for ab_pending, ab_delivered in reports:
        for ref, prio in ab_delivered:
            finals[ref] = prio
        for ref, prio, final in ab_pending:
            if final:
                finals[ref] = prio
            else:
                proposals.setdefault(ref, []).append(prio)
    # A ref pending nowhere and delivered somewhere needs no cut entry
    # only if *every* site delivered it; otherwise it must be ordered.
    pending_refs = set(proposals)
    for ab_pending, _ in reports:
        for ref, _, _ in ab_pending:
            pending_refs.add(ref)
    for ref in list(finals):
        if ref not in pending_refs:
            if all(
                ref in dict(ab_delivered) for _, ab_delivered in reports
            ):
                delivered_everywhere.add(ref)
    # The lift clears every *reported* priority — proposals included,
    # not just finals — so a lifted priority can never collide with
    # (or sort below) a non-lifted cut entry: priorities must stay
    # globally unique for the drains to agree on tie-free order.
    lift = max(
        (prio[0] for prio in finals.values()),
        default=0,
    )
    for plist in proposals.values():
        for prio in plist:
            if prio[0] > lift:
                lift = prio[0]
    reporters = len(reports)
    order: List[Tuple[MsgRef, Priority]] = []
    for ref in pending_refs | (set(finals) - delivered_everywhere):
        prio = finals.get(ref)
        if prio is None:
            # Final nowhere: each report holding the ref contributed
            # exactly one proposal, so the proposal count tells us
            # whether every reporter held it.
            best = max(proposals[ref])
            if len(proposals[ref]) < reporters:
                prio = (lift + best[0], best[1])
            else:
                prio = best
        order.append((ref, prio))
    order.sort(key=lambda item: item[1])
    return [[list(ref), list(prio)] for ref, prio in order]


class OrderingEngine:
    """Base class and contract for a pipeline total-order stage.

    Subclasses override the send/receive hooks they implement; unknown
    control traffic (a proposal reaching a sequencer-mode kernel, etc.)
    lands in the defaults below, which count it as noise — modes are a
    cluster-wide configuration, so a mismatch is a misconfiguration,
    never a protocol state.  What an engine sends it counts on
    ``engine.kernel.counters`` (``abcast.*``), like every other stage.
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        self.engine = engine
        self.pipeline = pipeline
        #: ref -> final priority of every ABCAST delivered in this view
        #: that some member may not have delivered yet (flush reports).
        self.delivered: Dict[MsgRef, Priority] = {}
        #: Highest final priority delivered in this view, piggybacked so
        #: peers can prune their books.  Both engines deliver in
        #: increasing final order (a queued smaller priority blocks
        #: everything above it, and a later arrival's proposal — which
        #: lower-bounds its final — exceeds every priority already
        #: delivered), so a floor of ``f`` means *every* ABCAST with
        #: final ≤ f has been delivered here.
        self.delivery_floor: Priority = (0, 0)
        self._pruned_floor: Priority = (0, 0)

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        """Disarm standing timers (kernel shutdown / crash teardown)."""

    # -- send side ---------------------------------------------------------
    def stamp(self, env: Message, sender: Address) -> None:
        """Attach send-side ordering metadata to an outgoing envelope."""
        raise NotImplementedError

    # -- receive side ------------------------------------------------------
    def ingest(self, env: Message) -> None:
        """Buffer a data envelope and drive whatever delivery it allows."""
        raise NotImplementedError

    # The ordering notes arrive parsed (``msg/wire.py``): a ``g.abp`` /
    # ``g.abf`` record is ``(msg, gid, view, ref, prio)``, a ``g.abs``
    # one ``(msg, gid, view, stamps)``.
    def on_proposal(self, src_site: int, note: tuple) -> None:
        self.engine.sim.trace.bump("abcast.unexpected_control")

    def on_final(self, src_site: int, note: tuple) -> None:
        self.engine.sim.trace.bump("abcast.unexpected_control")

    def on_stamps(self, src_site: int, note: tuple) -> None:
        self.engine.sim.trace.bump("abcast.unexpected_control")

    def _deliver(self, drained: Drained) -> None:
        """Book and hand on what a drain released.

        One drain can unblock several messages; each is booked with its
        own final priority (a flush cut built from a wrong priority
        would diverge between survivors).  The floor-pruned book is the
        one record of what was delivered at which priority.
        """
        for env, ref, final in drained:
            self.delivered[ref] = final
            if final > self.delivery_floor:
                self.delivery_floor = final
                # An unannounced floor is stability work: keep the group
                # in the kernel's dirty set until peers learn it.
                self.engine.kernel.note_group_dirty(self.engine.gid)
            self.engine.deliver_env(env)

    def prune_delivered_finals(self) -> int:
        """Drop delivered finals known delivered at every member site.

        The minimum over all members' delivery floors, as the stability
        stage knows them, bounds a prefix of the view's final order that
        everyone has delivered: such refs are pending nowhere, so the flush cut
        never needs their priorities — reporting them would only be
        (re-)excluded by the delivered-everywhere rule.  This keeps
        ``g.fl.ok`` reports from scaling with the view's ABCAST history.
        """
        if self.engine.view is None:
            return 0
        floor = self.pipeline.stability.group_floor()
        if floor <= self._pruned_floor:
            return 0
        self._pruned_floor = floor
        victims = [ref for ref, prio in self.delivered.items()
                   if prio <= floor]
        for ref in victims:
            del self.delivered[ref]
        if victims:
            self.engine.sim.trace.bump("flush.finals_pruned", len(victims))
        return len(victims)

    # -- failure events ----------------------------------------------------
    def on_sites_died(self, dead_sites: Set[int]) -> None:
        """Member sites left the site view (nothing waits on them here)."""

    # -- view lifecycle ----------------------------------------------------
    def on_wedge(self) -> None:
        """Flush starting: push any buffered order out ahead of reports."""

    def on_new_view(self) -> None:
        """Forget the old view's book; subclasses reset their own state
        and replay what they must first, then call this."""
        self.delivered.clear()
        self.delivery_floor = (0, 0)
        self._pruned_floor = (0, 0)


@dataclass(slots=True)
class _QueueEntry:
    msg: Message
    priority: Priority
    final: bool = False


class TotalOrdering(OrderingEngine):
    """ABCAST stage: two-phase priority total order.

    The paper's protocol of [Birman-a], as sketched in §3.1 and costed
    in Figure 3 (3 inter-site messages on the critical path):

    1. The sender's kernel disseminates the message to every member
       site; each site assigns it a *proposed priority* — one more than
       the highest priority it has seen, tie-broken by site id — and
       buffers the message as undeliverable.
    2. The sites send their proposals back to the sender's kernel, which
       picks the **maximum** as the final priority.
    3. The sender's kernel disseminates the final priority; each site
       tags the message deliverable, reorders its queue by priority, and
       delivers a message once no undeliverable message could precede it.

    A message with final priority ``f`` may be delivered when every other
    queued message has (proposed or final) priority greater than ``f`` —
    a proposal can only grow into a larger final value, never shrink.
    Priorities are ``(counter, site_id)`` pairs, globally unique because
    each site's counter advances on every proposal it makes.

    The drain tracks the queue minimum in a lazy-deletion priority heap:
    every (re)prioritisation pushes an entry, and stale heap heads —
    entries whose ref was delivered or whose priority has since changed
    — are discarded on pop.  Priorities are globally unique, so the heap
    order is the order a scan for the minimum would find, at
    O(log pending) per delivery instead of O(pending).
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        super().__init__(engine, pipeline)
        #: Highest priority seen; survives views, so priorities stay
        #: monotone and late duplicate finals harmless.
        self._counter = 0
        self._queue: Dict[MsgRef, _QueueEntry] = {}
        #: Lazy min-heap of (priority, ref); stale entries skipped on pop.
        self._heap: List[Tuple[Priority, MsgRef]] = []
        #: Send side: ref -> (sites we still expect proposals from,
        #: the proposals so far).
        self._collecting: Dict[MsgRef, Tuple[Set[int], List[Priority]]] = {}

    def stamp(self, env: Message, sender: Address) -> None:
        """Send side: open a proposal collection for this envelope."""
        assert self.engine.view is not None
        env["ab_sender"] = sender.process()
        self._collecting[(self.engine.site_id, env["gseq"])] = (
            set(self.engine.view.member_sites()), [])

    def ingest(self, env: Message) -> None:
        """Receive side: buffer, propose a priority back to the origin."""
        ref: MsgRef = (env["origin"], env["gseq"])
        entry = self._queue.get(ref)
        if entry is None:
            self._counter += 1
            entry = self._queue[ref] = _QueueEntry(
                env, (self._counter, self.engine.site_id))
            heapq.heappush(self._heap, (entry.priority, ref))
        if env["origin"] == self.engine.site_id:
            self.offer_proposal(ref, self.engine.site_id, entry.priority)
        else:
            note = Message(_proto="g.abp", gid=self.engine.gid,
                           view=self.engine.view.view_id,
                           ref=list(ref), prio=list(entry.priority))
            self.engine.kernel.counters.bump("abcast.proposals")
            self.engine.kernel.send_to_site(env["origin"], note)

    def _current(self, view_id: int) -> bool:
        """Is a ``g.abp`` / ``g.abf`` about the installed view?  Refs
        restart in every view, and a final sent just before the flush can
        arrive after the install: it would land on the new view's message
        of the same ref, so it is refused (``abcast.stale_notes``)."""
        view = self.engine.view
        if view is None or view_id != view.view_id:
            self.engine.sim.trace.bump("abcast.stale_notes")
            return False
        return True

    def on_proposal(self, src_site: int, note: tuple) -> None:
        _, _, view_id, ref, priority = note
        if self._current(view_id):
            self.offer_proposal(ref, src_site, priority)

    def offer_proposal(self, ref: MsgRef, site: int,
                       priority: Priority) -> None:
        """Record one proposal; the last one awaited makes the final."""
        state = self._collecting.get(ref)
        if state is None:
            return
        waiting, proposals = state
        if site in waiting:
            waiting.discard(site)
            proposals.append(tuple(priority))
        if not waiting:
            del self._collecting[ref]
            self.disseminate_final(ref, max(proposals))

    def on_sites_died(self, dead_sites: Set[int]) -> None:
        """Member sites left the site view mid-collection: stop waiting
        for them, and finish what only waited on them."""
        for site in dead_sites:
            for ref in list(self._collecting):
                waiting, proposals = self._collecting[ref]
                waiting.discard(site)
                if not waiting and proposals:
                    del self._collecting[ref]
                    self.disseminate_final(ref, max(proposals))

    def disseminate_final(self, ref: MsgRef, final: Priority) -> None:
        if self.engine.view is None:
            return
        note = Message(_proto="g.abf", gid=self.engine.gid,
                       view=self.engine.view.view_id,
                       ref=list(ref), prio=list(final))
        sent = len(self.pipeline.dissemination.to_peers(note))
        if sent:
            self.engine.kernel.counters.bump("abcast.finals", sent)
        self.apply_final(ref, final)

    def on_final(self, src_site: int, note: tuple) -> None:
        _, _, view_id, ref, final = note
        if self._current(view_id):
            self.apply_final(ref, final)

    def apply_final(self, ref: MsgRef, final: Priority) -> None:
        """Record a final priority and deliver whatever it unblocks.

        No finals are applied while the group is wedged: our FLUSH_OK
        report already went out, so a post-report delivery would sit at
        a position the coordinator's cut does not know about — survivors
        that deliver the same ref via the cut could order it differently
        (the cut recomputes the final from *reported* proposals, which
        need not equal the true final).  The cut settles every wedged
        ref deterministically, so dropping here never stalls a message.
        This mirrors ``SequencerOrdering``'s no-stamps-while-wedged rule.
        A final for a ref not queued (delivered at a cut, or a
        duplicate) changes nothing.
        """
        if self.engine.wedged:
            self.engine.sim.trace.bump("abcast.wedged_finals_dropped")
            return
        entry = self._queue.get(ref)
        if entry is None:
            return
        entry.final = True
        self._counter = max(self._counter, final[0])
        if entry.priority != final:  # else its heap entry already says so
            entry.priority = final
            heapq.heappush(self._heap, (final, ref))
        self._deliver(self._drain())

    def _drain(self) -> Drained:
        out: Drained = []
        queue, heap = self._queue, self._heap
        while queue and heap:
            priority, ref = heap[0]
            entry = queue.get(ref)
            if entry is None or entry.priority != priority:
                heapq.heappop(heap)  # delivered or re-prioritised since
                continue
            if not entry.final:
                break
            heapq.heappop(heap)
            del queue[ref]
            out.append((entry.msg, ref, priority))
        return out

    # -- flush support -----------------------------------------------------
    def pending_state(self) -> List[Dict]:
        """Wire-encodable snapshot of undelivered ABCASTs (for FLUSH_OK)."""
        return [{"ref": list(ref), "prio": list(entry.priority),
                 "final": entry.final}
                for ref, entry in self._queue.items()]

    def force_order(self, order: List[Tuple[MsgRef, Priority]]) -> List[Message]:
        """Apply a flush coordinator's final cut ordering.

        Every listed message we still hold becomes final with the given
        priority; the drain then releases them all (the flush guarantees
        we hold every listed message by now), unbooked: the view ends.
        Unlisted queued messages cannot exist at this point — the
        coordinator's union covers all.
        """
        for ref_raw, prio_raw in order:
            ref = (ref_raw[0], ref_raw[1])
            entry = self._queue.get(ref)
            if entry is not None:
                entry.priority = (prio_raw[0], prio_raw[1])
                entry.final = True
                heapq.heappush(self._heap, (entry.priority, ref))
        return [env for env, _, _ in self._drain()]

    def on_new_view(self) -> None:
        """Reset for a new view (old-view messages all settled by flush;
        in-flight collections too)."""
        self._queue.clear()
        self._heap.clear()
        self._collecting.clear()
        super().on_new_view()


class SequencerOrdering(OrderingEngine):
    """ABCAST stage: one-phase total order via a token-site sequencer.

    The Isis-lineage alternative to the paper's two phases.  The
    lowest-ranked (oldest) member's site of the current view holds the
    *token*.  Senders disseminate ``g.ab`` data envelopes exactly as in
    two-phase mode, but nobody proposes priorities: the token site
    assigns each envelope the next dense per-view sequence number
    (*stamp*) and broadcasts ``g.abs`` stamp messages.  Stamps batch —
    one ``g.abs`` can order many refs, accumulated over
    ``IsisConfig.batch_window`` — so the steady-state protocol cost per
    ABCAST is O(1) messages instead of the two-phase O(n) proposals
    plus finals.  How a ``g.abs`` reaches the members (flat, or down
    the view's spanning tree) is the dissemination stage's concern.

    Every site holds data envelopes until their stamp arrives and
    delivers in contiguous stamp order: stamp ``s`` only after stamps
    ``1..s-1`` — never "least priority wins" across a gap, which would
    let two sites with different stamp knowledge diverge.  Stamps from
    the token site travel over the FIFO transport, so each site's stamp
    knowledge is always a prefix of the token's order.  A stamp ``s`` is
    the priority ``(s, 0)``, so the flush's cut machinery works as for
    two-phase.

    Token handoff needs no extra protocol: the token is a pure function
    of the view, and a view change runs the flush, whose reports carry
    each survivor's stamped prefix.  The coordinator's union cut orders
    stamped messages first, then the deterministic unstamped tail, so
    all survivors deliver the same sequence across the cut; the new
    view's lowest-ranked member site then stamps from 1 again.
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        super().__init__(engine, pipeline)
        #: ref -> data envelope held but not yet delivered.
        self._held: Dict[MsgRef, Message] = {}
        #: ref -> stamp, for stamps known but not yet delivered.
        self._stamps: Dict[MsgRef, int] = {}
        #: stamp -> ref (inverse of _stamps).
        self._ref_at: Dict[int, MsgRef] = {}
        self._next_deliver = 1
        #: Token side: next stamp to assign (dense, per view).
        self._next_stamp = 1
        #: Token side: stamps accumulating for the next ``g.abs``.
        self._pending: List[List[int]] = []
        self._stamp_timer: Optional[Timer] = None
        #: ``(ref, seq)`` stamps for views we have not installed yet.
        self._future_stamps: List[Tuple[int, List[Tuple[MsgRef, int]]]] = []
        #: Token site of the view at the last view change (handoff count).
        self._token_site: Optional[int] = None

    def shutdown(self) -> None:
        """Disarm the token side's pending stamp-batch timer."""
        if self._stamp_timer is not None:
            self._stamp_timer.cancel()
            self._stamp_timer = None

    # -- token identity ----------------------------------------------------
    def token_site(self) -> Optional[int]:
        """The site holding the token: the lowest-ranked member's site."""
        view = self.engine.view
        if view is None or not view.members:
            return None
        return view.members[0].site

    def is_token(self) -> bool:
        return self.token_site() == self.engine.site_id

    # -- send side ---------------------------------------------------------
    def stamp(self, env: Message, sender: Address) -> None:
        """Send side: no proposal collection — ordering is the token's."""
        env["ab_sender"] = sender.process()

    # -- receive side ------------------------------------------------------
    def ingest(self, env: Message) -> None:
        """Hold a data envelope; the token site also assigns its stamp.

        The message store lets a ref through once per view, so a copy of
        a delivered message never gets here.  No stamps are assigned
        while the group is wedged: the token's FLUSH_OK report already
        went out, so a post-report stamp would be invisible to the
        coordinator's cut — the cut itself orders (or excludes)
        everything that arrives mid-flush.  Stamps assigned *before* the
        wedge are in the report and may keep delivering.
        """
        ref: MsgRef = (env["origin"], env["gseq"])
        if ref not in self._held:
            self._held[ref] = env
            self._deliver(self._drain())
        if (self.is_token() and not self.engine.wedged
                and ref not in self._stamps):
            self._assign_stamp(ref)

    def _assign_stamp(self, ref: MsgRef) -> None:
        """Token side: give ``ref`` the next stamp and queue its note."""
        seq = self._next_stamp
        self._next_stamp += 1
        self._queue_stamp(ref, seq)
        self._apply_stamps([(ref, seq)])

    def on_stamps(self, src_site: int, note: tuple) -> None:
        """A ``g.abs`` arrived: apply its (ref, seq) pairs.

        Current-view stamps arriving while wedged are dropped, mirroring
        the no-assignment-while-wedged rule: our FLUSH_OK report already
        went out, so applying them could deliver at stamp positions the
        coordinator's cut does not know about.  When the token is the
        flush coordinator (the normal case) this never triggers — its
        stamps precede ``g.fl.begin`` on the same FIFO channel; it only
        catches a suspected-but-alive token racing a removal flush, and
        the cut settles every such ref deterministically anyway.
        """
        engine = self.engine
        _, _, view_id, stamps = note
        pairs = [((origin, gseq), seq) for origin, gseq, seq in stamps]
        if not engine.installed or engine.view is None \
                or view_id > engine.view.view_id:
            # Stamps for a view we have not installed yet: hold them
            # (dropping would stall those refs until the next flush).
            self._future_stamps.append((view_id, pairs))
            return
        if view_id < engine.view.view_id:
            engine.sim.trace.bump("abcast.stale_stamps")
            return
        if engine.wedged:
            engine.sim.trace.bump("abcast.wedged_stamps_dropped")
            return
        self._apply_stamps(pairs)

    def _apply_stamps(self, pairs: List[Tuple[MsgRef, int]]) -> None:
        """Record token-site stamps; deliver what they release."""
        for ref, seq in pairs:
            if seq < self._next_deliver or ref in self._stamps:
                continue  # duplicate stamp (retransmit / flush overlap)
            self._stamps[ref] = seq
            self._ref_at[seq] = ref
        self._deliver(self._drain())

    def _drain(self) -> Drained:
        out: Drained = []
        while True:
            ref = self._ref_at.get(self._next_deliver)
            if ref is None:
                break
            msg = self._held.get(ref)
            if msg is None:
                break  # stamp known, data still in flight
            del self._held[ref]
            del self._ref_at[self._next_deliver]
            out.append((msg, ref, (self._stamps.pop(ref), 0)))
            self._next_deliver += 1
        return out

    # -- stamp batching ----------------------------------------------------
    def _queue_stamp(self, ref: MsgRef, seq: int) -> None:
        self._pending.append([ref[0], ref[1], seq])
        window = self.engine.kernel.config.batch_window
        if window <= 0:
            self.flush_stamps()
        elif self._stamp_timer is None:
            self._stamp_timer = self.engine.sim.call_after(
                window, self.flush_stamps)

    def flush_stamps(self) -> None:
        """Broadcast accumulated stamps as one ``g.abs`` per peer site."""
        if self._stamp_timer is not None:
            self._stamp_timer.cancel()
            self._stamp_timer = None
        if not self._pending:
            return
        engine = self.engine
        view = engine.view
        stamps, self._pending = self._pending, []
        if view is None or not engine.kernel.alive:
            return
        note = Message(_proto="g.abs", gid=engine.gid,
                       view=view.view_id, stamps=stamps)
        engine.sim.trace.bump("abcast.stamped_refs", len(stamps))
        sent = self.pipeline.dissemination.broadcast_note(note)
        if sent:
            engine.kernel.counters.bump("abcast.seq_stamps", sent)

    # -- flush support -----------------------------------------------------
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

    def force_order(self, order: List[Tuple[MsgRef, Priority]]) -> List[Message]:
        """Apply a flush coordinator's final cut ordering.

        The cut extends the stamp order (stamped prefix first, then the
        deterministic unstamped tail), so delivering held messages in the
        listed order agrees with every survivor's already-delivered
        prefix.  Contiguity gating is dropped here: a stamp whose data no
        survivor holds is skipped identically everywhere.  What it
        releases goes unbooked: the view ends.
        """
        out: List[Message] = []
        for ref_raw, _ in order:
            ref = (ref_raw[0], ref_raw[1])
            msg = self._held.pop(ref, None)
            if msg is None:
                continue
            seq = self._stamps.pop(ref, None)
            if seq is not None:
                self._ref_at.pop(seq, None)
            out.append(msg)
        return out

    # -- view lifecycle ----------------------------------------------------
    def on_wedge(self) -> None:
        """Flush starting: push pending stamps out ahead of the reports."""
        self.flush_stamps()

    def on_new_view(self) -> None:
        """Reset for a new view, then apply the stamps that raced ahead
        of its installation.  The book is reset after that replay."""
        self._held.clear()
        self._stamps.clear()
        self._ref_at.clear()
        self._next_deliver = 1
        self._pending.clear()
        if self._stamp_timer is not None:
            self._stamp_timer.cancel()
            self._stamp_timer = None
        self._next_stamp = 1
        old_token = self._token_site
        self._token_site = self.token_site()
        if (self._token_site == self.engine.site_id
                and old_token is not None and old_token != self._token_site):
            self.engine.kernel.counters.bump("abcast.token_handoffs")
        if self._future_stamps and self.engine.view is not None:
            current = self.engine.view.view_id
            ready = [s for v, s in self._future_stamps if v == current]
            self._future_stamps = [
                (v, s) for v, s in self._future_stamps if v > current
            ]
            for pairs in ready:
                self._apply_stamps(pairs)
        super().on_new_view()


class LeaderOrdering(SequencerOrdering):
    """Unselectable and bodiless: frozen ``bench/trace.py`` imports the name."""


_ENGINES = {"two_phase": TotalOrdering, "sequencer": SequencerOrdering}


def make_ordering(mode: str, engine: "GroupEngine",
                  pipeline: "DeliveryPipeline") -> OrderingEngine:
    """Instantiate the configured total-order engine for one group."""
    cls = _ENGINES.get(mode)
    if cls is None:
        known = ", ".join(repr(k) for k in sorted(_ENGINES))
        raise GroupError(f"unknown abcast_mode {mode!r} "
                         f"(expected one of {known})")
    return cls(engine, pipeline)
