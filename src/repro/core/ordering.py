"""Total-order engines behind the explicit :class:`OrderingEngine` seam.

Two engines plug into the delivery pipeline's ordering slot
(``IsisConfig.abcast_mode``), both honouring one contract so the group
engine, the flush machinery and the stats layer never branch on the
mode:

* **Stamp issuance** — ``stamp(env, sender)`` attaches whatever
  send-side metadata the engine needs; ``ingest(env)`` buffers a
  received envelope and drives delivery.  Deliveries go through
  ``GroupEngine.note_final_delivered`` with the final priority, so the
  delivery floor stays monotone within a view for every engine.
* **Wedge behaviour** — while the group is wedged (flush in progress)
  an engine must neither assign new order (stamps, finals) nor apply
  order that arrives: the site's FLUSH_OK report already went out, and
  post-report deliveries would sit at positions the coordinator's cut
  cannot see.  ``on_wedge()`` is the hook to push buffered order out
  *ahead* of the report.
* **Flush-cut contribution** — the engine's ``receiver`` exposes
  ``pending_state()`` / ``take_delivered()`` / ``force_order()``:
  undelivered state is reported as ``(priority, final?)`` entries and
  the coordinator's union cut (finals win; otherwise max proposal;
  refs unseen at some survivor are lifted above every final) orders
  them identically at every survivor.
* **Unstamped-tail rule** — refs the engine never ordered are reported
  with deterministic priorities above every assignable one
  (``UNSTAMPED_BASE``), so the cut appends them in the same order
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

from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from ..errors import GroupError
from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Timer
from .abcast import (
    MsgRef,
    Priority,
    SequencerReceiver,
    TotalOrderReceiver,
    TotalOrderSender,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import GroupEngine
    from .pipeline import DeliveryPipeline


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
        self.receiver = self._make_receiver()
        #: Two-phase collection state.  Engines that never collect keep
        #: it inert so the flush/failure paths stay mode-agnostic
        #: (``drop_site`` on an inert sender completes nothing).
        self.sender = TotalOrderSender()

    def _make_receiver(self):
        raise NotImplementedError

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

    def disseminate_final(self, ref: MsgRef, final: Priority) -> None:
        """Broadcast a completed final (two-phase only; noise elsewhere)."""
        self.engine.sim.trace.bump("abcast.unexpected_control")

    def _deliver(self, ready: List[Message]) -> None:
        """Hand on what the receiver just drained.

        One drain can unblock several messages; each is recorded with
        its own final priority (a flush cut built from a wrong priority
        would diverge between survivors).  The engine's floor-pruned
        book is then the one record of what was delivered at which.
        """
        if not ready:
            return
        for env, (ref, priority) in zip(ready, self.receiver.take_delivered()):
            self.engine.note_final_delivered(ref, priority)
            self.engine.deliver_env(env)

    # -- failure events ----------------------------------------------------
    def on_sites_died(self, dead_sites: Set[int]) -> None:
        """Member sites left the site view mid-collection.

        Complete any proposal collections that were only waiting on the
        dead sites; engines without a collecting sender inherit this as
        a no-op (the inert sender completes nothing).
        """
        for site in dead_sites:
            for ref, final in self.sender.drop_site(site):
                self.disseminate_final(ref, final)

    # -- view lifecycle ----------------------------------------------------
    def on_wedge(self) -> None:
        """Flush starting: push any buffered order out ahead of reports."""

    def on_new_view(self) -> None:
        self.receiver.on_new_view()
        self.sender.abandon_all()


class TotalOrdering(OrderingEngine):
    """ABCAST stage: two-phase priority total order."""

    def _make_receiver(self) -> TotalOrderReceiver:
        return TotalOrderReceiver(self.engine.site_id)

    def stamp(self, env: Message, sender: Address) -> None:
        """Send side: open a proposal collection for this envelope."""
        assert self.engine.view is not None
        env["ab_sender"] = sender.process()
        self.sender.start((self.engine.site_id, env["gseq"]),
                          list(self.engine.view.member_sites()))

    def ingest(self, env: Message) -> None:
        """Receive side: buffer, propose a priority back to the origin."""
        ref: MsgRef = (env["origin"], env["gseq"])
        priority = self.receiver.propose(ref, env)
        if env["origin"] == self.engine.site_id:
            self.offer_proposal(ref, self.engine.site_id, priority)
        else:
            note = Message(_proto="g.abp", gid=self.engine.gid,
                           view=self.engine.view.view_id,
                           ref=list(ref), prio=list(priority))
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
        final = self.sender.offer_proposal(ref, site, priority)
        if final is not None:
            self.disseminate_final(ref, final)

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
        """
        if self.engine.wedged:
            self.engine.sim.trace.bump("abcast.wedged_finals_dropped")
            return
        self._deliver(self.receiver.finalize(ref, final))


class SequencerOrdering(OrderingEngine):
    """ABCAST stage: one-phase total order via a token-site sequencer.

    The lowest-ranked (oldest) member's site of the current view holds
    the *token*.  Senders disseminate ``g.ab`` data envelopes exactly as
    in two-phase mode, but nobody proposes priorities: the token site
    assigns each envelope the next dense per-view sequence number and
    broadcasts ``g.abs`` stamp messages.  Stamps batch — one ``g.abs``
    can order many refs, accumulated over ``IsisConfig.batch_window`` —
    so the steady-state protocol cost per ABCAST is O(1) messages
    instead of the two-phase O(n) proposals plus finals.

    Token handoff needs no extra protocol: the token is a pure function
    of the view, and a view change runs the flush, whose reports carry
    each survivor's stamped prefix (as ``(seq, 0)`` priorities).  The
    coordinator's union cut orders stamped messages first, then the
    deterministic unstamped tail, so all survivors deliver the same
    sequence across the cut; the new view's lowest-ranked member site
    then stamps from 1 again.
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        super().__init__(engine, pipeline)
        #: Token side: next stamp to assign (dense, per view).
        self._next_stamp = 1
        #: Token side: stamps accumulating for the next ``g.abs``.
        self._pending: List[List[int]] = []
        self._stamp_timer: Optional[Timer] = None
        #: ``(ref, seq)`` stamps for views we have not installed yet.
        self._future_stamps: List[Tuple[int, List[Tuple[MsgRef, int]]]] = []
        #: Token site of the view at the last view change (handoff count).
        self._token_site: Optional[int] = None

    def _make_receiver(self) -> SequencerReceiver:
        return SequencerReceiver(self.engine.site_id)

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
        """Buffer a data envelope; the token site also assigns its stamp.

        No stamps are assigned while the group is wedged: the token's
        FLUSH_OK report already went out, so a post-report stamp would be
        invisible to the coordinator's cut — the cut itself orders (or
        excludes) everything that arrives mid-flush.  Stamps assigned
        *before* the wedge are in the report and may keep delivering.
        """
        ref: MsgRef = (env["origin"], env["gseq"])
        self._deliver(self.receiver.hold(ref, env))
        if (self.is_token() and not self.engine.wedged
                and not self.receiver.has_stamp(ref)):
            self._assign_stamp(ref)

    def _assign_stamp(self, ref: MsgRef) -> None:
        """Token side: give ``ref`` the next stamp and queue its note."""
        seq = self._next_stamp
        self._next_stamp += 1
        self._queue_stamp(ref, seq)
        self._deliver(self.receiver.apply_stamps([(ref, seq)]))

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
        self._deliver(self.receiver.apply_stamps(pairs))

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

    # -- view lifecycle ----------------------------------------------------
    def on_wedge(self) -> None:
        """Flush starting: push pending stamps out ahead of the reports."""
        self.flush_stamps()

    def on_new_view(self) -> None:
        super().on_new_view()
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
        # Replay stamps that raced ahead of our view installation.
        if self._future_stamps and self.engine.view is not None:
            current = self.engine.view.view_id
            ready = [s for v, s in self._future_stamps if v == current]
            self._future_stamps = [
                (v, s) for v, s in self._future_stamps if v > current
            ]
            for pairs in ready:
                self._deliver(self.receiver.apply_stamps(pairs))


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
