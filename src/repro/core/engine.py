"""Per-group protocol engine at one member site's kernel.

One :class:`GroupEngine` exists per (process group × member site).  It
owns the *membership* side of a group's life — the flush, view
installation, coordinator duties, local delivery — and drives the
multicast data path through the layered
:class:`~repro.core.pipeline.DeliveryPipeline`
(dissemination → ordering → stability stages):

* **dissemination** — CBCAST/ABCAST envelopes fan out to every member
  site over the reliable transport, coalesced into ``g.batch`` wire
  messages when ``IsisConfig.batch_window > 0``; local members receive
  deliveries through the kernel's intra-site hop;
* **ordering** — causal (vector clocks) and total (two-phase priority
  or sequencer-stamp) delivery queues, both dependency-indexed — a
  delivery wakes exactly the messages it unblocks (FIFO successors and
  kernel WaitIndex threshold waiters) instead of re-scanning buffers;
* **stability** — every message is buffered until known everywhere, so a
  flush can refill any member that missed something; have-vectors
  piggyback on data envelopes so buffers trim continuously;
* **the flush** — the one view-change protocol: wedging (pre-reports
  after a site death, else a ``g.fl.begin`` round), union cut, refill,
  agreed ABCAST order, event application (view change / user GBCAST /
  config update);
* **coordinator duties** — the oldest member's site batches flush
  reasons (joins, removals, GBCASTs), runs the flush, answers join
  requests, and pushes view updates to watcher sites (client kernels
  with sessions or monitors on the group).

Wire protocol (each message's fields: its row in ``msg/wire.py``):

======================= ======================================================
``g.cb`` / ``g.ab``     data envelope; ``g.batch`` packs several
``g.abp`` / ``g.abf``   ABCAST proposal / final priority
``g.abs``               sequencer mode: order stamps from the token site
``g.fl.begin``          wedge request, announcing the expected union
``g.fl.ok``             participant report: have-vector + ABCAST state;
                        unsolicited (``pre``) after a site death
``g.fl.expect``         union cut a refilled site must reach
``g.fl.pull``           coordinator→holder: forward these tags to that site
``g.fl.data``           holder→needy: the messages themselves
``g.fl.filled``         needy→coordinator: I hold the union now
``g.fl.commit``         the cut order + the event (view / payload)
``g.fl.okb``            tree mode: pre-reports aggregated up the tree
``g.stab.a``            flat: a site's ``stab``, unsolicited, to every peer
``g.stab.up`` / ``.dn`` a subtree's minimum rootward up the collection tree
                        (flat: one level deep); the root's stable cut
``g.tr``                tree mode: relayed wrapper around any of the above
                        pipeline messages
======================= ======================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..msg.address import Address
from ..msg.fields import (
    apply_have_diff,
    encode_have_vector,
    exact_diff_have_vector,
)
from ..msg.message import Message
from ..sim.core import Timer
from .flush import FlushCoordinator, FlushId, FlushReason
from .pipeline import DeliveryPipeline
from .store import MessageStore
from .view import View

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import ProtocolsProcess

CBCAST = "cbcast"
ABCAST = "abcast"

#: How long a coordinator waits for the pre-reports a site death
#: triggers before it falls back to an explicit ``g.fl.begin`` round for
#: the stragglers.  Sized at a few inter-site round trips.
PREREPORT_GRACE = 0.25
#: Tree mode: how long an interior site coalesces pre-reports before it
#: forwards them one hop rootward as a ``g.fl.okb`` batch.  A few of
#: these fit well inside :data:`PREREPORT_GRACE`.
OKB_WINDOW = 0.06


class GroupEngine:
    """All protocol state for one group at one member site."""

    def __init__(self, kernel: "ProtocolsProcess", gid: Address, name: str = ""):
        self.kernel = kernel
        self.sim = kernel.sim
        self.gid = gid
        self.name = name
        self.site_id = kernel.site_id
        self.view: Optional[View] = None
        self.installed = False
        self.store = MessageStore()
        #: The layered data path (dissemination → ordering → stability).
        self.pipeline = DeliveryPipeline(self)
        # Aliases into the pipeline's ordering stages: the flush protocol
        # reports and force-orders through the same receiver state.
        self.causal = self.pipeline.causal.receiver
        self.total = self.pipeline.total.receiver
        self.tsender = self.pipeline.total.sender
        self.wedged = False
        self._outbox: List[Callable[[], None]] = []
        # Flush participant state.
        self._participant_fid: FlushId = (0, 0, 0)
        self._expect_union: Optional[Dict[int, int]] = None
        #: Base union the last ``g.fl.begin`` announced (delta reports).
        self._begin_base: Optional[Dict[int, int]] = None
        #: (target view, coordinator site) we last pushed a pre-report to.
        self._pre_reported: Optional[Tuple[int, int]] = None
        # Flush coordinator state.
        self._reasons: List[FlushReason] = []
        self._active: Optional[FlushCoordinator] = None
        self._attempt = 0
        #: Unsolicited pre-reports stashed before our flush starts:
        #: target view -> site -> (have, ab_pending, ab_delivered).
        self._pre_reports: Dict[int, Dict[int, Tuple]] = {}
        self._grace_timer: Optional[Timer] = None
        #: Tree mode: pre-reports riding up the tree, coalescing here.
        #: root (coordinator site) -> [[reporter site, encoded report]].
        self._okb_buf: Dict[int, List[List]] = {}
        self._okb_timer: Optional[Timer] = None
        #: ABCAST finals this site has delivered (ref -> prio), per view.
        self._delivered_finals: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: Highest final priority delivered in this view (monotone:
        #: two-phase and sequencer deliveries both occur in increasing
        #: final order), piggybacked so peers can prune their reports.
        self._delivery_floor: Tuple[int, int] = (0, 0)
        self._pruned_floor: Tuple[int, int] = (0, 0)
        #: When the wedge in progress began (``flush.wedged_seconds``).
        self._wedged_at: Optional[float] = None
        #: Client kernels to push view updates to.
        self.watcher_sites: Set[int] = set()
        #: Local pg_monitor callbacks: callback(view).
        self.monitors: List[Callable[[View], None]] = []

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def acting_coordinator(self) -> Optional[Address]:
        """The oldest member whose site is still in the site view.

        Normally the view's first member; when the coordinator's site has
        failed (but the group view has not yet been updated), the next
        oldest member on a live site acts in its place to run the flush.
        """
        if not self.installed or self.view is None:
            return None
        alive = self.kernel.alive_sites()
        for member in self.view.members:
            if member.site in alive:
                return member
        return None

    def is_coordinator_site(self) -> bool:
        """Is this site hosting the group's acting coordinator member?"""
        acting = self.acting_coordinator()
        return acting is not None and acting.site == self.site_id

    def local_members(self) -> List[Address]:
        if self.view is None:
            return []
        return self.view.members_at(self.site_id)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def create(self, creator: Address) -> View:
        """Initialize as a brand-new single-member group."""
        self.view = View(gid=self.gid, view_id=1, members=(creator.process(),))
        self.installed = True
        self.sim.trace.log("group.create", (str(self.gid), str(creator)))
        return self.view

    def install_from_welcome(self, view: View) -> None:
        """Joiner side: adopt the view the coordinator committed."""
        self.view = view
        self.installed = True
        self._reset_for_new_view()
        self.pipeline.drain_pre_view()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def mcast(
        self,
        kind: str,
        sender: Address,
        user_msg: Message,
        entry: int,
        on_dispatched: Optional[Callable[[View], None]] = None,
        audited: bool = True,
    ) -> None:
        """Multicast ``user_msg`` to the group (CBCAST or ABCAST).

        If the group is wedged (flush in progress) the send is queued and
        re-executed in the successor view — exactly the "messages are
        delivered in the view in which they were sent" rule.

        ``audited=False`` suppresses the logical-multicast counter: used
        when this dissemination is part of an operation already counted
        (e.g. the group copy of a ``reply_cc``, which Table I costs as a
        single CBCAST with multiple destinations).
        """
        if not self.installed or self.wedged:
            self._outbox.append(
                lambda: self.mcast(kind, sender, user_msg, entry,
                                   on_dispatched, audited))
            return
        assert self.view is not None
        if audited:
            self.sim.trace.bump(f"mcast.{kind}")
        env = Message(
            _proto="g.cb" if kind == CBCAST else "g.ab",
            gid=self.gid,
            view=self.view.view_id,
            origin=self.site_id,
            gseq=self.pipeline.next_gseq(),
            m=user_msg,
            entry=entry,
        )
        self.pipeline.submit(env, sender)
        if on_dispatched is not None:
            # Dispatch completes once the site CPU has accepted the
            # fan-out: asynchronous callers are flow-controlled by their
            # own protocols process, never outrunning the network path.
            view_snapshot = self.view
            self.kernel.site.cpu.submit(0.0, on_dispatched, view_snapshot)
        # Our own copy goes through the same ordering stages.
        self.pipeline.process(env)

    # ------------------------------------------------------------------
    # Receive: the kernel routes each ``g.fl.*`` record to its
    # ``_on_flush_*`` handler below; a flush message this site sends
    # itself takes the same path (``kernel._dispatch``).
    # ------------------------------------------------------------------
    # -- delivery to local members ---------------------------------------------
    def note_final_delivered(self, ref: Tuple[int, int],
                             final: Tuple[int, int]) -> None:
        """The total-order stage delivered ``ref`` (flush reporting)."""
        self._delivered_finals[ref] = final
        if final > self._delivery_floor:
            self._delivery_floor = final
            # An unannounced floor is stability work: keep the group in
            # the kernel's dirty set until peers learn it.
            self.kernel.note_group_dirty(self.gid)

    @property
    def delivery_floor(self) -> Tuple[int, int]:
        """Highest final priority delivered in the current view.

        Both total-order engines deliver in increasing final-priority
        order (a queued smaller priority blocks everything above it, and
        a later arrival's proposal — which lower-bounds its final —
        exceeds every priority already delivered), so a floor of ``f``
        means *every* ABCAST with final ≤ f has been delivered here.
        """
        return self._delivery_floor

    def shutdown(self) -> None:
        """Disarm the flush-grace and okb-batch timers and the pipeline."""
        self._cancel_grace()
        if self._okb_timer is not None:
            self._okb_timer.cancel()
            self._okb_timer = None
        self.pipeline.shutdown()

    def prune_delivered_finals(self) -> int:
        """Drop delivered finals known delivered at every member site.

        The minimum over all members' delivery floors, as the stability
        stage knows them, bounds a prefix of the view's final order that
        everyone has delivered: such refs are pending nowhere, so the flush cut
        never needs their priorities — reporting them would only be
        (re-)excluded by the delivered-everywhere rule.  This keeps
        ``g.fl.ok`` reports from scaling with the view's ABCAST history.
        """
        if self.view is None:
            return 0
        floor = self.pipeline.stability.group_floor()
        if floor <= self._pruned_floor:
            return 0
        self._pruned_floor = floor
        victims = [ref for ref, prio in self._delivered_finals.items()
                   if prio <= floor]
        for ref in victims:
            del self._delivered_finals[ref]
        if victims:
            self.sim.trace.bump("flush.finals_pruned", len(victims))
        return len(victims)

    def deliver_env(self, env: Message) -> None:
        user = env["m"].copy()
        if "_sender" not in user:
            # Member sends stamp the true originator before dissemination;
            # if absent, the disseminating member is the sender.
            user["_sender"] = env.get("cb_sender") or env.get("ab_sender")
        user["_group"] = self.gid
        user["_view_id"] = env["view"]
        user["_entry"] = env["entry"]
        self.sim.trace.bump("deliver.group")
        if self.kernel.wal is not None:
            self.kernel.wal.note_deliver(self, env, user)
        self.kernel.deliver_to_local_members(self, user)
        if self.kernel.wal is not None:
            # After the dispatch: a periodic-checkpoint snapshot must
            # queue behind the delivery its position already counts.
            self.kernel.wal.maybe_checkpoint(self)

    # ------------------------------------------------------------------
    # Flush: coordinator side
    # ------------------------------------------------------------------
    def enqueue_reason(self, reason: FlushReason) -> None:
        """Queue a flush cause (coordinator site only) and maybe start."""
        if reason.kind == "join" and reason.joiner is not None:
            if any(r.kind == "join" and r.joiner == reason.joiner
                   for r in self._reasons):
                return  # duplicate join request
            if self.view is not None and self.view.contains(reason.joiner):
                return
        if reason.kind == "remove":
            already = {
                r for reason2 in self._reasons for r in reason2.removals
            }
            new = tuple(r for r in reason.removals if r not in already)
            if not new:
                return
            reason.removals = new
        self._reasons.append(reason)
        self.maybe_start_flush()

    def maybe_start_flush(self) -> None:
        if (self._active is not None or not self._reasons
                or not self.installed or self.view is None):
            return
        if not self.is_coordinator_site():
            return
        if not self.kernel.membership_may_commit():
            # Quorum membership: a minority component must not commit
            # views or GBCAST events — it wedges until it heals (and
            # then rejoins via state transfer).  Primary-partition mode
            # always answers True here.
            self.sim.trace.bump("flush.membership_blocked")
            return
        # Taking over a flush another coordinator began (it died
        # mid-flush): run a conservative explicit-begin round with full
        # reports instead of trusting pre-reports addressed elsewhere.
        takeover = (self.wedged and self._participant_fid[1] > 0
                    and self._participant_fid[2] != self.site_id)
        if takeover:
            self.sim.trace.bump("flush.takeover_full")
        self._attempt += 1
        flush_id: FlushId = (self.view.view_id + 1, self._attempt, self.site_id)
        if self.kernel.config.gbcast_batching:
            reasons, self._reasons = self._reasons, []
        else:
            # Paper-faithful mode: one GBCAST payload per flush.
            # Membership reasons still batch (they are emergent events).
            reasons, kept, took_payload = [], [], False
            for reason in self._reasons:
                if reason.kind in ("gbcast", "config"):
                    if took_payload:
                        kept.append(reason)
                    else:
                        took_payload = True
                        reasons.append(reason)
                else:
                    reasons.append(reason)
            self._reasons = kept
        alive = self.kernel.alive_sites()
        participants = {
            s for s in self.view.member_sites() if s in alive
        }
        participants.add(self.site_id)
        base = None if takeover else self._flush_base()
        self._active = FlushCoordinator(flush_id, self.view, reasons,
                                        participants=participants, base=base)
        self.kernel.counters.bump("flush.runs")
        self.sim.trace.log("flush.begin", (str(self.gid), flush_id))
        self._wedge(flush_id)
        stragglers = sorted(participants - {self.site_id})
        if not takeover:
            stash = self._pre_reports.pop(self.view.view_id + 1, {})
            for site in list(stragglers):
                snap = stash.get(site)
                if snap is not None:
                    stragglers.remove(site)
                    self.sim.trace.bump("flush.prereports_used")
                    self._offer_report(site, snap[0], snap[1], snap[2])
        if stragglers:
            if not takeover and any(r.site_death for r in reasons):
                # Survivors observed the same site-view change and are
                # pushing pre-reports right now: wait briefly instead
                # of paying the begin round.  The window scales with the
                # fan-in — N reports serialize through our receive CPU.
                self._grace_timer = self.sim.call_after(
                    PREREPORT_GRACE + 0.01 * len(participants),
                    self._begin_stragglers, flush_id)
            else:
                self._send_begins(stragglers, flush_id)
        self._send_flush_ok(self.site_id, flush_id)

    def _flush_base(self) -> Dict[int, int]:
        """Expected union: own have-vector max-merged with everything
        piggybacked stability has taught us about the peers."""
        vectors = [self.store.have_vector()]
        vectors.extend(self.pipeline.stability.peer_have_vectors().values())
        return MessageStore.union(vectors)

    def _send_begins(self, sites: List[int], flush_id: FlushId) -> None:
        active = self._active
        if active is None or active.flush_id != flush_id:
            return
        begin = Message(_proto="g.fl.begin", gid=self.gid, fid=list(flush_id))
        if active.base is not None:
            begin["base_b"] = encode_have_vector(active.base)
        for site in sites:
            active.begins_sent += 1
            self._send_flush_msg(site, begin)

    def _begin_stragglers(self, flush_id: FlushId) -> None:
        """Pre-report grace expired: explicitly solicit what's missing."""
        self._grace_timer = None
        active = self._active
        if (active is None or active.flush_id != flush_id
                or active.phase != "collect"):
            return
        missing = sorted(active.member_sites - active.reported_sites())
        if missing:
            self.sim.trace.bump("flush.grace_begins")
            self._send_begins(missing, flush_id)

    def _cancel_grace(self) -> None:
        if self._grace_timer is not None:
            self._grace_timer.cancel()
            self._grace_timer = None

    def _send_flush_msg(self, site: int, msg: Message) -> None:
        self.sim.trace.bump("flush.wire_msgs")
        self.sim.trace.bump("flush.wire_bytes", msg.size_bytes)
        self.kernel.send_to_site(site, msg)

    def restart_flush(self, extra_removals: Tuple[Address, ...]) -> None:
        """A member died mid-flush: rerun with it removed."""
        if self._active is None:
            return
        old = self._active
        self._active = None
        self._cancel_grace()
        self.sim.trace.bump("flush.restarts")
        self._reasons = old.reasons + self._reasons
        if extra_removals:
            self._reasons.append(FlushReason(kind="remove",
                                             removals=extra_removals,
                                             site_death=True))
        if self.view is not None:
            # Reuse the survivors' reports: each reporter has been
            # wedged since its snapshot (nothing new initiated) and
            # stores never trim while wedged, so the snapshot is still
            # a valid basis for the retry's union cut and refill plan.
            stash = self._pre_reports.setdefault(self.view.view_id + 1, {})
            for site, snap in old.report_snapshots().items():
                if site != self.site_id and site not in stash:
                    stash[site] = snap
                    self.sim.trace.bump("flush.reports_reused")
        self.maybe_start_flush()

    def _on_flush_ok(self, src_site: int, record: tuple) -> None:
        """One report, direct, our own or out of a ``g.fl.okb``: taken
        if solicited, stashed if a pre-report, else stale.

        ``have_b`` is a full vector (pre-reports and full rounds),
        ``have_d`` an exact diff against the base union that the active
        flush announced in ``g.fl.begin``.
        """
        _, _, fid, abp, abd, have, have_d, _pre = record
        active = self._active
        current = active is not None and active.flush_id == fid
        if have_d is not None:
            have = apply_have_diff(active.base or {} if current else {},
                                   have_d)
        if current:
            self._offer_report(src_site, have, abp, abd)
            return
        if fid[1] != 0 or fid[2] != self.site_id:
            return
        # Unsolicited pre-report (attempt 0, addressed to us).
        if (active is not None and active.flush_id[0] == fid[0]
                and active.phase == "collect"):
            self._offer_report(src_site, have, abp, abd)
        elif (self.view is not None and self.installed
                and fid[0] > self.view.view_id):
            self._pre_reports.setdefault(fid[0], {}).setdefault(
                src_site, (have, abp, abd))

    def _offer_report(self, site: int, have: Dict[int, int],
                      ab_pending: List, ab_delivered: List) -> None:
        assert self._active is not None
        if self._active.offer_report(site, have, ab_pending, ab_delivered):
            self._start_fill_phase()

    def _start_fill_phase(self) -> None:
        assert self._active is not None
        active = self._active
        self._cancel_grace()
        complete = active.complete_sites()
        pulls = active.compute_pulls()
        if pulls:
            self.sim.trace.bump("flush.refills")
        expect = Message(
            _proto="g.fl.expect", gid=self.gid,
            fid=list(active.flush_id),
            union_b=encode_have_vector(active.union),
        )
        for site in active.member_sites - complete:
            if site == self.site_id:
                self.kernel._dispatch(site, expect)
            else:
                self._send_flush_msg(site, expect)
        for holder, sends in pulls.items():
            pull = Message(
                _proto="g.fl.pull", gid=self.gid,
                fid=list(active.flush_id),
                sends=[list(s) for s in sends],
            )
            if holder == self.site_id:
                self.kernel._dispatch(holder, pull)
            else:
                self._send_flush_msg(holder, pull)
        for site in complete:
            self._note_filled(site)

    def _note_filled(self, site: int) -> None:
        if self._active is None:
            return
        if self._active.note_filled(site):
            self._commit_flush()

    def _on_flush_filled(self, src_site: int, record: tuple) -> None:
        fid = record[2]
        if self._active is not None and self._active.flush_id == fid:
            self._note_filled(src_site)

    def _commit_flush(self) -> None:
        assert self._active is not None
        active = self._active
        self._cancel_grace()
        new_view = active.next_view()
        event: Dict = {"view": new_view.to_value()}
        joiners: List[Address] = []
        transfer = False
        for reason in active.reasons:
            if reason.kind == "join" and reason.joiner is not None:
                if reason.joiner not in joiners:
                    joiners.append(reason.joiner)
                transfer = transfer or (
                    reason.transfer_state and bool(active.view.members))
            elif reason.kind in ("gbcast", "config") and reason.payload is not None:
                event.setdefault("payloads", []).append({
                    "kind": reason.kind,
                    "m": Message.decode(reason.payload),
                    "entry": reason.user_entry,
                })
        if joiners:
            # Concurrent joiners batch into one flush; they all receive
            # welcomes and share one snapshot encode at the source.
            event["joiners"] = joiners
            event["transfer"] = transfer
            event["source"] = active.view.coordinator()
        if active.base is not None:
            if active.begins_sent == 0:
                self.kernel.counters.bump("flush.fast_path")
            else:
                self.kernel.counters.bump("flush.fast_path_misses")
        commit = Message(
            _proto="g.fl.commit", gid=self.gid,
            fid=list(active.flush_id),
            ab_order=active.abcast_cut_order(),
            event=event,
        )
        self.sim.trace.log("flush.commit", (str(self.gid), active.flush_id,
                                            new_view.view_id))
        for site in active.member_sites:
            if site != self.site_id:
                self._send_flush_msg(site, commit)
        self._active = None
        self.kernel.joins.welcome(self, new_view, joiners, transfer)
        self.kernel.rpc.tell_watchers(self, new_view)
        self.kernel._dispatch(self.site_id, commit)
        self.maybe_start_flush()

    # ------------------------------------------------------------------
    # Flush: participant side
    # ------------------------------------------------------------------
    def _wedge(self, fid: FlushId) -> None:
        if not self.wedged:
            self._wedged_at = self.sim.now
        self.wedged = True
        self._participant_fid = fid
        self._expect_union = None
        self._begin_base = None
        # Push coalescing buffers out now: what peers receive before
        # their reports shrinks the refill the coordinator must arrange.
        self.pipeline.on_wedge()

    def _on_flush_begin(self, src_site: int, record: tuple) -> None:
        _, _, fid, base = record
        if fid < self._participant_fid:
            # A lower fid is normally a stale coordinator's — unless it
            # comes from the *current* acting coordinator targeting the
            # same (or a later) view: the previous coordinator died
            # mid-flush and its successor's attempt counter restarted.
            acting = self.acting_coordinator()
            if (acting is None or acting.site != src_site
                    or fid[0] < self._participant_fid[0]):
                return
        self._wedge(fid)
        if base is not None:
            self._begin_base = base
        self._send_flush_ok(src_site, fid)

    def _send_flush_ok(self, to_site: int, fid: FlushId,
                       pre: bool = False) -> None:
        report = Message(
            _proto="g.fl.ok", gid=self.gid, fid=list(fid),
            abp=self.total.pending_state(),
            abd=[[list(ref), list(prio)]
                 for ref, prio in sorted(self._delivered_finals.items())],
        )
        have = self.store.have_vector()
        if self._begin_base is not None and not pre:
            # Delta against the begin's announced union: usually
            # empty (the "ack"), a handful of entries otherwise.
            report["have_d"] = encode_have_vector(
                exact_diff_have_vector(self._begin_base, have))
        else:
            report["have_b"] = encode_have_vector(have)
        if pre:
            report["pre"] = True
        if to_site == self.site_id:
            self.kernel._dispatch(to_site, report)
        elif pre and self.kernel.config.dissemination == "tree":
            # Pre-reports aggregate up the coordinator-rooted tree so
            # the coordinator's fan-in is O(fanout) batches, not n-1
            # individual reports.  Solicited reports (a begin response)
            # always go direct: the begin round IS the fallback when
            # relayed pre-reports are lost, so it must not depend on
            # relays itself.
            self._okb_enqueue(to_site, self.site_id, report.encode())
        else:
            self._send_flush_msg(to_site, report)

    # -- tree-aggregated pre-reports (dissemination == "tree") -------------
    def _okb_enqueue(self, root: int, src_site: int, raw) -> None:
        self._okb_buf.setdefault(root, []).append([src_site, raw])
        if self._okb_timer is None:
            self._okb_timer = self.sim.call_after(
                OKB_WINDOW, self._okb_flush)

    def _okb_flush(self) -> None:
        """Forward coalesced pre-reports one hop rootward."""
        self._okb_timer = None
        buf, self._okb_buf = self._okb_buf, {}
        if not buf or not self.kernel.alive:
            return
        tree = self.pipeline.dissemination.tree()
        for root, reports in buf.items():
            parent = None
            if tree is not None and root in tree and self.site_id in tree:
                parent = tree.parent(root, self.site_id)
            if parent is None:
                # We are the root ourselves (coordinator duties moved to
                # us mid-wave) or the tree is unknown: finish direct.
                for src, raw in reports:
                    report = Message.decode(raw)
                    if root == self.site_id:
                        self.kernel._dispatch(src, report)
                    else:
                        self._send_flush_msg(root, report)
                continue
            batch = Message(_proto="g.fl.okb", gid=self.gid, root=root,
                            reports=reports)
            self.sim.trace.bump("flush.okb_sent")
            self._send_flush_msg(parent, batch)

    def _on_flush_okb(self, src_site: int, record: tuple) -> None:
        """Aggregated pre-reports arrived: take them at the root, else
        relay them as they came."""
        _, _, root, reports = record
        if root == self.site_id:
            for src, report in reports:
                self._on_flush_ok(src, report)
            return
        # Interior relay: coalesce with whatever we are already holding
        # (our own pre-report typically rides the same batch upward).
        self.sim.trace.bump("flush.okb_relayed")
        for src, report in reports:
            self._okb_enqueue(root, src, report[0].encode())

    def _on_flush_expect(self, src_site: int, record: tuple) -> None:
        _, _, fid, union = record
        if fid != self._participant_fid:
            # A coordinator that consumed our unsolicited pre-report
            # (attempt 0) runs its flush under a higher fid than the one
            # we wedged with; its expect supersedes ours exactly as a
            # begin would — but only the *acting* coordinator's: a
            # deposed coordinator's delayed expect must not hijack the
            # participant fid (its data/filled exchange would then be
            # ignored, stalling the successor's flush).
            acting = self.acting_coordinator()
            if (acting is None or acting.site != fid[2] or not self.wedged
                    or fid < self._participant_fid
                    or fid[0] != self._participant_fid[0]):
                return
            self._participant_fid = fid
        self._expect_union = union
        self._check_filled(fid)

    def _on_flush_pull(self, src_site: int, record: tuple) -> None:
        _, _, fid, sends = record
        fid = list(fid)
        batches: Dict[int, List[Message]] = {}
        for origin, gseq, needy in sends:
            held = self.store.get(origin, gseq)
            if held is not None:
                batches.setdefault(needy, []).append(held)
        for needy, envs in batches.items():
            data = Message(_proto="g.fl.data", gid=self.gid,
                           fid=fid, msgs=envs)
            nbytes = sum(env.size_bytes for env in envs)
            self.kernel.counters.bump("flush.refill_bytes", nbytes)
            if needy == self.site_id:
                self.kernel._dispatch(needy, data)
            else:
                self._send_flush_msg(needy, data)

    def _on_flush_data(self, src_site: int, record: tuple) -> None:
        _, _, fid, envelopes = record
        for envelope in envelopes:
            self.pipeline.accept_refill(envelope)
        self._check_filled(fid)

    def maybe_flush_filled(self) -> None:
        """Data arrived while a fill is pending: re-check completeness."""
        if self._expect_union is not None:
            self._check_filled(self._participant_fid)

    def _check_filled(self, fid: FlushId) -> None:
        if self._expect_union is None or fid != self._participant_fid:
            return
        if not self.store.complete_for(self._expect_union):
            return
        filled = Message(_proto="g.fl.filled", gid=self.gid, fid=list(fid))
        coordinator_site = fid[2]
        if coordinator_site == self.site_id:
            self.kernel._dispatch(coordinator_site, filled)
        else:
            self._send_flush_msg(coordinator_site, filled)
        self._expect_union = None

    def _on_flush_commit(self, src_site: int, record: tuple) -> None:
        # The view id of the event names the flush, not the fid.
        _, _, _fid, ab_order, event = record
        if self.view is None or not self.installed:
            return
        new_view, payloads = event[0], event[1]
        if new_view.view_id <= self.view.view_id:
            return  # duplicate commit
        old_view = self.view
        # 1. Deliver the remaining causal messages of the old view.
        for ready in self.causal.recheck():
            self.deliver_env(ready)
        for leftover in self.causal.pending_messages():
            # Cross-group context gaps are overridden at the cut (see
            # DESIGN.md): the set, not the interleaving, is what view
            # synchrony fixes.
            self.deliver_env(leftover)
        # 2. Deliver the agreed ABCAST cut.
        for ready in self.total.force_order(ab_order):
            self.deliver_env(ready)
        # 3. Deliver GBCAST / configuration payloads.
        for idx, (kind, payload, entry) in enumerate(payloads or ()):
            user = payload.copy()
            user["_group"] = self.gid
            user["_view_id"] = new_view.view_id
            user["_entry"] = entry
            user["_gb_kind"] = kind
            self.sim.trace.bump("deliver.gbcast")
            if self.kernel.wal is not None:
                self.kernel.wal.note_gbcast(self, new_view.view_id, idx, user)
            self.kernel.deliver_to_local_members(self, user)
        # 4. Install the new view.
        self.view = new_view
        self._reset_for_new_view()
        self.sim.trace.bump("group.views_installed")
        self.sim.trace.log("group.view", (str(self.gid), new_view.view_id,
                                          tuple(str(m) for m in new_view.members)))
        still_member = bool(new_view.members_at(self.site_id))
        self.kernel.on_view_installed(self, old_view, new_view, event)
        for monitor in list(self.monitors):
            if old_view.members != new_view.members:
                monitor(new_view)
        # 5. Resume.
        self.wedged = False
        if self._wedged_at is not None:
            self.kernel.counters.bump("flush.wedged_seconds",
                                      self.sim.now - self._wedged_at)
            self._wedged_at = None
        outbox, self._outbox = self._outbox, []
        if still_member:
            for resend in outbox:
                resend()
            self.pipeline.drain_pre_view()
        else:
            self.kernel.retire_engine(self)
        # 6. The view install can satisfy cross-group causal waits
        # elsewhere (per-view vectors reset, so old-view thresholds are
        # void): drain them now rather than at the next unrelated
        # arrival.
        self.kernel.causal_check.recheck(exclude=self.gid)

    def _reset_for_new_view(self) -> None:
        self.store.reset()
        self.pipeline.on_new_view()
        self._delivered_finals.clear()
        self._delivery_floor = (0, 0)
        self._pruned_floor = (0, 0)
        self._pre_reported = None
        # In-flight aggregated pre-reports target the view just
        # committed; the commit supersedes them.
        self._okb_buf.clear()
        if self._okb_timer is not None:
            self._okb_timer.cancel()
            self._okb_timer = None
        if self._pre_reports:
            view_id = self.view.view_id if self.view is not None else 0
            self._pre_reports = {
                target: reports
                for target, reports in self._pre_reports.items()
                if target > view_id
            }

    # ------------------------------------------------------------------
    # Failure events
    # ------------------------------------------------------------------
    def on_sites_died(self, dead_sites: Set[int]) -> None:
        """Site view removed sites: drop their members, maybe coordinate."""
        if self.view is None or not self.installed:
            return
        dead_members = tuple(
            m for m in self.view.members if m.site in dead_sites
        )
        if not dead_members:
            return
        # Complete ABCAST collections that were waiting on dead sites.
        self.pipeline.total.on_sites_died(dead_sites)
        if self.is_coordinator_site():
            if self._active is not None:
                self.restart_flush(extra_removals=dead_members)
            else:
                self.enqueue_reason(FlushReason(kind="remove",
                                                removals=dead_members,
                                                site_death=True))
        else:
            self._push_pre_report()

    def _push_pre_report(self) -> None:
        """Site-view change removed members: wedge now and push our
        report to the predicted coordinator before it even asks.

        Every survivor observes the same agreed site-view install, so
        the acting coordinator (the oldest member on a surviving site)
        is a shared deterministic prediction; it collects these
        unsolicited reports and commits in a single round trip — no
        ``g.fl.begin`` round.  Missing reports (a lagging participant)
        fall back to an explicit begin after the coordinator's grace.
        """
        acting = self.acting_coordinator()
        if acting is None or acting.site == self.site_id or self.view is None:
            return
        target = self.view.view_id + 1
        key = (target, acting.site)
        if self._pre_reported == key:
            return
        fid = self._participant_fid
        if fid[0] == target and fid[1] > 0 and fid[2] == acting.site:
            return  # already serving this coordinator's explicit round
        self._pre_reported = key
        fid0: FlushId = (target, 0, acting.site)
        self._wedge(fid0)
        self.sim.trace.bump("flush.prereports_sent")
        self._send_flush_ok(acting.site, fid0, pre=True)

    def on_local_member_died(self, member: Address) -> None:
        """A member process at this site died (local detection)."""
        if self.view is None or not self.view.contains(member):
            return
        if self.is_coordinator_site():
            self.enqueue_reason(FlushReason(kind="remove",
                                            removals=(member,)))
            return
        acting = self.acting_coordinator()
        if acting is None:
            return
        if acting.process() == member.process() and len(self.view.members) > 1:
            # The dying process IS the coordinator; route to the next
            # oldest live member's site instead.
            survivors = self.view.without([member])
            if survivors.members:
                self.kernel.send_to_site(
                    survivors.members[0].site,
                    Message(_proto="g.dead", gid=self.gid, member=member))
            return
        self.kernel.send_to_site(
            acting.site,
            Message(_proto="g.dead", gid=self.gid, member=member),
        )
