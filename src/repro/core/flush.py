"""The view-change / GBCAST flush protocol.

Virtual synchrony's central mechanism: before a group event that must be
totally ordered with respect to *everything* (a membership change, a
configuration update, or a user-level GBCAST), the group's traffic is
brought to a consistent cut.  The coordinator (the oldest member's
kernel) has every member site **wedge** — stop initiating multicasts —
and report what it holds; it computes the **union cut**, every message
held anywhere, has holders refill the sites that miss some, and commits
the agreed ABCAST order with the event.  Every site delivers the
remaining old-view messages identically, applies the event, and resumes
in the new view.  A failure *during* the flush restarts it: a new
coordinator (the oldest survivor) raises the flush id and reruns; every
step is idempotent.

Wire protocol (each message's fields: its row in ``msg/wire.py``):

======================= ======================================================
``g.fl.begin``          wedge request, announcing the expected union (the
                        report answers with a diff against it)
``g.fl.ok``             participant report: have-vector, undelivered ABCAST
                        state, finals delivered but not known delivered
                        everywhere; unsolicited (``pre``) after a site death
``g.fl.expect``         union cut a refilled site must reach
``g.fl.pull``           coordinator→holder: forward these tags to that site
``g.fl.data``           holder→needy: the messages themselves
``g.fl.filled``         needy→coordinator: I hold the union now
``g.fl.commit``         the cut order + the event (view / payload)
``g.fl.okb``            tree mode: pre-reports aggregated up the tree
======================= ======================================================

After a site death every survivor saw the same site-view change, so
each pushes a *pre-report* to the predicted coordinator, and the begin
round runs only for stragglers; in tree mode pre-reports coalesce up the
coordinator-rooted spanning tree as ``g.fl.okb``.  Every path feeds
:meth:`FlushCoordinator.offer_report`, which holds one attempt's
bookkeeping; :class:`GroupFlush` (``engine.flush``) runs both sides at a
site.  The cut is :func:`repro.core.ordering.cut_order`'s; applying a
commit is the engine's (:meth:`~repro.core.engine.GroupEngine.apply_commit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

from ..msg.address import Address
from ..msg.fields import (
    apply_have_diff,
    encode_have_vector,
    exact_diff_have_vector,
)
from ..msg.message import Message
from ..sim.core import Timer
from .ordering import MsgRef, Pending, Priority, cut_order
from .store import MessageStore
from .view import View

if TYPE_CHECKING:  # pragma: no cover
    from .engine import GroupEngine

#: Flush ids order lexicographically: (target view id, attempt, coordinator site).
FlushId = Tuple[int, int, int]

#: How long a coordinator waits for the pre-reports a site death
#: triggers before it falls back to an explicit ``g.fl.begin`` round for
#: the stragglers.  Sized at a few inter-site round trips.
PREREPORT_GRACE = 0.25
#: Tree mode: how long an interior site coalesces pre-reports before it
#: forwards them one hop rootward as a ``g.fl.okb`` batch.  A few of
#: these fit well inside :data:`PREREPORT_GRACE`.
OKB_WINDOW = 0.06


@dataclass
class FlushReason:
    """One queued cause for running a flush."""

    kind: str                      # "join" | "remove" | "gbcast" | "config"
    joiner: Optional[Address] = None
    removals: Tuple[Address, ...] = ()
    payload: Optional[bytes] = None    # encoded user message (gbcast/config)
    user_entry: int = 0
    transfer_state: bool = True        # joins: run state transfer?
    #: Removal caused by a *site-view* change: every surviving
    #: participant observed the same change and is pushing an
    #: unsolicited pre-report, so the coordinator can skip the
    #: ``g.fl.begin`` round and wait for the reports directly.
    site_death: bool = False


class _SiteReport(NamedTuple):
    """One site's ``g.fl.ok``, as ``msg/wire.py`` parses it."""

    have: Dict[int, int]
    ab_pending: List[Pending]
    ab_delivered: List[Tuple[MsgRef, Priority]]


class FlushCoordinator:
    """Coordinator-side state for one flush attempt.

    ``participants`` is the set of member sites that are alive in the
    current *site view* — dead sites cannot report, and their unreceived
    messages are exactly what the union cut excludes (atomicity: such a
    message is delivered nowhere).
    """

    def __init__(self, flush_id: FlushId, view: View,
                 reasons: List[FlushReason], participants: Set[int],
                 base: Optional[Dict[int, int]] = None):
        self.flush_id = flush_id
        self.view = view
        self.reasons = reasons
        self.member_sites: Set[int] = set(participants)
        #: site -> its report; a restart reuses the survivors'
        #: (:meth:`GroupFlush.restart_flush`).
        self.reports: Dict[int, _SiteReport] = {}
        self._filled: Set[int] = set()
        self.union: Dict[int, int] = {}
        self.phase = "collect"  # collect -> fill -> done
        #: The expected union announced in ``g.fl.begin``; participants
        #: delta-encode their have-vectors against it (``None``: a
        #: takeover round, which asks for full vectors).
        self.base: Optional[Dict[int, int]] = base
        #: ``g.fl.begin`` messages actually sent (0 = pure pre-report
        #: round: single-round wedge→commit).
        self.begins_sent = 0

    # -- phase 1: collect reports ------------------------------------------
    def offer_report(self, site: int, have: Dict[int, int],
                     ab_pending: List[Pending],
                     ab_delivered: List) -> bool:
        """Record one FLUSH_OK (as ``msg/wire.py`` parses it); True when
        all reports are in."""
        if site not in self.member_sites or self.phase != "collect":
            return False
        self.reports[site] = _SiteReport(have, ab_pending, ab_delivered)
        if set(self.reports) == self.member_sites:
            self.union = MessageStore.union(
                r.have for r in self.reports.values())
            self.phase = "fill"
            return True
        return False

    # -- phase 2: refill -------------------------------------------------------
    def compute_pulls(self) -> Dict[int, List[Tuple[int, int, int]]]:
        """holder_site -> [(origin, gseq, needy_site), ...].

        Holder lookup goes through a per-origin index of (site, have)
        built once from the reports, instead of re-walking every report
        dict for every missing gseq; the chosen holder — the first
        reporting site whose have-vector covers the gseq — is identical.
        """
        holders: Dict[int, List[Tuple[int, int]]] = {
            origin: [(site, report.have.get(origin, 0))
                     for site, report in self.reports.items()]
            for origin in self.union
        }
        pulls: Dict[int, List[Tuple[int, int, int]]] = {}
        for needy, report in self.reports.items():
            for origin_site, top in self.union.items():
                already = report.have.get(origin_site, 0)
                for gseq in range(already + 1, top + 1):
                    holder = self._find_holder(holders[origin_site], gseq)
                    if holder is not None and holder != needy:
                        pulls.setdefault(holder, []).append(
                            (origin_site, gseq, needy))
        return pulls

    @staticmethod
    def _find_holder(holders: List[Tuple[int, int]],
                     gseq: int) -> Optional[int]:
        for site, have in holders:
            if have >= gseq:
                return site
        return None

    def complete_sites(self) -> Set[int]:
        """Sites whose reported have-vector already covers the union."""
        done = set()
        for site, report in self.reports.items():
            covered = all(
                report.have.get(origin, 0) >= top
                for origin, top in self.union.items()
            )
            if covered:
                done.add(site)
        return done

    def note_filled(self, site: int) -> bool:
        """Record a FLUSH_FILLED; True when every site holds the union."""
        if site in self.member_sites:
            self._filled.add(site)
        if self._filled >= self.member_sites:
            self.phase = "done"
            return True
        return False

    # -- phase 3: the commit --------------------------------------------------
    def next_view(self) -> View:
        """Apply the queued reasons to produce the successor view."""
        members = list(self.view.members)
        for reason in self.reasons:
            removed = {r.process() for r in reason.removals}
            members = [m for m in members if m.process() not in removed]
            if reason.joiner is not None:
                joiner = reason.joiner.process()
                if joiner not in members:
                    members.append(joiner)
        return View(
            gid=self.view.gid,
            view_id=self.view.view_id + 1,
            members=tuple(members),
        )


class GroupFlush:
    """The flush of one group at one member site, both of its sides.

    The kernel routes each ``g.fl.*`` record to its ``_on_*`` handler
    here; a flush message this site sends itself takes the same path
    (``kernel._dispatch``).  The ``wedged`` flag stays the engine's: every
    wedge goes through :meth:`~repro.core.engine.GroupEngine._wedge`.
    """

    def __init__(self, engine: "GroupEngine"):
        self.engine = engine
        self.kernel = engine.kernel
        self.sim = engine.sim
        self.gid = engine.gid
        self.site_id = engine.site_id
        # Participant state.
        self._participant_fid: FlushId = (0, 0, 0)
        self._expect_union: Optional[Dict[int, int]] = None
        #: Base union the last ``g.fl.begin`` announced (delta reports).
        self._begin_base: Optional[Dict[int, int]] = None
        #: (target view, coordinator site) we last pushed a pre-report to.
        self._pre_reported: Optional[Tuple[int, int]] = None
        # Coordinator state.
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
        #: The ``g.fl.commit`` that installed our view.
        self._last_commit: Optional[Message] = None

    def shutdown(self) -> None:
        """Disarm the flush-grace and okb-batch timers."""
        self._cancel_grace()
        if self._okb_timer is not None:
            self._okb_timer.cancel()
            self._okb_timer = None

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def enqueue_reason(self, reason: FlushReason) -> None:
        """Queue a flush cause (coordinator site only) and maybe start."""
        view = self.engine.view
        if reason.kind == "join" and reason.joiner is not None:
            if any(r.kind == "join" and r.joiner == reason.joiner
                   for r in self._reasons):
                return  # duplicate join request
            if view is not None and view.contains(reason.joiner):
                return
        if reason.kind == "remove":
            already = {
                r for reason2 in self._reasons for r in reason2.removals
            }
            # A late duplicate of a removal already installed is dropped
            # too: it would run an empty flush.
            new = tuple(r for r in reason.removals if r not in already
                        and view is not None and view.contains(r))
            if not new:
                return
            reason.removals = new
        self._reasons.append(reason)
        self.engine.maybe_start_flush()

    def maybe_start(self) -> None:
        """Start a flush attempt if reasons are queued, none is running
        and this site coordinates."""
        engine = self.engine
        view = engine.view
        if (self._active is not None or not self._reasons
                or not engine.installed or view is None):
            return
        if not engine.is_coordinator_site():
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
        takeover = (engine.wedged and self._participant_fid[1] > 0
                    and self._participant_fid[2] != self.site_id)
        if takeover:
            self.sim.trace.bump("flush.takeover_full")
        self._attempt += 1
        flush_id: FlushId = (view.view_id + 1, self._attempt, self.site_id)
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
            s for s in view.member_sites() if s in alive
        }
        participants.add(self.site_id)
        base = None if takeover else engine.pipeline.stability.known_union()
        self._active = FlushCoordinator(flush_id, view, reasons,
                                        participants=participants, base=base)
        self.kernel.counters.bump("flush.runs")
        self.sim.trace.log("flush.begin", (str(self.gid), flush_id))
        engine._wedge(flush_id)
        stragglers = sorted(participants - {self.site_id})
        if not takeover:
            stash = self._pre_reports.pop(view.view_id + 1, {})
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
        self._send_ok(self.site_id, flush_id)

    def _send_begins(self, sites: List[int], flush_id: FlushId) -> None:
        active = self._active
        if active is None or active.flush_id != flush_id:
            return
        begin = Message(_proto="g.fl.begin", gid=self.gid, fid=list(flush_id))
        if active.base is not None:
            begin["base_b"] = encode_have_vector(active.base)
        for site in sites:
            active.begins_sent += 1
            self._send(site, begin)

    def _begin_stragglers(self, flush_id: FlushId) -> None:
        """Pre-report grace expired: explicitly solicit what's missing."""
        self._grace_timer = None
        active = self._active
        if (active is None or active.flush_id != flush_id
                or active.phase != "collect"):
            return
        missing = sorted(active.member_sites - active.reports.keys())
        if missing:
            self.sim.trace.bump("flush.grace_begins")
            self._send_begins(missing, flush_id)

    def _cancel_grace(self) -> None:
        if self._grace_timer is not None:
            self._grace_timer.cancel()
            self._grace_timer = None

    def _send(self, site: int, msg: Message) -> None:
        """``msg`` to ``site``: on the wire (counted ``flush.wire_*``),
        or straight to our own handler when ``site`` is ours."""
        if site == self.site_id:
            self.kernel._dispatch(site, msg)
            return
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
        view = self.engine.view
        if view is not None:
            # Reuse the survivors' reports: each reporter has been
            # wedged since its snapshot (nothing new initiated) and
            # stores never trim while wedged, so the snapshot is still
            # a valid basis for the retry's union cut and refill plan.
            # Receptions since only make a report conservative — the
            # in-flight-at-wedge window the base protocol already has.
            stash = self._pre_reports.setdefault(view.view_id + 1, {})
            for site, snap in old.reports.items():
                if site != self.site_id and site not in stash:
                    stash[site] = snap
                    self.sim.trace.bump("flush.reports_reused")
        self.engine.maybe_start_flush()

    def _on_ok(self, src_site: int, record: tuple) -> None:
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
        view = self.engine.view
        if (active is not None and active.flush_id[0] == fid[0]
                and active.phase == "collect"):
            self._offer_report(src_site, have, abp, abd)
        elif (view is not None and self.engine.installed
                and fid[0] > view.view_id):
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
            self._send(site, expect)
        for holder, sends in pulls.items():
            pull = Message(
                _proto="g.fl.pull", gid=self.gid,
                fid=list(active.flush_id),
                sends=[list(s) for s in sends],
            )
            self._send(holder, pull)
        for site in complete:
            self._note_filled(site)

    def _note_filled(self, site: int) -> None:
        if self._active is None:
            return
        if self._active.note_filled(site):
            self._commit()

    def _on_filled(self, src_site: int, record: tuple) -> None:
        fid = record[2]
        if self._active is not None and self._active.flush_id == fid:
            self._note_filled(src_site)

    def _commit(self) -> None:
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
            ab_order=cut_order([(r.ab_pending, r.ab_delivered)
                                for r in active.reports.values()]),
            event=event,
        )
        self.sim.trace.log("flush.commit", (str(self.gid), active.flush_id,
                                            new_view.view_id))
        for site in active.member_sites:
            if site != self.site_id:
                self._send(site, commit)
        self._active = None
        self.kernel.joins.welcome(self.engine, new_view, joiners, transfer)
        self.kernel.rpc.tell_watchers(self.engine, new_view)
        self.kernel._dispatch(self.site_id, commit)
        self.engine.maybe_start_flush()

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------
    def on_wedge(self, fid: FlushId) -> None:
        """The engine wedged for flush ``fid``: serve it from its start."""
        self._participant_fid = fid
        self._expect_union = None
        self._begin_base = None

    def _on_begin(self, src_site: int, record: tuple) -> None:
        _, _, fid, base = record
        if fid < self._participant_fid:
            # A lower fid is normally a stale coordinator's — unless it
            # comes from the *current* acting coordinator targeting the
            # same (or a later) view: the previous coordinator died
            # mid-flush and its successor's attempt counter restarted.
            acting = self.engine.acting_coordinator()
            if (acting is None or acting.site != src_site
                    or fid[0] < self._participant_fid[0]):
                return
        self.engine._wedge(fid)
        if base is not None:
            self._begin_base = base
        self._send_ok(src_site, fid)

    def _send_ok(self, to_site: int, fid: FlushId, pre: bool = False) -> None:
        total = self.engine.total
        report = Message(
            _proto="g.fl.ok", gid=self.gid, fid=list(fid),
            abp=total.pending_state(),
            abd=[[list(ref), list(prio)]
                 for ref, prio in sorted(total.delivered.items())],
        )
        have = self.engine.store.have_vector()
        if self._begin_base is not None and not pre:
            # Delta against the begin's announced union: usually
            # empty (the "ack"), a handful of entries otherwise.
            report["have_d"] = encode_have_vector(
                exact_diff_have_vector(self._begin_base, have))
        else:
            report["have_b"] = encode_have_vector(have)
        if pre:
            report["pre"] = True
        if (pre and to_site != self.site_id
                and self.kernel.config.dissemination == "tree"):
            # Pre-reports aggregate up the coordinator-rooted tree so
            # the coordinator's fan-in is O(fanout) batches, not n-1
            # individual reports.  Solicited reports (a begin response)
            # always go direct: the begin round IS the fallback when
            # relayed pre-reports are lost, so it must not depend on
            # relays itself.
            self._okb_enqueue(to_site, self.site_id, report.encode())
        else:
            self._send(to_site, report)

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
        tree = self.engine.pipeline.dissemination.tree()
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
                        self._send(root, report)
                continue
            batch = Message(_proto="g.fl.okb", gid=self.gid, root=root,
                            reports=reports)
            self.sim.trace.bump("flush.okb_sent")
            self._send(parent, batch)

    def _on_okb(self, src_site: int, record: tuple) -> None:
        """Aggregated pre-reports arrived: take them at the root, else
        relay them as they came."""
        _, _, root, reports = record
        if root == self.site_id:
            for src, report in reports:
                self._on_ok(src, report)
            return
        # Interior relay: coalesce with whatever we are already holding
        # (our own pre-report typically rides the same batch upward).
        self.sim.trace.bump("flush.okb_relayed")
        for src, report in reports:
            self._okb_enqueue(root, src, report[0].encode())

    def _on_expect(self, src_site: int, record: tuple) -> None:
        _, _, fid, union = record
        if fid != self._participant_fid:
            # A coordinator that consumed our unsolicited pre-report
            # (attempt 0) runs its flush under a higher fid than the one
            # we wedged with; its expect supersedes ours exactly as a
            # begin would — but only the *acting* coordinator's: a
            # deposed coordinator's delayed expect must not hijack the
            # participant fid (its data/filled exchange would then be
            # ignored, stalling the successor's flush).
            acting = self.engine.acting_coordinator()
            if (acting is None or acting.site != fid[2]
                    or not self.engine.wedged
                    or fid < self._participant_fid
                    or fid[0] != self._participant_fid[0]):
                return
            self._participant_fid = fid
        self._expect_union = union
        self._check_filled(fid)

    def _on_pull(self, src_site: int, record: tuple) -> None:
        _, _, fid, sends = record
        fid = list(fid)
        store = self.engine.store
        batches: Dict[int, List[Message]] = {}
        for origin, gseq, needy in sends:
            held = store.get(origin, gseq)
            if held is not None:
                batches.setdefault(needy, []).append(held)
        for needy, envs in batches.items():
            data = Message(_proto="g.fl.data", gid=self.gid,
                           fid=fid, msgs=envs)
            nbytes = sum(env.size_bytes for env in envs)
            self.kernel.counters.bump("flush.refill_bytes", nbytes)
            self._send(needy, data)

    def _on_data(self, src_site: int, record: tuple) -> None:
        _, _, fid, envelopes = record
        for envelope in envelopes:
            self.engine.pipeline.accept_refill(envelope)
        self._check_filled(fid)

    def maybe_filled(self) -> None:
        """Data arrived while a fill is pending: re-check completeness."""
        if self._expect_union is not None:
            self._check_filled(self._participant_fid)

    def _check_filled(self, fid: FlushId) -> None:
        if self._expect_union is None or fid != self._participant_fid:
            return
        if not self.engine.store.complete_for(self._expect_union):
            return
        filled = Message(_proto="g.fl.filled", gid=self.gid, fid=list(fid))
        self._send(fid[2], filled)
        self._expect_union = None

    def _on_commit(self, src_site: int, record: tuple) -> None:
        """Apply a commit once: the view id of its event names the
        flush, not the fid, so a commit for a view we hold is a
        duplicate."""
        engine = self.engine
        if engine.view is None or not engine.installed:
            return
        _, _, _fid, ab_order, event = record
        if event[0].view_id <= engine.view.view_id:
            return  # duplicate commit
        self._last_commit = record[0]
        engine.apply_commit(ab_order, event)

    def on_new_view(self) -> None:
        """A view installed: what the flush kept for it is done."""
        self._pre_reported = None
        # In-flight aggregated pre-reports target the view just
        # committed; the commit supersedes them.
        self._okb_buf.clear()
        if self._okb_timer is not None:
            self._okb_timer.cancel()
            self._okb_timer = None
        if self._pre_reports:
            view = self.engine.view
            view_id = view.view_id if view is not None else 0
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
        engine = self.engine
        view = engine.view
        if view is None or not engine.installed:
            return
        dead_members = tuple(
            m for m in view.members if m.site in dead_sites
        )
        if not dead_members:
            return
        last = self._last_commit
        if last is not None and last["fid"][2] in dead_sites:
            # Its coordinator may have died while sending it: pass the
            # commit that installed our view on to every survivor (a
            # member that has it drops it as a duplicate).
            self._last_commit = None
            for site in view.member_sites():
                if site != self.site_id and site not in dead_sites:
                    self._send(site, last)
        # Complete ABCAST collections that were waiting on dead sites.
        engine.total.on_sites_died(dead_sites)
        if engine.is_coordinator_site():
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
        engine = self.engine
        acting = engine.acting_coordinator()
        if acting is None or acting.site == self.site_id or engine.view is None:
            return
        target = engine.view.view_id + 1
        key = (target, acting.site)
        if self._pre_reported == key:
            return
        fid = self._participant_fid
        if fid[0] == target and fid[1] > 0 and fid[2] == acting.site:
            return  # already serving this coordinator's explicit round
        self._pre_reported = key
        fid0: FlushId = (target, 0, acting.site)
        engine._wedge(fid0)
        self.sim.trace.bump("flush.prereports_sent")
        self._send_ok(acting.site, fid0, pre=True)
