"""The view-change / GBCAST flush protocol.

Virtual synchrony's central mechanism: before a group event that must be
totally ordered with respect to *everything* (a membership change, a
configuration update, or a user-level GBCAST), the group's traffic is
brought to a consistent cut:

1. ``g.fl.begin`` — the coordinator (the oldest member's kernel) tells
   every member site to **wedge**: stop initiating new multicasts.  It
   announces the union it expects, so step 2 can answer with a diff.
2. ``g.fl.ok`` — each site reports its have-vector, its undelivered
   ABCAST state (proposals / finals) and the finals of ABCASTs it has
   delivered that are not yet known delivered everywhere.
3. The coordinator computes the **union cut** — every message held
   anywhere — and directs holders to refill sites that miss messages
   (``g.fl.pull`` → ``g.fl.data`` → ``g.fl.filled``).
4. ``g.fl.commit`` — carries the agreed ABCAST cut order and the event
   (new view / payload).  Every site delivers the remaining old-view
   messages identically, applies the event, and resumes in the new view.

Failures *during* the flush restart it: a new coordinator (the oldest
survivor) raises the flush id and reruns; all steps are idempotent.

After a site death steps 1-2 collapse: every survivor saw the same site
view change, wedges at once and pushes its report to the predicted
coordinator unsolicited (a *pre-report*), and the begin round runs only
for stragglers whose pre-report missed the coordinator's grace, or when
a new coordinator takes over a flush its predecessor began.  With
``dissemination = "tree"`` pre-reports additionally coalesce up the
coordinator-rooted spanning tree as ``g.fl.okb`` bundles so the
coordinator's fan-in stops being O(n) frames.  Solicited reports always
travel direct — the explicit begin round stays a relay-independent
fallback.  Every path feeds the same ``offer_report`` entry; the
coordinator below is agnostic to all of it.

This module holds the coordinator's bookkeeping; the per-site participant
behaviour lives in :mod:`repro.core.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..msg.address import Address
from .store import MessageStore
from .view import View

#: Flush ids order lexicographically: (target view id, attempt, coordinator site).
FlushId = Tuple[int, int, int]


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


#: An undelivered ABCAST in a report: ``(ref, priority, final?)``.
Pending = Tuple[Tuple[int, int], Tuple[int, int], bool]


@dataclass
class _SiteReport:
    have: Dict[int, int]
    ab_pending: List[Pending]
    ab_delivered: List[Tuple[Tuple[int, int], Tuple[int, int]]]


class FlushCoordinator:
    """Coordinator-side state for one flush attempt.

    ``participants`` is the set of member sites that are alive in the
    current *site view* — dead sites cannot report, and their unreceived
    messages are exactly what the union cut excludes (atomicity: such a
    message is delivered nowhere).
    """

    def __init__(self, flush_id: FlushId, view: View,
                 reasons: List[FlushReason],
                 participants: Optional[Set[int]] = None,
                 base: Optional[Dict[int, int]] = None):
        self.flush_id = flush_id
        self.view = view
        self.reasons = reasons
        self.member_sites: Set[int] = (
            set(participants) if participants is not None
            else set(view.member_sites())
        )
        self._reports: Dict[int, _SiteReport] = {}
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
        self._reports[site] = _SiteReport(have, ab_pending, ab_delivered)
        if set(self._reports) == self.member_sites:
            self.union = MessageStore.union(
                r.have for r in self._reports.values())
            self.phase = "fill"
            return True
        return False

    def reported_sites(self) -> Set[int]:
        return set(self._reports)

    def report_snapshots(self) -> Dict[int, Tuple]:
        """Raw (have, ab_pending, ab_delivered) per reported site.

        A flush restart (member died mid-flush) may reuse a survivor's
        report instead of re-soliciting it: the site has been wedged
        since the snapshot was taken, so nothing it *initiated* is
        missing from it, and stores never trim while wedged, so every
        reported message can still be supplied for refill.  Receptions
        since the snapshot only make the report conservative — the same
        in-flight-at-wedge window the base protocol already has.
        """
        return {
            site: (report.have, report.ab_pending, report.ab_delivered)
            for site, report in self._reports.items()
        }

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
                     for site, report in self._reports.items()]
            for origin in self.union
        }
        pulls: Dict[int, List[Tuple[int, int, int]]] = {}
        for needy, report in self._reports.items():
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
        for site, report in self._reports.items():
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

    # -- phase 3: the agreed cut --------------------------------------------------
    def abcast_cut_order(self) -> List[Tuple[List[int], List[int]]]:
        """Final (ref, priority) list, sorted by priority.

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
        the sequencer mode's unstamped-tail rule.
        """
        finals: Dict[Tuple[int, int], Tuple[int, int]] = {}
        proposals: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        delivered_everywhere: Set[Tuple[int, int]] = set()
        for report in self._reports.values():
            for ref, prio in report.ab_delivered:
                finals[ref] = prio
            for ref, prio, final in report.ab_pending:
                if final:
                    finals[ref] = prio
                else:
                    proposals.setdefault(ref, []).append(prio)
        # A ref pending nowhere and delivered somewhere needs no cut entry
        # only if *every* site delivered it; otherwise it must be ordered.
        pending_refs = set(proposals)
        for report in self._reports.values():
            for ref, _, _ in report.ab_pending:
                pending_refs.add(ref)
        for ref in list(finals):
            if ref not in pending_refs:
                if all(
                    ref in dict(r.ab_delivered) for r in self._reports.values()
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
        reporters = len(self._reports)
        order: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
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
