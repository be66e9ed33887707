"""Membership policies: who may install a site view, who may commit.

The site-view agent (:mod:`repro.fd.siteview`) agrees on a sequence of
site views; a :class:`MembershipPolicy` decides what a *partitioned*
system does with them.  Two questions are delegated:

* **Who may install the next view?**  When the failure detector wants
  to remove suspects, :meth:`may_install` judges whether the surviving
  component is entitled to proceed.  A component that is not entitled
  stalls (wedges): it keeps probing but installs nothing and — through
  :meth:`ProtocolsProcess.membership_may_commit` — commits no group
  views or GBCAST events either.
* **What happens to the non-winning side?**  The stalled side keeps
  its probe loop; when the partition heals, a probe reaches the winning
  component, whose next committed view excludes the stalled sites, and
  the agreed-view-excludes-me rule fires their self-destruct.  They
  restart and rejoin through the ordinary (log-assisted / streaming)
  state-transfer path.

Policies:

``primary`` — :class:`PrimaryPartitionPolicy`, the paper's rule (§2.1,
§3.7): a component may install a view iff it contains **more than half
of the previous view**, or **exactly half including the previous
view's oldest member** (its coordinator).  "At least half" alone does
not make successive views overlap: the two halves of an even view are
disjoint and would both install.  Only one half can hold the oldest
member, so with the tie-break any two components entitled by one view
share a site, and at most one chain of primary views exists.  The
price is liveness: an exact half without the oldest member stalls also
when the other half *crashed* (the two oldest of four sites, or the
oldest of two), for a crash cannot be told from a partition.  The
component judged is the one the proposer trusts (``trusted``), not the
proposal's survivors.  No wire fields are added.

``quorum`` — :class:`QuorumPolicy`: a component may install a view (and
commit) iff it holds a **strict weighted majority of the static
deployment** (every site the cluster was launched with), not merely of
the previous view.  The reference set never shrinks with the view, so
two disjoint components can never both hold a majority — at most one
committing component exists under any partition pattern, at the price
of wedging *both* sides of an exact 50/50 split.  With durability on,
votes are weighed by WAL position (a site whose log holds data counts
double), the analogue of PR 8's recovery poll ranking: a thin majority
of blank restarts cannot outvote the sites that actually hold the
prefix.  Weights ride the existing ``sv.ack``/``sv.commit`` round as
optional fields; primary mode never attaches them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import IsisError

#: A site-view member: (site_id, incarnation).
SvMember = Tuple[int, int]


class MembershipPolicy:
    """Decides view-install entitlement and partition-side commit rights."""

    mode = "?"

    # -- install / commit entitlement --------------------------------------
    def may_install(self, view_members: Sequence[SvMember],
                    trusted: Sequence[SvMember]) -> bool:
        """May a component install the successor of the view whose
        membership was ``view_members``?

        ``trusted`` is the proposed membership minus this round's
        removals and minus the sites the proposer *suspects* but has not
        yet queued for removal: a stale coordinator taking over after a
        partition can hold suspicions that predate its coordinatorship
        (they were relayed to the old coordinator, not queued locally),
        so the survivors of its removals alone would overstate its
        component.  Both policies judge ``trusted`` — the component the
        proposer can actually reach — or a healed minority site could
        commit a view built on members it cannot talk to and depose the
        live majority.
        """
        raise NotImplementedError

    def group_commit_allowed(self, unsuspected: Sequence[SvMember],
                             view_members: Sequence[SvMember]) -> bool:
        """May group-level flushes commit, given the sites this kernel
        currently believes alive?  Primary mode never vetoes here (the
        view-install rule is the only gate); quorum mode must — a group
        wholly contained in the minority would otherwise keep committing
        GBCASTs even though the site layer is stalled."""
        return True

    # -- wire hooks (vote weighing) ----------------------------------------
    def ack_weight(self) -> Optional[int]:
        """Weight to attach to an outgoing ``sv.ack`` (None: no field)."""
        return None

    def note_weight(self, site: int, weight: int) -> None:
        """A peer's vote weight arrived (coordinator side)."""

    def commit_weights(self) -> Optional[List[List[int]]]:
        """Weights to embed in ``sv.commit`` (None: no field)."""
        return None

    def ingest_weights(self, pairs: Optional[Iterable[Sequence[int]]]) -> None:
        """Weights learned from a received ``sv.commit``."""


class PrimaryPartitionPolicy(MembershipPolicy):
    """The paper's primary-partition rule, an exact half broken by the
    previous view's oldest member."""

    mode = "primary"

    def may_install(self, view_members: Sequence[SvMember],
                    trusted: Sequence[SvMember]) -> bool:
        twice = 2 * len(trusted)
        if twice != len(view_members):
            return twice > len(view_members)
        return view_members[0] in trusted


class QuorumPolicy(MembershipPolicy):
    """Strict weighted majority of the static deployment."""

    mode = "quorum"

    def __init__(self, all_sites: Sequence[int],
                 own_weight: Callable[[], int]):
        self.all_sites = tuple(all_sites)
        self._own_weight = own_weight
        #: site -> last known vote weight (default 1).
        self._weights: Dict[int, int] = {}

    def _votes(self, sites: Iterable[int]) -> int:
        return sum(self._weights.get(s, 1) for s in sites)

    def _is_quorum(self, sites: Iterable[int]) -> bool:
        return 2 * self._votes(sites) > self._votes(self.all_sites)

    def may_install(self, view_members: Sequence[SvMember],
                    trusted: Sequence[SvMember]) -> bool:
        return self._is_quorum({s for s, _ in trusted})

    def group_commit_allowed(self, unsuspected: Sequence[SvMember],
                             view_members: Sequence[SvMember]) -> bool:
        return self._is_quorum({s for s, _ in unsuspected})

    def ack_weight(self) -> int:
        return self._own_weight()

    def note_weight(self, site: int, weight: int) -> None:
        self._weights[site] = weight

    def commit_weights(self) -> List[List[int]]:
        return [[s, w] for s, w in sorted(self._weights.items())]

    def ingest_weights(self, pairs: Optional[Iterable[Sequence[int]]]) -> None:
        if not pairs:
            return
        for site, weight in pairs:
            self._weights[int(site)] = int(weight)


def make_membership_policy(mode: str, all_sites: Sequence[int],
                           own_weight: Callable[[], int]) -> MembershipPolicy:
    """Build the configured policy (``IsisConfig.membership``)."""
    if mode == "primary":
        return PrimaryPartitionPolicy()
    if mode == "quorum":
        return QuorumPolicy(all_sites, own_weight)
    raise IsisError(f"unknown membership {mode!r} "
                    "(expected 'primary' or 'quorum')")
