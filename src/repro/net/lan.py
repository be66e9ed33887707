"""The LAN: link delays, loss, partitions.

Link constants come from Figure 3 of the paper: a single traversal of a
link costs **10 ms within a site** (kernel IPC hop) and **16 ms between
sites** (one Ethernet packet).

Partitions: the paper's failure model (§2.1) excludes partition
tolerance — *"Partitioning could cause parts of our system to hang until
communication is restored."*  :meth:`Lan.partition` lets tests create one
and verify exactly that behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..sim.core import Simulator
from .packet import Frame


#: One traversal of a link (Figure 3): a hop inside a site, the kernel's
#: IPC, and one Ethernet packet between sites.
INTRA_SITE_DELAY = 0.010
INTER_SITE_DELAY = 0.016


class Lan:
    """Connects site endpoints; delivers frames with delay and loss."""

    def __init__(self, sim: Simulator, loss_rate: float = 0.0):
        self.sim = sim
        #: Inter-site frame loss probability (a fault schedule, like
        #: ``StorageFaults``).
        self.loss_rate = loss_rate
        self._endpoints: Dict[int, Callable[[Frame], None]] = {}
        self._partition_of: Dict[int, int] = {}  # site -> partition tag
        self._rng = sim.rng("lan.loss")
        #: Per-source-site wire accounting (scale benchmarks compare the
        #: *maximum* per-site load: flat dissemination concentrates O(n)
        #: sends at the origin, tree mode bounds every site by fanout).
        self.frames_by_site: Dict[int, int] = {}

    # -- wiring ----------------------------------------------------------
    def attach(self, site_id: int, endpoint: Callable[[Frame], None]) -> None:
        """Connect a site's receive callback to the network."""
        self._endpoints[site_id] = endpoint

    def detach(self, site_id: int) -> None:
        """Disconnect a site (crash); in-flight frames to it are dropped."""
        self._endpoints.pop(site_id, None)

    def attached(self, site_id: int) -> bool:
        return site_id in self._endpoints

    # -- partitions --------------------------------------------------------
    def partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Split the LAN: frames between different groups are dropped."""
        self._partition_of = {}
        for tag, group in enumerate(groups):
            for site in group:
                self._partition_of[site] = tag

    def heal(self) -> None:
        """Remove any partition."""
        self._partition_of = {}

    def reachable(self, a: int, b: int) -> bool:
        """True unless a partition separates sites ``a`` and ``b``."""
        if not self._partition_of:
            return True
        return self._partition_of.get(a, -1) == self._partition_of.get(b, -2) or a == b

    # -- frame delivery ------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Put one frame on the wire from its src to its dst site."""
        bump = self.sim.trace.bump
        bump("lan.frames")
        bump("lan.bytes", frame.wire_size)
        src, dst = frame.src_site, frame.dst_site
        self.frames_by_site[src] = self.frames_by_site.get(src, 0) + 1
        if src != dst:
            bump("lan.frames.inter")
            if self._partition_of and not self.reachable(src, dst):
                bump("lan.dropped.partition")
                return
            if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
                bump("lan.dropped.loss")
                return
            delay = INTER_SITE_DELAY
        else:
            delay = INTRA_SITE_DELAY
        self.sim.post(delay, self._arrive, frame)

    def _arrive(self, frame: Frame) -> None:
        endpoint = self._endpoints.get(frame.dst_site)
        if endpoint is None:
            self.sim.trace.bump("lan.dropped.detached")
            return
        endpoint(frame)
