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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import NetworkError
from ..sim.core import Simulator
from .packet import Frame


@dataclass
class LanConfig:
    """Tunable network and CPU-cost constants (paper defaults)."""

    intra_site_delay: float = 0.010     # 10 ms: one hop inside a site
    inter_site_delay: float = 0.016     # 16 ms: one inter-site packet
    mtu: int = 4096                     # fragmentation threshold (4 KB)
    loss_rate: float = 0.0              # inter-site frame loss probability
    #: CPU charged on the sending site per frame and per payload byte.
    send_cpu_per_frame: float = 0.002
    send_cpu_per_byte: float = 0.000008
    #: CPU charged on the receiving site per frame and per payload byte.
    recv_cpu_per_frame: float = 0.002
    recv_cpu_per_byte: float = 0.000004
    #: CPU cost of processing an ACK frame.
    ack_cpu: float = 0.0005
    #: Base retransmission timeout for the reliable transport.  Sized so
    #: a burst of fragments queued behind a busy receiver's CPU still
    #: gets acknowledged in time; exponential backoff handles real loss.
    rto: float = 0.400
    #: Sliding-window size (outstanding unacked frames per channel).
    window: int = 64


class Lan:
    """Connects site endpoints; delivers frames with delay and loss."""

    def __init__(self, sim: Simulator, config: Optional[LanConfig] = None):
        self.sim = sim
        self.config = config or LanConfig()
        self._endpoints: Dict[int, Callable[[Frame], None]] = {}
        self._partition_of: Dict[int, int] = {}  # site -> partition tag
        self._rng = sim.rng("lan.loss")
        #: Per-source-site wire accounting (scale benchmarks compare the
        #: *maximum* per-site load: flat dissemination concentrates O(n)
        #: sends at the origin, tree mode bounds every site by fanout).
        self.frames_by_site: Dict[int, int] = {}
        self.bytes_by_site: Dict[int, int] = {}

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

    def _same_partition(self, a: int, b: int) -> bool:
        if not self._partition_of:
            return True
        return self._partition_of.get(a, -1) == self._partition_of.get(b, -2) or a == b

    # -- frame delivery ------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Put one frame on the wire from its src to its dst site."""
        self.sim.trace.bump("lan.frames")
        self.sim.trace.bump("lan.bytes", frame.wire_size)
        src = frame.src_site
        self.frames_by_site[src] = self.frames_by_site.get(src, 0) + 1
        self.bytes_by_site[src] = (
            self.bytes_by_site.get(src, 0) + frame.wire_size)
        inter_site = frame.src_site != frame.dst_site
        if inter_site:
            self.sim.trace.bump("lan.frames.inter")
            if not self._same_partition(frame.src_site, frame.dst_site):
                self.sim.trace.bump("lan.dropped.partition")
                return
            if self.config.loss_rate > 0 and self._rng.random() < self.config.loss_rate:
                self.sim.trace.bump("lan.dropped.loss")
                return
            delay = self.config.inter_site_delay
        else:
            delay = self.config.intra_site_delay
        self.sim.call_after(delay, self._arrive, frame)

    def _arrive(self, frame: Frame) -> None:
        endpoint = self._endpoints.get(frame.dst_site)
        if endpoint is None:
            self.sim.trace.bump("lan.dropped.detached")
            return
        endpoint(frame)

    # -- cost model helpers (used by Transport) ---------------------------------
    def send_cpu_cost(self, frame: Frame) -> float:
        cfg = self.config
        return cfg.send_cpu_per_frame + cfg.send_cpu_per_byte * len(frame.payload)

    def recv_cpu_cost(self, frame: Frame) -> float:
        cfg = self.config
        return cfg.recv_cpu_per_frame + cfg.recv_cpu_per_byte * len(frame.payload)
