"""Adaptive heartbeat failure detector.

§2.1: a site failure *"can only be detected by another site by means of a
timeout"*, and §3.7: *"The ISIS failure detector adaptively adjusts the
timeout interval to avoid treating an overloaded site as having failed."*

Each site's kernel broadcasts an unreliable heartbeat datagram every
``INTERVAL`` seconds and tracks, per monitored peer, a Jacobson-style
estimate of the inter-arrival mean and deviation.  A peer is *suspected*
when nothing has arrived for ``mean + NSTDDEV·dev + INTERVAL`` seconds
(clamped between a floor and a ceiling).  Late heartbeats stretch the
observed interval and the timeout with it, the paper's adaptivity.  One
tick probes and checks every peer, and hands the peers that fell silent
to ``on_suspect`` as one list: sites that crash together reach the
membership agent together, and cost one view change.  A
simulated raw frame skips the CPU queue both ways (``net/transport.py``
``_wire``, ``_receive``); on the socket driver heartbeats share the loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..sim.core import Simulator, Timer


# What these must satisfy against the other layers' timers is one
# table, ARCHITECTURE.md "Timing budget" (tests/test_timing_budget.py).
#: Seconds between probes to a peer.
INTERVAL = 0.5
#: Never suspect faster than this, nor wait longer than that.
MIN_TIMEOUT = 1.5
MAX_TIMEOUT = 15.0
#: Deviation multiplier (Jacobson).
NSTDDEV = 4.0


class _PeerStats:
    """Inter-arrival estimator for one monitored peer incarnation."""

    __slots__ = ("incarnation", "last_arrival", "mean", "dev")

    def __init__(self, incarnation: int, now: float):
        self.incarnation = incarnation
        self.last_arrival = now
        self.mean = INTERVAL
        self.dev = 0.0

    def note_arrival(self, now: float) -> None:
        sample = now - self.last_arrival
        self.last_arrival = now
        error = sample - self.mean
        self.mean += 0.125 * error
        self.dev += 0.25 * (abs(error) - self.dev)

    def timeout(self) -> float:
        raw = self.mean + NSTDDEV * self.dev + INTERVAL
        return min(MAX_TIMEOUT, max(MIN_TIMEOUT, raw))


class HeartbeatMonitor:
    """Sends probes to peers and raises suspicions on silence."""

    def __init__(
        self,
        sim: Simulator,
        site_id: int,
        send_probe: Callable[[int], None],
        on_suspect: Callable[[List[int]], None],
    ):
        self.sim = sim
        self.site_id = site_id
        self.send_probe = send_probe
        self.on_suspect = on_suspect
        self._peers: Dict[int, _PeerStats] = {}
        self._suspected: Set[int] = set()
        self._timer: Optional[Timer] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- peer set ----------------------------------------------------------
    def set_peers(self, members: Iterable[Tuple[int, int]]) -> None:
        """Monitor exactly the (site, incarnation) ``members`` (self is
        excluded automatically).

        A peer that is new, or listed under a new incarnation, starts
        with a fresh estimator and unsuspected: a suspicion is of one
        incarnation, and a site that rejoined is watched anew.
        """
        wanted = {site: inc for site, inc in members if site != self.site_id}
        now = self.sim.now
        for site in list(self._peers):
            if site not in wanted:
                del self._peers[site]
        for site, inc in wanted.items():
            stats = self._peers.get(site)
            if stats is None or stats.incarnation != inc:
                self._peers[site] = _PeerStats(inc, now)
                self._suspected.discard(site)
        self._suspected &= wanted.keys()

    @property
    def suspected(self) -> Set[int]:
        return set(self._suspected)

    # -- events ----------------------------------------------------------------
    def note_heartbeat(self, src_site: int) -> None:
        """Feed an arrival (called by the kernel on a heartbeat datagram)."""
        stats = self._peers.get(src_site)
        if stats is not None:
            stats.note_arrival(self.sim.now)

    def _tick(self) -> None:
        if not self._running:
            return
        for peer in self._peers:
            self.send_probe(peer)
        now = self.sim.now
        burst = []
        for peer, stats in self._peers.items():
            if peer not in self._suspected \
                    and now - stats.last_arrival > stats.timeout():
                self._suspected.add(peer)
                self.sim.trace.bump("fd.suspicions")
                self.sim.trace.log("fd.suspect", (self.site_id, peer))
                burst.append(peer)
        if burst:
            if len(burst) > 1:
                self.sim.trace.bump("fd.suspicion_bursts")
            self.on_suspect(burst)
        self._timer = self.sim.call_after(INTERVAL, self._tick)
