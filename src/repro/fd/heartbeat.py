"""Adaptive heartbeat failure detector.

§2.1: a site failure *"can only be detected by another site by means of a
timeout"*, and §3.7: *"The ISIS failure detector adaptively adjusts the
timeout interval to avoid treating an overloaded site as having failed."*

Each site's kernel broadcasts an unreliable heartbeat datagram every
``INTERVAL`` seconds and tracks, per monitored peer, a Jacobson-style
estimate of the inter-arrival mean and deviation.  A peer is *suspected*
when nothing has arrived for ``mean + NSTDDEV·dev + INTERVAL`` seconds
(clamped between a floor and a ceiling).  Late heartbeats stretch the
observed interval and the timeout with it, the paper's adaptivity.  A
simulated raw frame skips the CPU queue both ways (``net/transport.py``
``_wire``, ``_receive``); on the socket driver heartbeats share the loop.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

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
#: Peers per tick bucket.  With more peers than this, the monitor
#: staggers its work: peers hash into ``ceil(n/size)`` buckets and each
#: sub-tick (every ``INTERVAL / n_buckets`` seconds) probes and
#: timeout-checks one bucket.  Every peer is still probed and checked
#: exactly once per ``INTERVAL``, so detection-latency bounds are
#: unchanged (the timeout formula already absorbs one interval of check
#: skew) — but the per-tick CPU burst stops being an O(n) scan at 256
#: sites.
TICK_BUCKET_SIZE = 32


class _PeerStats:
    """Inter-arrival estimator for one monitored peer."""

    __slots__ = ("last_arrival", "mean", "dev")

    def __init__(self, now: float):
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
        on_suspect: Callable[[int], None],
    ):
        self.sim = sim
        self.site_id = site_id
        self.send_probe = send_probe
        self.on_suspect = on_suspect
        self._peers: Dict[int, _PeerStats] = {}
        self._suspected: Set[int] = set()
        self._timer: Optional[Timer] = None
        self._running = False
        #: Staggered ticking: peers hashed into buckets, one per sub-tick.
        self._buckets: List[List[int]] = []
        self._bucket_cursor = 0

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
    def set_peers(self, peers: Iterable[int]) -> None:
        """Monitor exactly ``peers`` (self is excluded automatically).

        Newly added peers start with a fresh estimator; a re-added peer
        loses its 'suspected' status (it re-joined the view).
        """
        wanted = {p for p in peers if p != self.site_id}
        for gone in [p for p in self._peers if p not in wanted]:
            del self._peers[gone]
        self._suspected &= wanted
        now = self.sim.now
        for added in wanted - self._peers.keys():
            self._peers[added] = _PeerStats(now)
            self._suspected.discard(added)
        self._rebucket()

    def _rebucket(self) -> None:
        """Hash peers into tick buckets (stable: site id modulo count)."""
        n_buckets = max(1, -(-len(self._peers) // TICK_BUCKET_SIZE))
        self._buckets = [[] for _ in range(n_buckets)]
        for peer in self._peers:
            self._buckets[peer % n_buckets].append(peer)
        if self._bucket_cursor >= n_buckets:
            self._bucket_cursor = 0

    def n_buckets(self) -> int:
        return max(1, len(self._buckets))

    def stats(self) -> Dict[str, int]:
        """Observability: bucket layout of the staggered tick."""
        return {"fd.buckets": self.n_buckets()}

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
        # One bucket per sub-tick: with few peers there is exactly one
        # bucket and this is the original whole-scan tick; at scale each
        # sub-tick touches ~TICK_BUCKET_SIZE peers, spreading probe CPU
        # and timeout checks evenly across the interval.  Every peer is
        # still visited once per interval.
        n_buckets = self.n_buckets()
        if self._buckets:
            cursor = self._bucket_cursor % len(self._buckets)
            bucket = list(self._buckets[cursor])
            self._bucket_cursor = (cursor + 1) % len(self._buckets)
        else:
            bucket = []
        for peer in bucket:
            if peer in self._peers:
                self.send_probe(peer)
        now = self.sim.now
        # Gather every peer that timed out this tick *before* reporting
        # any of them: correlated site deaths (a rack power-off, a
        # partition) then reach the membership agent as one burst, which
        # its settle window coalesces into a single view round — one
        # merged-removal flush instead of N serial restarts.  With
        # staggered buckets a burst arrives one bucket at a time,
        # ``INTERVAL / n_buckets`` apart (250 ms at 64 sites), further
        # apart than the settle window: the coordinator drops a round
        # that still lists a newly suspected site and proposes again.
        burst = []
        for peer in bucket:
            stats = self._peers.get(peer)
            if stats is None or peer in self._suspected:
                continue
            if now - stats.last_arrival > stats.timeout():
                self._suspected.add(peer)
                self.sim.trace.bump("fd.suspicions")
                self.sim.trace.log("fd.suspect", (self.site_id, peer))
                burst.append(peer)
        if len(burst) > 1:
            self.sim.trace.bump("fd.suspicion_bursts")
        for peer in burst:
            if peer in self._peers:  # a callback may re-set the peer set
                self.on_suspect(peer)
        self._timer = self.sim.call_after(
            INTERVAL / n_buckets, self._tick)
