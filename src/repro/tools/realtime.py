"""Real-time facility (§3.11 — planned in the paper, built here).

*"We plan to add a real time facility to ISIS.  The tool would provide
for clock synchronization within site clusters, scheduling actions at
predetermined global times, and reconciliation of sensor readings (the
tool will act as a database, collecting timestamped sensor values and
reporting the set of sensor values read during a given time interval)."*

Three pieces, built as an implemented extension:

* :class:`SiteClock` — each site owns a drifting, offset local clock
  (the simulator's global time plays the role of "true" time, which no
  site can read directly);
* :class:`ClockSync` — periodic master/slave rounds in the style of
  Cristian's algorithm: a slave asks the master for its clock, halves
  the round trip, and disciplines its own offset.  The master is the
  oldest site of the site view;
* :class:`RealTimeTool` — per-process API: ``now()`` (synchronized
  time), ``schedule_at(global_time, action)`` (fires when the local
  synchronized clock reaches the target), and a replicated **sensor
  database**: timestamped readings posted with CBCAST, queried by
  interval, with per-sensor reconciliation (median of values whose
  timestamps fall in the interval).
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.groups import Isis
from ..core.kernel import ProtocolsProcess
from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Simulator, Timer
from ..sim.tasks import Promise
from .transfer import register_state

SENSOR_ENTRY = 249


class SiteClock:
    """A site's free-running local clock: true time, skewed and offset."""

    def __init__(self, sim: Simulator, offset: float = 0.0,
                 drift: float = 0.0):
        self.sim = sim
        self.offset = offset
        #: Fractional frequency error (1e-5 = 10 ppm fast).
        self.drift = drift
        #: Correction maintained by the sync protocol.
        self.correction = 0.0

    def raw(self) -> float:
        """The unsynchronized local reading."""
        return self.sim.now * (1.0 + self.drift) + self.offset

    def now(self) -> float:
        """The synchronized reading (raw + discipline)."""
        return self.raw() + self.correction

    def error(self) -> float:
        """Distance from true time (observable only by the simulator)."""
        return self.now() - self.sim.now


#: How often a slave asks the master for its time.
SYNC_INTERVAL = 5.0


class ClockSync:
    """Cristian-style master/slave synchronization over the kernel."""

    def __init__(self, kernel: ProtocolsProcess, clock: SiteClock):
        self.kernel = kernel
        self.sim = kernel.sim
        self.clock = clock
        self._pending: Dict[int, float] = {}   # request id -> local send raw
        self._next_req = 1
        self._timer: Optional[Timer] = None
        kernel.attach("rt.ask", self._on_ask)
        kernel.attach("rt.tell", self._on_tell)
        self._tick()

    def master_site(self) -> Optional[int]:
        view = self.kernel.site_view
        return view.coordinator_site() if view is not None else None

    def _tick(self) -> None:
        if not self.kernel.alive:
            return
        master = self.master_site()
        if master is not None and master != self.kernel.site_id:
            req = self._next_req
            self._next_req += 1
            self._pending[req] = self.clock.now()
            self.kernel.send_to_site(master, Message(
                _proto="rt.ask", req=req, site=self.kernel.site_id))
        self._timer = self.sim.call_after(SYNC_INTERVAL, self._tick)

    def _on_ask(self, src_site: int, record: tuple) -> None:
        self.kernel.send_to_site(src_site, Message(
            _proto="rt.tell", req=record[1], master=self.clock.now()))

    def _on_tell(self, src_site: int, record: tuple) -> None:
        _, req, master = record
        sent_at = self._pending.pop(req, None)
        if sent_at is None:
            return
        arrived = self.clock.now()
        round_trip = arrived - sent_at
        # Cristian: the master's reading refers to ~half an RTT ago.
        estimate = master + round_trip / 2.0
        self.clock.correction += estimate - arrived
        self.sim.trace.bump("tool.rt_syncs")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()


class RealTimeTool:
    """Per-process real-time API over the synchronized site clock."""

    def __init__(self, isis: Isis, clock: SiteClock,
                 gid: Optional[Address] = None):
        self.isis = isis
        self.sim = isis.sim
        self.clock = clock
        self.gid = gid
        #: sensor -> [(timestamp, value)], replicated via CBCAST.
        self._readings: Dict[str, List[Tuple[float, Any]]] = {}
        isis.process.bind(SENSOR_ENTRY, self._on_reading)
        if gid is not None:
            register_state(isis, f"rt:{gid}", lambda: self._readings,
                           self._restore)

    # ------------------------------------------------------------------
    # Time and scheduling
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The synchronized global time estimate."""
        return self.clock.now()

    def schedule_at(self, global_time: float,
                    action: Callable[[], None]) -> Promise:
        """Run ``action`` when the synchronized clock reaches the target.

        The firing error is bounded by the residual clock error, which
        is what the tests measure.
        """
        done = Promise(label=f"rt.schedule({global_time})")

        def poll() -> None:
            remaining = global_time - self.clock.now()
            if remaining <= 0:
                self.sim.trace.bump("tool.rt_fires")
                action()
                done.resolve(self.clock.now())
                return
            # Sleep most of the remaining (local) time, then re-check:
            # the clock may be disciplined while we wait.
            self.sim.post(max(remaining * 0.5, 0.001), poll)

        poll()
        return done

    # ------------------------------------------------------------------
    # Sensor database
    # ------------------------------------------------------------------
    def post_reading(self, sensor: str, value: Any) -> Promise:
        """Record a timestamped reading at every replica (1 async CBCAST)."""
        if self.gid is None:
            self._store(sensor, self.now(), value)
            resolved = Promise(label="rt.local")
            resolved.resolve(None)
            return resolved
        self.sim.trace.bump("tool.rt_readings")
        return self.isis.cbcast(self.gid, SENSOR_ENTRY,
                                sensor=sensor, ts=self.now(), value=value)

    def _on_reading(self, msg: Message) -> None:
        self._store(msg["sensor"], msg["ts"], msg["value"])

    def _store(self, sensor: str, ts: float, value: Any) -> None:
        self._readings.setdefault(sensor, []).append((ts, value))

    def read_interval(self, sensor: str, start: float,
                      end: float) -> List[Tuple[float, Any]]:
        """All readings of ``sensor`` with start <= timestamp < end."""
        return [(ts, v) for ts, v in self._readings.get(sensor, [])
                if start <= ts < end]

    def reconcile(self, sensor: str, start: float, end: float) -> Optional[float]:
        """One agreed value for the interval: the median reading.

        The paper's tool "reconciles" redundant sensors; the median is
        robust to one faulty instrument among three, the classic choice.
        """
        values = [float(v) for _, v in self.read_interval(sensor, start, end)]
        if not values:
            return None
        return statistics.median(values)

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def _restore(self, readings: Dict[str, list]) -> None:
        self._readings = {sensor: [(ts, value) for ts, value in rows]
                          for sensor, rows in readings.items()}


def install_clocks(system, max_offset: float = 0.5,
                   max_drift: float = 0.0001) -> Dict[int, Tuple[SiteClock, ClockSync]]:
    """Give every site a skewed clock and a sync agent.

    Offsets/drifts are drawn deterministically from the simulator's
    seeded RNG, so runs are reproducible.
    """
    rng = system.sim.rng("realtime.skew")
    out: Dict[int, Tuple[SiteClock, ClockSync]] = {}
    for site_id, site in system.cluster.sites.items():
        kernel = getattr(site, "kernel", None)
        if kernel is None:
            continue
        clock = SiteClock(
            system.sim,
            offset=rng.uniform(-max_offset, max_offset),
            drift=rng.uniform(-max_drift, max_drift),
        )
        out[site_id] = (clock, ClockSync(kernel, clock))
    return out
