"""Workloads and metric names: the constants both sides of a comparison share.

Rates, sizes, windows and repetitions live here (``BENCHMARK.json`` has a
fixed key set and cannot hold them).  A window is what the phase measures at
``--seconds 30``, the ``run_seconds`` of ``BENCHMARK.json``; other values
of ``--seconds`` scale every window linearly, so the offered rate never
changes, only the sample count.  Simulated windows are sized so that a
repetition takes about 20 host seconds on the box this was written on at
its usual speed; they are work, not host time, so a slow stretch of the box
stretches them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: ``--seconds`` value at which the windows below apply unscaled.
NOMINAL_SECONDS = 30.0
#: Untimed multicasts that end set-up (caches filled, channels open).
WARMUP_MCASTS = 200
#: Fresh-process repetitions ``python -m bench`` makes of every workload.
REPS = 3

CB, AB = 0, 1  # kind codes used in schedules and the oracle


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str                  # "sim" (IsisCluster) | "net" (AsyncioCluster)
    n_sites: int
    payload: int                 # bytes of application payload per multicast
    #: site -> kind cycle; the site's i-th multicast has kind cycle[i % len].
    senders: Dict[int, Tuple[int, ...]]
    limit: float                 # latency limit, seconds
    #: Measured phases are cut into slices of this many seconds; host time
    #: is taken per slice, put at reference speed by the reference kernel
    #: timed at the slice's edges, and the median slice is reported.  Sim
    #: slices are whole multiples of the stability (2 s) and heartbeat
    #: (0.5 s) periods, so each holds the same periodic work.
    slice: float
    config: Dict[str, object] = field(default_factory=dict)  # IsisConfig kwargs
    open_rate: float = 0.0       # multicasts/s over all senders; 0 = no open loop
    open_window: float = 0.0     # seconds (sim-clock on sim, wall on net)
    closed_streams: int = 4      # multicasts in flight per sender
    closed_window: float = 0.0
    n_groups: int = 1
    group_size: int = 0          # 0 = every site
    state_bytes: int = 0         # registered state-transfer segment size
    #: crash -> down -> restart+rejoin -> up cycles run under the open loop.
    churn_cycles: int = 0
    churn_down: float = 12.0
    churn_up: float = 15.0
    churn_sites: Tuple[int, ...] = ()

    def group_sites(self) -> List[Tuple[int, ...]]:
        """Member sites of each group: consecutive sites on a ring."""
        size = self.group_size or self.n_sites
        return [tuple((g + k) % self.n_sites for k in range(size))
                for g in range(self.n_groups)]


def _all(n: int, cycle: Tuple[int, ...]) -> Dict[int, Tuple[int, ...]]:
    return {site: cycle for site in range(n)}


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="rn-cbcast",
        driver="net", n_sites=4, payload=64, senders=_all(4, (CB,)),
        config={"abcast_mode": "sequencer"}, limit=0.025, slice=0.5,
        open_rate=150.0, open_window=16.0, closed_streams=4,
        closed_window=10.0),
    Workload(
        name="rn-abcast",
        driver="net", n_sites=4, payload=64, senders=_all(4, (AB,)),
        config={"abcast_mode": "sequencer"}, limit=0.025, slice=0.5,
        open_rate=120.0, open_window=16.0, closed_streams=4,
        closed_window=10.0),
    Workload(
        name="sim-mix",
        driver="sim", n_sites=4, payload=200, senders=_all(4, (CB, AB)),
        limit=0.250, slice=4.0, open_rate=32.0, open_window=220.0,
        closed_streams=4, closed_window=40.0),
    Workload(
        name="sim-wal",
        driver="sim", n_sites=4, payload=200, senders=_all(4, (CB, AB)),
        config={"durability": True}, limit=0.250, slice=4.0,
        open_rate=32.0, open_window=220.0, closed_streams=4,
        closed_window=40.0),
    Workload(
        name="sim-bulk",
        driver="sim", n_sites=4, payload=8192, senders=_all(4, (CB,)),
        limit=1.0, slice=12.0, open_rate=4.0, open_window=900.0,
        closed_streams=4, closed_window=240.0),
    Workload(
        name="sim-groups",
        driver="sim", n_sites=8, payload=64, senders=_all(8, (CB,)),
        limit=0.250, slice=2.0, open_rate=40.0, open_window=40.0,
        closed_streams=2, closed_window=4.0, n_groups=64, group_size=4),
    Workload(
        name="sim-churn",
        driver="sim", n_sites=6, payload=200,
        senders={0: (CB,), 1: (AB,), 2: (CB,)},
        limit=0.250, slice=3.0, open_rate=24.0, state_bytes=16384,
        churn_cycles=10, churn_sites=(5, 4)),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Workloads only ``python -m bench`` runs, with the reason each exists.
#: The driver's contract gives all its runs 57 minutes, which at the run
#: length a steady host-clock value needs on a shared box (30 s) pays for
#: four workloads; ``BENCHMARK.json`` names the four that differ most.
SUITE_ONLY: Dict[str, str] = {
    "rn-abcast": "rn-cbcast with sequencer ABCAST at 120/s: differs only by "
                 "the ordering engine, so an ordering change moves this one alone",
    "sim-wal": "sim-mix with durability on: the WAL and stable store run here "
               "and are bypassed in sim-mix, so the difference is their cost",
    "sim-bulk": "8 KB CBCAST: same codec and transport per byte instead of per "
                "message, so fragmentation, reassembly and copies show here",
}


# ----------------------------------------------------------------------
# Metric names, units, directions and bounds are written once, in
# ``BENCHMARK.json``; this is what the code keeps beside them.
# ----------------------------------------------------------------------
def contract() -> dict:
    """``BENCHMARK.json`` parsed: workload reasons, metric names, units,
    directions and the bounds the driver gates."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


#: ``BENCHMARK.json`` holds one bound per metric, sized for the noisiest
#: workload (``rn-*``).  On ``sim-*`` these are simulated-clock values
#: that repeat bit-exactly, so the comparator holds them to this instead.
SIM_CLOCK_METRICS = ("latency_p50_ms", "capacity_mcast_per_s")
SIM_CLOCK_BOUND = 0.01

#: End-to-end values ``BENCHMARK.json`` cannot gate: a metric gated there
#: must be non-zero on every workload and steady within one bound of at
#: most 25 % on the noisiest one (the closed-loop rate of ``rn-*`` spread
#: 0.22-0.37 over ten seeds on the box this was written on).  Every
#: untraced repetition reports them on the workloads they apply to
#: (capacity where there is a closed loop, ``latency_p99_ms`` on ``sim-*``,
#: the two churn times on ``sim-churn``) and ``bench/compare.py`` holds
#: them to these bounds: ``name -> (unit, better, bound, bound is absolute)``.
SUITE_GATES: Dict[str, Tuple[str, str, float, bool]] = {
    "capacity_mcast_per_s": ("1/s", "higher", 0.10, False),
    "latency_p99_ms": ("ms", "lower", SIM_CLOCK_BOUND, False),
    "within_limit_share": ("share", "higher", 0.01, True),
    "unavail_p50_ms": ("ms", "lower", SIM_CLOCK_BOUND, False),
    "rejoin_p50_ms": ("ms", "lower", SIM_CLOCK_BOUND, False),
}

#: The layers self time and calls are attributed to (``bench.trace.LAYERS``
#: says which source files make up each); ``other`` is what none owns.
LAYER_NAMES = ("msg", "net", "pipeline", "ordering", "engine", "kernel",
               "wal", "fd", "sim", "runtime", "bench", "other")
