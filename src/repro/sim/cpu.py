"""Serial CPU model for a computing site.

The Figure 2 discussion reports *CPU utilization*: 96–98 % on a site
streaming asynchronous multicasts versus 30–35 % when a protocol (like
ABCAST) must wait for remote messages, with otherwise-idle remote sites
around 20 %.  To reproduce those numbers the simulator charges every
packet send/receive (and any explicit work) to the site's single CPU,
which executes work items serially.

Work items are packed back-to-back: a submission at time *t* begins at
``max(t, ready_at)`` and the CPU is busy until all queued work drains.
Because future work always occupies the contiguous interval ending at
``ready_at``, cumulative busy time at any time ≥ now is cheap to compute —
no interval list is needed.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .core import Simulator


def _idle() -> None:
    """What a submission without work runs when its time is up."""


class Cpu:
    """One site's processor: serializes work, tracks busy time."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._ready_at: float = 0.0
        #: Total busy seconds ever scheduled (including not-yet-elapsed work).
        self._accum: float = 0.0

    @property
    def ready_at(self) -> float:
        """Time at which all currently queued work will have drained."""
        return max(self._ready_at, self.sim.now)

    @property
    def backlog(self) -> float:
        """Seconds of queued work not yet executed."""
        return max(0.0, self._ready_at - self.sim.now)

    def submit(
        self,
        cost: float,
        fn: Optional[Callable] = None,
        *args: Any,
    ) -> None:
        """Charge ``cost`` seconds of CPU, then run ``fn(*args)``.

        Zero-cost submissions still serialize behind queued work, and a
        submission without ``fn`` still holds the CPU until its work
        drains.
        """
        sim = self.sim
        start = max(sim._now, self._ready_at)
        end = start + cost
        self._ready_at = end
        self._accum += cost
        sim.post_at(end, _idle if fn is None else fn, *args)

    def busy_before(self, t: float) -> float:
        """Cumulative busy seconds up to time ``t`` (t must be >= now)."""
        if t >= self._ready_at:
            return self._accum
        # Pending work occupies the contiguous interval [?, ready_at]
        # that started no later than `now` <= t, so the part after t is
        # exactly (ready_at - t).
        return self._accum - (self._ready_at - t)

    def meter(self) -> "CpuMeter":
        """Start measuring utilization from the current instant."""
        return CpuMeter(self)


class CpuMeter:
    """Window-based utilization measurement for one :class:`Cpu`."""

    def __init__(self, cpu: Cpu):
        self.cpu = cpu
        self.start_time = cpu.sim.now
        self.start_busy = cpu.busy_before(self.start_time)

    def utilization(self) -> float:
        """Fraction of the window [start, now] the CPU was busy."""
        now = self.cpu.sim.now
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        busy = self.cpu.busy_before(now) - self.start_busy
        return min(1.0, max(0.0, busy / elapsed))
