"""Deterministic discrete-event simulation kernel.

The kernel is a single priority queue of timestamped callbacks.  Ties are
broken by a monotonically increasing sequence number, so two runs of the
same program with the same seed produce byte-identical event orders.  All
of isis-vs (network links, CPU costs, heartbeat timers, protocol timeouts,
lightweight tasks) is scheduled through this one heap.

Simulated time is a float in **seconds**.  Nothing in the kernel sleeps in
wall-clock time; :meth:`Simulator.run` simply drains the heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .rand import RngRegistry
from .trace import Trace


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    The simulator's heap holds ``(time, seq, timer)`` tuples, so ordering
    is decided on the first two items (``seq`` is unique) and timers
    themselves are never compared.

    Cancellation is lazy: the heap entry stays in place and is discarded
    when popped.  This keeps :meth:`cancel` O(1).  The simulator counts
    cancelled entries still sitting in its heap and compacts once they
    are the majority — timer-heavy protocols (per-ACK retransmit
    re-arming, batching windows) would otherwise grow the heap with dead
    entries faster than the pop loop retires them.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Owning simulator while the entry is in its heap (cleared on
        #: pop, so post-execution cancels are not miscounted).
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()
        # Drop references so cancelled timers do not pin large closures.
        self.fn = None  # type: ignore[assignment]
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Timer t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """The event loop: a clock, an event heap, RNG streams and a trace.

    Parameters
    ----------
    seed:
        Master seed.  Every named RNG stream (see :meth:`rng`) derives its
        own deterministic substream from this value.
    """

    #: Compact only when the heap has at least this many entries (small
    #: heaps are cheap to pop through; compacting them is churn).
    COMPACT_MIN_HEAP = 64

    def __init__(self, seed: int = 0):
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq: int = 0
        self._running = False
        self._rngs = RngRegistry(seed)
        self.seed = seed
        #: Cancelled entries still sitting in the heap.
        self._cancelled = 0
        #: Times the heap was rebuilt to shed dead entries.
        self._compactions = 0
        #: Counters and event log shared by all layers.
        self.trace = Trace(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Scheduling in the past is an error — it would silently reorder
        history and break determinism.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(time, seq, fn, args, sim=self)
        heapq.heappush(self._heap, (time, seq, timer))
        return timer

    def _note_cancelled(self) -> None:
        """A heap-resident timer was cancelled; compact when >50% dead."""
        self._cancelled += 1
        if (len(self._heap) >= self.COMPACT_MIN_HEAP
                and self._cancelled * 2 > len(self._heap)):
            self._heap = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0
            self._compactions += 1

    def call_after(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def call_soon(self, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        return self.call_at(self._now, fn, *args)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next event.  Returns False if the heap is empty."""
        while self._heap:
            timer = heapq.heappop(self._heap)[2]
            timer._sim = None  # out of the heap: cancels no longer counted
            if timer.cancelled:
                self._cancelled -= 1
                continue
            self._now = timer.time
            fn, args = timer.fn, timer.args
            timer.cancel()  # release references
            fn(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event heap.

        Parameters
        ----------
        until:
            Stop once the next event would run strictly after this time; the
            clock is advanced to ``until`` on return.
        max_events:
            Safety valve for tests; stop after this many events.

        Returns the number of events executed.
        """
        if self._running:
            raise SimulationError("Simulator.run() re-entered")
        self._running = True
        executed = 0
        try:
            while self._heap:
                if max_events is not None and executed >= max_events:
                    break
                head = self._heap[0][2]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    head._sim = None
                    self._cancelled -= 1
                    continue
                if until is not None and head.time > until:
                    break
                self.step()
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) heap entries; for tests/debugging."""
        return len(self._heap) - self._cancelled

    def stats(self) -> dict:
        """Event-loop health counters (heap occupancy, compactions)."""
        return {
            "timers.scheduled": self._seq,
            "timers.heap_size": len(self._heap),
            "timers.cancelled_pending": self._cancelled,
            "timers.compactions": self._compactions,
        }

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str):
        """Named deterministic RNG substream (``random.Random``)."""
        return self._rngs.stream(stream)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.6f} pending={len(self._heap)}>"
