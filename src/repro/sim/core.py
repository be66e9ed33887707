"""Deterministic discrete-event simulation kernel.

The kernel is a single priority queue of timestamped callbacks.  Ties are
broken by a monotonically increasing sequence number, so two runs of the
same program with the same seed produce byte-identical event orders.  All
of isis-vs (network links, CPU costs, heartbeat timers, protocol timeouts,
lightweight tasks) is scheduled through this one heap.

Two verbs put an event on it.  ``call_at`` / ``call_after`` return a
:class:`Timer` the caller may cancel; ``post`` / ``post_at`` return
nothing and push ``fn`` and ``args`` as they are — CPU work, frames in
flight, hops inside a site, which nobody ever cancels.  Both draw their
``seq`` from the one counter, so ties break in schedule order whichever
verb armed them.

Simulated time is a float in **seconds**.  Nothing in the kernel sleeps in
wall-clock time; :meth:`Simulator.run` simply drains the heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .rand import RngRegistry
from .trace import Trace


#: ``until`` of a run with no horizon.
_FOREVER = float("inf")


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    The simulator's heap holds ``(time, seq, fn, args)`` tuples, ordered
    on the first two items (``seq`` is unique); a timer's entry is
    ``(time, seq, timer, None)``, and the callback is read off the timer
    when the entry comes due.

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
        #: ``(time, seq, fn, args)``; a :class:`Timer`'s entry is
        #: ``(time, seq, timer, None)``.
        self._heap: list[tuple] = []
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
        """Schedule ``fn(*args)`` at absolute simulated ``time``; returns
        the handle that cancels it.

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
        heapq.heappush(self._heap, (time, seq, timer, None))
        return timer

    def _note_cancelled(self) -> None:
        """A heap-resident timer was cancelled; compact when >50% dead."""
        self._cancelled += 1
        heap = self._heap
        if (len(heap) >= self.COMPACT_MIN_HEAP
                and self._cancelled * 2 > len(heap)):
            # In place: a running dispatch loop holds this list.
            heap[:] = [e for e in heap if e[3] is not None
                       or not e[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0
            self._compactions += 1

    def call_after(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute ``time``; it cannot be cancelled."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds (>= 0); it cannot be
        cancelled."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, fn, args))

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _dispatch(self, until: float, max_events: int) -> int:
        """Run events due at or before ``until``, at most ``max_events``
        of them (``-1``: no limit); returns how many ran."""
        heap, pop = self._heap, heapq.heappop
        executed = 0
        while heap and executed != max_events:
            time, _seq, fn, args = heap[0]
            if args is None and fn.cancelled:  # a dead timer's entry
                pop(heap)
                fn._sim = None
                self._cancelled -= 1
                continue
            if time > until:
                break
            pop(heap)
            if args is None:  # a timer's entry: ``fn`` is the Timer
                timer = fn
                fn, args = timer.fn, timer.args
                # Out of the heap: a late cancel is a no-op, not counted.
                timer._sim, timer.cancelled = None, True
                timer.fn, timer.args = None, ()  # release references
            self._now = time
            fn(*args)
            executed += 1
        return executed

    def step(self) -> bool:
        """Run the single next event.  Returns False if the heap is empty."""
        return self._dispatch(_FOREVER, 1) == 1

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
        try:
            executed = self._dispatch(
                _FOREVER if until is None else until,
                -1 if max_events is None else max_events)
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
