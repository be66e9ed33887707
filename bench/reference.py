"""A fixed piece of interpreter work, timed beside everything measured in
host time, so that host-clock values can be reported *at reference speed*.

The box this benchmark runs on is a small share of a bigger host and
changes speed under it: the same pure-Python loop takes 1x, 1.7x or 3.5x
as long for seconds to minutes at a time, and ``time.process_time`` counts
the slow time as the program's own.  No estimator inside one run removes
that (whole runs fall into a slow stretch), but the slowdown is common to
everything the interpreter executes at that moment.  So the harness runs
:func:`kernel` at both edges of every measured slice and divides the
slice's host time by how slow the kernel ran there (:func:`slowdown`).
Over ten seeds in a noisy hour the raw CPU cost per multicast of
``sim-mix`` spread 0.25 (quartile distance over median) and the same runs'
cost at reference speed 0.02.

The kernel mixes what the program does: dictionary stores, ``struct``
packing and small allocations on a cache-resident table, then loads
strided over a few megabytes.  Either half alone tracks the program
worse than both together.
"""

from __future__ import annotations

import struct
import time

#: CPU seconds :func:`kernel` takes on the box the benchmark was written on
#: (2 vCPUs of a Xeon at 2.1 GHz, CPython 3.11) in its fast stretches.  It
#: only fixes the unit: values "at reference speed" are host seconds of
#: that box at its best.
REFERENCE_S = 0.0033

_CELLS = [bytes(64) for _ in range(60_000)]


def kernel() -> float:
    """Run the reference work once; the CPU seconds it took."""
    started = time.process_time()
    table = {}
    total = 0
    for i in range(10_000):
        table[i & 1023] = struct.pack(">IH", i, i & 0xFFFF)
        total += len(table[i & 1023])
    cells = _CELLS
    for i in range(0, len(cells), 4):
        total += len(cells[i])
    return time.process_time() - started


def slowdown(*kernel_s: float) -> float:
    """How many times slower than reference speed the box ran, given the
    kernel's timings around the interval in question."""
    return sum(kernel_s) / len(kernel_s) / REFERENCE_S
