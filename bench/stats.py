"""Order statistics used by every report: one rule, written once."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(ordered: Sequence[float], share: float = 0.99) -> Tuple[float, float]:
    """``(value, share_used)``: the ``share`` percentile, lowered until at
    least :data:`TAIL_MIN_BEYOND` samples lie beyond it (never below the
    median, which is what a sample too small for any tail gets)."""
    n = len(ordered)
    if not n:
        raise ValueError("tail of an empty sample")
    rank = min(math.ceil(share * n), n - TAIL_MIN_BEYOND)
    rank = max(rank, math.ceil(0.5 * n), 1)
    return ordered[rank - 1], rank / n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
