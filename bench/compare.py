#!/usr/bin/env python3
"""Compare two result files of ``python -m bench``: one verdict per
(workload, end-to-end metric).

    python3 bench/compare.py base.json change.json

* ``unresolved`` — either side's quartile spread (q3 − q1 over the
  median) is wider than the metric's bound: the runs cannot tell;
* ``regressed`` / ``improved`` — the change's median is worse / better
  than the base's by more than the bound;
* ``unchanged`` — otherwise.

Bounds and directions are read from ``BENCHMARK.json``; the simulated-
clock metrics of ``sim-*`` workloads, which repeat exactly, are held to
the tighter ``bench.spec.SIM_CLOCK_BOUND``.  The end-to-end values
``BENCHMARK.json`` cannot name (``bench.spec.SUITE_GATES``: the tail, the
share within the latency limit, time without service, rejoin time) are
checked on the workloads that report them.  Exit status is 1 when any
pair regressed or a workload's ``failed_share`` went up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.spec import (BY_NAME, SIM_CLOCK_BOUND, SIM_CLOCK_METRICS,  # noqa: E402
                        SUITE_GATES, contract)

#: metric -> (better, bound, bound is absolute rather than a share)
Bounds = Dict[str, Tuple[str, float, bool]]


def load_bounds() -> Bounds:
    bounds: Bounds = {m["name"]: (m["better"], m["bound"], False)
                      for m in contract()["end_to_end"]}
    for name, (_unit, better, bound, absolute) in SUITE_GATES.items():
        bounds[name] = (better, bound, absolute)
    return bounds


def spread(entry: dict, absolute: bool) -> float:
    width = entry["q3"] - entry["q1"]
    if absolute:
        return width
    return width / abs(entry["median"]) if entry["median"] else 0.0


def verdict(base: dict, change: dict, better: str, bound: float,
            absolute: bool = False) -> str:
    """Verdict for one metric given both sides' ``{median, q1, q3}``.

    ``bound`` is a share of the base's median, or with ``absolute`` a
    difference in the metric's own unit."""
    if spread(base, absolute) > bound or spread(change, absolute) > bound:
        return "unresolved"
    delta = change["median"] - base["median"]
    if not absolute:
        if not base["median"]:
            return "unchanged" if not change["median"] else "unresolved"
        delta /= abs(base["median"])
    worse = delta if better == "lower" else -delta
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(base: dict, change: dict,
            bounds: Bounds) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, base median, change median, verdict)``
    and whether the comparison fails."""
    rows: List[tuple] = []
    bad = False
    for name, before in base["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            rows.append((name, "-", None, None, "missing"))
            bad = True
            continue
        for metric, (better, bound, absolute) in bounds.items():
            a = before["metrics"].get(metric)
            b = after["metrics"].get(metric)
            if a is None or b is None:
                continue
            if metric in SIM_CLOCK_METRICS and name in BY_NAME \
                    and BY_NAME[name].driver == "sim":
                bound = min(bound, SIM_CLOCK_BOUND)
            result = verdict(a, b, better, bound, absolute)
            bad = bad or result == "regressed"
            rows.append((name, metric, a["median"], b["median"], result))
        a, b = before["failed_share"], after["failed_share"]
        result = "regressed" if b > a else "unchanged"
        bad = bad or result == "regressed"
        rows.append((name, "failed_share", a, b, result))
    return rows, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.change) as fh:
        change = json.load(fh)
    rows, bad = compare(base, change, load_bounds())
    print(f"{'workload':12s} {'metric':22s} {'base':>14s} {'change':>14s}  verdict")
    def fmt(value) -> str:
        return f"{value:14.4f}" if value is not None else " " * 14

    for name, metric, a, b, result in rows:
        print(f"{name:12s} {metric:22s} {fmt(a)} {fmt(b)}  {result}")
    counts: Dict[str, int] = {}
    for *_x, result in rows:
        counts[result] = counts.get(result, 0) + 1
    print("summary: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
