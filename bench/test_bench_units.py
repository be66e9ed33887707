"""Fast unit tests of the benchmark's own machinery (no sockets)."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import compare, reference, stats  # noqa: E402
from bench.check import Incarnation, check  # noqa: E402
from bench.harness import Run, open_schedule  # noqa: E402
from bench.harness import SimDriver  # noqa: E402
from bench.spec import (AB, BY_NAME, CB, LAYER_NAMES, SUITE_GATES,  # noqa: E402
                        SUITE_ONLY, WORKLOADS, contract)
from bench.trace import Counters  # noqa: E402


# -- the percentile rule -------------------------------------------------
def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    sample = list(range(1, 2001))             # 2000 samples
    value, share = stats.tail(sample)
    assert (value, share) == (1980, 0.99)     # 20 beyond


def test_tail_drops_to_highest_percentile_with_ten_beyond():
    sample = list(range(1, 201))              # 200 samples: p99 has 2 beyond
    value, share = stats.tail(sample)
    assert value == 190 and share == 0.95
    assert sum(1 for x in sample if x > value) == stats.TAIL_MIN_BEYOND


def test_tail_of_a_tiny_sample_is_its_median():
    assert stats.tail([1, 3, 5]) == (3, 2 / 3)
    assert stats.percentile([1, 2, 3, 4], 0.5) == 2


# -- inputs come from the seed ---------------------------------------------
def test_open_schedule_is_a_function_of_the_seed():
    a = open_schedule(7, [0, 1, 2, 3], 32.0, 60.0)
    assert a == open_schedule(7, [0, 1, 2, 3], 32.0, 60.0)
    assert a != open_schedule(8, [0, 1, 2, 3], 32.0, 60.0)
    assert len(a) == 32 * 60                      # fixed rate: exact count
    assert a == sorted(a) and 0.0 <= a[0][0] and a[-1][0] < 60.0
    per_site = [sum(1 for _t, s in a if s == site) for site in range(4)]
    assert per_site == [480] * 4


# -- the comparator ----------------------------------------------------------
def _entry(median, half_iqr=0.0):
    return {"median": median, "q1": median - half_iqr, "q3": median + half_iqr}


def test_comparator_verdicts():
    v = compare.verdict
    assert v(_entry(100), _entry(100.5), "lower", 0.01) == "unchanged"
    assert v(_entry(100), _entry(103), "lower", 0.01) == "regressed"
    assert v(_entry(100), _entry(97), "lower", 0.01) == "improved"
    assert v(_entry(100), _entry(97), "higher", 0.01) == "regressed"
    assert v(_entry(100), _entry(103), "higher", 0.01) == "improved"
    # Spread wider than the bound on either side: the runs cannot tell.
    assert v(_entry(100, 6), _entry(130), "lower", 0.10) == "unresolved"
    assert v(_entry(100), _entry(130, 9), "lower", 0.10) == "unresolved"
    # An absolute bound is a difference in the metric's own unit.
    assert v(_entry(1.0), _entry(0.995), "higher", 0.01, True) == "unchanged"
    assert v(_entry(1.0), _entry(0.98), "higher", 0.01, True) == "regressed"
    assert v(_entry(0.9, 0.02), _entry(0.9), "higher", 0.01, True) == "unresolved"


def test_comparator_fails_on_regression_or_more_failures():
    bounds = {"latency_p50_ms": ("lower", 0.05, False)}

    def result(latency, failed_share):
        return {"workloads": {"w": {
            "metrics": {"latency_p50_ms": _entry(latency)},
            "failed_share": failed_share}}}

    assert compare.compare(result(10, 0), result(10.1, 0), bounds)[1] is False
    assert compare.compare(result(10, 0), result(12, 0), bounds)[1] is True
    assert compare.compare(result(10, 0), result(10, 0.01), bounds)[1] is True


def test_comparator_gates_what_benchmark_json_cannot_name():
    # Flush, failure detection or rejoin getting slower must not compare
    # as "unchanged" on sim-churn.
    bounds = compare.load_bounds()
    assert set(SUITE_GATES) <= set(bounds)

    def result(unavail):
        return {"workloads": {"sim-churn": {
            "metrics": {"unavail_p50_ms": _entry(unavail)},
            "failed_share": 0}}}

    rows, bad = compare.compare(result(2200.0), result(2300.0), bounds)
    assert bad and ("sim-churn", "unavail_p50_ms", 2200.0, 2300.0,
                    "regressed") in rows


# -- BENCHMARK.json and the code name the same things --------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_agrees_with_the_code():
    spec = contract()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    gated = [w["name"] for w in spec["workloads"]]
    assert sorted(gated + list(SUITE_ONLY)) == sorted(w.name for w in WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(SUITE_GATES) <= per_layer
    assert {f"{layer}.self_us_per_mcast" for layer in LAYER_NAMES} <= per_layer
    names = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in spec["end_to_end"])


def test_a_failed_set_up_is_counted_not_raised(monkeypatch):
    from bench import run as entry
    monkeypatch.setattr(SimDriver, "patience", 0.0)   # nothing ever forms
    spec = BY_NAME["sim-mix"]
    named = contract()
    for one, key in ((entry.untraced, "end_to_end"), (entry.traced, "per_layer")):
        line = json.loads(entry.contract_line(one(spec, 1, 0.5)))
        assert line["correct"] is False
        assert 0 < line["failed"] <= line["attempted"]
        assert list(line["metrics"]) == [m["name"] for m in named[key]]


# -- host time is reported at reference speed -----------------------------------
def test_host_cost_is_the_median_slice_at_reference_speed():
    assert reference.slowdown(reference.REFERENCE_S,
                              3 * reference.REFERENCE_S) == 2.0
    run = Run(BY_NAME["sim-mix"], seed=1)
    # (cpu s, sent, completions, clock s, slowdown): the box ran at 1x,
    # 2x and 4x around three slices of equal work; an idle slice is skipped.
    run.slices["open"] = [(0.1, 100, 0, 4.0, 1.0), (0.2, 100, 0, 4.0, 2.0),
                          (0.0, 0, 0, 4.0, 1.0), (0.44, 100, 0, 4.0, 4.0)]
    assert run.host_cost() == 0.001


# -- the oracle sees what it should -----------------------------------------------
def test_oracle_flags_duplicates_gaps_reorders_and_order_disagreement():
    streams = [(0, 0, CB), (0, 0, CB), (0, 1, AB), (0, 1, AB)]
    sites = [(0, 1)]
    good = [Incarnation(0, [0, 1, 2, 3]), Incarnation(1, [2, 0, 3, 1])]
    assert check(streams, good, sites).count == 0
    dup = [Incarnation(0, [0, 1, 2, 3]), Incarnation(1, [0, 0, 1, 2, 3])]
    assert check(streams, dup, sites).failed == {0}
    gap = [Incarnation(0, [0, 1, 2, 3]), Incarnation(1, [0, 2, 3])]
    assert 1 in check(streams, gap, sites).failed
    fifo = [Incarnation(0, [0, 1, 2, 3]), Incarnation(1, [1, 0, 2, 3])]
    assert check(streams, fifo, sites).failed >= {0, 1}
    # A joiner whose state says "two CBCASTs, one ABCAST applied" resumes there.
    joiner = Incarnation(1, [3], base={(0, 0, CB): 2, (0, 1, AB): 1})
    assert check(streams, [good[0], joiner], sites).count == 0
    views = {0: {0: (3, ("a", "b")), 1: (4, ("a", "b"))}}
    assert check(streams, good, sites, views).loose == 1


# -- the simulated clock is exact ----------------------------------------------------
def test_sim_mix_twice_is_bit_identical():
    # Short slices keep the windows (4 and 1 simulated seconds) small.
    spec = dataclasses.replace(BY_NAME["sim-mix"], slice=1.0)

    def once():
        counters = Counters("open")
        run = Run(spec, seed=3, seconds=0.5, observer=counters)
        run.setup()
        run.measure()
        verdict = run.verdict()
        lat, sent = run.latencies(verdict)
        metrics = run.end_to_end(verdict)
        assert verdict.count == 0 and not run.driver.errors and sent == len(lat)
        return (lat, metrics["capacity_mcast_per_s"], metrics["latency_p50_ms"],
                counters.before, counters.after)

    assert once() == once()
