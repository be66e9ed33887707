"""`scripts/bench_pairs.py`'s summary arithmetic, on fixed numbers.

The script's runs take minutes of wall clock and are not part of the
suite; what it concludes from them is, so a gain claim sized with it
reads the rule it states: a win in nine pairs of ten, and a median gap
in the better direction wider than the base's interquartile range.
"""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "scripts", "bench_pairs.py")


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [10, 12, 11, 13, 10, 12, 11, 14, 10, 12]


def test_quartiles_gap_and_wins(pairs):
    change = [b - 1 for b in BASE]
    s = pairs.summarize(BASE, change, "lower")
    # statistics.quantiles(n=4) of the sorted base
    # 10 10 10 11 11 12 12 12 13 14: q1 10, median 11.5, q3 12.25.
    assert s["base"] == (10, 11.5, 12.25)
    assert s["change"] == (9, 10.5, 11.25)
    assert (s["wins"], s["pairs"]) == (10, 10)
    assert s["gap"] == 1.0
    assert s["base_iqr"] == 2.25
    assert not s["holds"]  # every pair won, but inside the base's spread


def test_a_gap_wider_than_the_iqr_in_nine_pairs_holds(pairs):
    change = [b - 3 for b in BASE]
    change[4] = 11  # one pair lost
    s = pairs.summarize(BASE, change, "lower")
    assert s["wins"] == 9
    assert s["gap"] > s["base_iqr"]
    assert s["holds"]


def test_eight_wins_of_ten_fail_whatever_the_gap(pairs):
    change = [b - 3 for b in BASE]
    change[0], change[1] = 10, 13  # a tie is no win
    s = pairs.summarize(BASE, change, "lower")
    assert s["wins"] == 8
    assert s["gap"] > s["base_iqr"]
    assert not s["holds"]


def test_higher_is_better_turns_the_signs(pairs):
    change = [b + 3 for b in BASE]
    s = pairs.summarize(BASE, change, "higher")
    assert s["wins"] == 10 and s["gap"] == 3.0 and s["holds"]
    s = pairs.summarize(BASE, change, "lower")
    assert s["wins"] == 0 and s["gap"] == -3.0 and not s["holds"]


def test_one_value_a_side_per_pair(pairs):
    with pytest.raises(ValueError):
        pairs.summarize(BASE, BASE[:-1], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")


def test_the_metrics_are_the_benchmarks_end_to_end_ones(pairs):
    names = [m["name"] for m in pairs.end_to_end()]
    assert "host_us_per_mcast" in names
    assert all(m["better"] in ("lower", "higher") for m in pairs.end_to_end())
