#!/usr/bin/env python3
"""Run one workload of ``bench/run.py`` in alternating base/change pairs.

    python3 scripts/bench_pairs.py --workload sim-mix --base HEAD~1 \\
        --pairs 10 --seconds 30 --seed0 101

The base tree is ``git archive`` of ``--base`` unpacked into a temporary
directory (nothing is registered in the repository); the change is this
checkout, as it is on disk.  Pair *i* runs both trees on seed
``seed0 + i``, the base first in even pairs and the change first in odd
ones, so a slow stretch of the machine lands on both sides alike.  Both
run with ``--trace 0``.

Per end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, how many pairs the change won (strictly better in its
metric's direction), and whether a gain claim on that metric holds: a
win in at least nine pairs of ten, and a median gap in the better
direction wider than the base's interquartile range.  The exit status is
0 whatever the numbers say; failed operations are printed per run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.stats import quartiles  # noqa: E402

#: A gain claim needs a win in at least this share of the pairs.
WIN_SHARE = 0.9


def summarize(base: Sequence[float], change: Sequence[float],
              better: str) -> Dict[str, object]:
    """One metric's pairs, ``base[i]`` against ``change[i]``.

    ``better`` is ``"lower"`` or ``"higher"``.  ``gap`` is how far the
    change's median is better than the base's (negative: worse), and
    ``holds`` whether a gain claim on the metric stands.
    """
    if len(base) != len(change) or not base:
        raise ValueError("one base and one change value per pair")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (b_med - c_med)
    iqr = b_q3 - b_q1
    return {
        "base": (b_q1, b_med, b_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": wins,
        "pairs": len(base),
        "gap": gap,
        "base_iqr": iqr,
        "holds": wins >= WIN_SHARE * len(base) and gap > iqr,
    }


def end_to_end(root: str = ROOT) -> List[dict]:
    """The gated metrics: ``[{"name", "unit", "better", "bound"}, ...]``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def unpack(ref: str, into: str) -> str:
    """``git archive`` of ``ref`` unpacked under ``into``; its path."""
    tree = os.path.join(into, "base")
    os.makedirs(tree)
    archive = os.path.join(into, "base.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                    "-o", archive, ref], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` repetition in ``tree``: its contract object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True,
                        help="git ref of the base side (e.g. HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = end_to_end()
    values: Dict[str, Dict[str, List[float]]] = {
        m["name"]: {"base": [], "change": []} for m in metrics}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        trees = {"base": unpack(args.base, scratch), "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(trees[side], args.workload, seed,
                                  args.seconds)
                line = []
                for m in metrics:
                    value = result["metrics"][m["name"]]["value"]
                    values[m["name"]][side].append(value)
                    line.append(f"{m['name']}={value:.6g}")
                print(f"pair {i} seed {seed} {side:6s} failed "
                      f"{result['failed']}/{result['attempted']}  "
                      + "  ".join(line), flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"base {args.base} against the working tree")
    for m in metrics:
        s = summarize(values[m["name"]]["base"], values[m["name"]]["change"],
                      m["better"])
        (bq1, bmed, bq3), (cq1, cmed, cq3) = s["base"], s["change"]
        print(f"{m['name']:18s} base {bmed:10.4g} [{bq1:.4g}, {bq3:.4g}]  "
              f"change {cmed:10.4g} [{cq1:.4g}, {cq3:.4g}] {m['unit']:3s} "
              f"wins {s['wins']}/{s['pairs']}  gap {s['gap']:.4g} vs base "
              f"IQR {s['base_iqr']:.4g}  gain rule "
              f"{'met' if s['holds'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
