"""The whole benchmark in one command.

    PYTHONPATH=src python -m bench --seed 1 --out result.json

runs every workload ``bench.spec.REPS`` times, each repetition in a fresh
``bench/run.py`` subprocess, round-robin across workloads so a noisy
minute on a shared box is spread over all of them.  Every end-to-end
metric is printed by name with its unit as the median of the
repetitions, with the quartiles beside it.  ``--traced`` adds one
instrumented repetition per workload (per-layer metrics); ``--sweep``
adds the latency-against-offered-load curve of three workloads.  Neither
is gated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import stats  # noqa: E402
from bench.spec import (BY_NAME, REPS, SUITE_ONLY, WORKLOADS,  # noqa: E402
                        contract)

#: Fixed open-loop rates of the sweep, multicasts/s: 20 % to 120 % of the
#: capacity the seed code showed, so both sides of a comparison are
#: offered identical load.
SWEEP_CAPACITY = {"rn-cbcast": 900.0, "rn-abcast": 700.0, "sim-mix": 70.0}
SWEEP_SHARES = (0.2, 0.45, 0.7, 0.95, 1.2)


def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One repetition in its own process; its full record, or a failure."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--full"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=600)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if done.returncode:
        return {"error": done.stderr.strip()[-2000:] or f"exit {done.returncode}"}
    for line in done.stdout.splitlines():
        if line.startswith("[bench]"):
            print(f"  {workload}: {line}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: List[float], unit: str) -> dict:
    q1, median, q3 = stats.quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "values": values}


def sweep(name: str, seed: int, seconds: float) -> List[dict]:
    """Latency against offered load: one open-loop window per fixed rate."""
    from bench.harness import Run

    points = []
    for share in SWEEP_SHARES:
        rate = SWEEP_CAPACITY[name] * share
        spec = dataclasses.replace(BY_NAME[name], open_rate=rate,
                                   closed_window=0.0)
        run = Run(spec, seed, seconds * 0.4)
        try:
            run.setup()
            run.measure()
            verdict = run.verdict()
            lat, sent = run.latencies(verdict)
            points.append({
                "rate_per_s": rate, "share_of_seed_capacity": share,
                "sent": sent, "delivered": len(lat),
                "latency_p50_ms": stats.percentile(lat, 0.5) * 1e3 if lat else None,
                "latency_p99_ms": stats.tail(lat)[0] * 1e3 if lat else None,
                "backlog_growth_per_s": run.backlog_growth(),
                "failed": verdict.count + len(run.driver.errors),
            })
        finally:
            run.close()
        print(f"  sweep {name} {rate:7.1f}/s  p50 "
              f"{points[-1]['latency_p50_ms']}  p99 {points[-1]['latency_p99_ms']}"
              f"  backlog {points[-1]['backlog_growth_per_s']:+.1f}/s")
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--out", default=None, help="write the result file here")
    args = parser.parse_args(argv)
    names = [w.name for w in WORKLOADS]
    spec_file = contract()
    why = {**SUITE_ONLY, **{w["name"]: w["why"] for w in spec_file["workloads"]}}
    seconds = float(spec_file["run_seconds"])

    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for rep in range(REPS):
        for name in names:
            print(f"rep {rep + 1}/{REPS} {name} ...", flush=True)
            record = child(name, args.seed, seconds, 0)
            if record.get("extras", {}).get("invalid"):
                print(f"  {name}: repetition invalid (late generator or "
                      f"loaded box); re-running once")
                record = child(name, args.seed, seconds, 0)
                record.get("extras", {})["rerun"] = True
            runs[name].append(record)

    result = {"schema": 2, "seed": args.seed, "seconds": seconds,
              "workloads": {}}
    for name in names:
        good = [r for r in runs[name] if "error" not in r]
        for r in runs[name]:
            if "error" in r:
                print(f"  {name}: repetition failed: {r['error']}")
        attempted = sum(r["attempted"] for r in good) or 1
        failed = sum(r["failed"] for r in good)
        entry = {
            "why": why[name],
            "reps": REPS,
            "attempted": attempted,
            "failed": failed,
            # A repetition that died counts as wholly failed.
            "failed_share": (failed / attempted if len(good) == len(runs[name])
                             else 1.0),
            "metrics": {
                metric: summarise([r["metrics"][metric][0] for r in good], unit)
                for metric, (_v, unit) in good[0]["metrics"].items()}
            if good else {},
            "repetitions": [{"env": r["env"], "extras": r["extras"]}
                            for r in good],
        }
        result["workloads"][name] = entry
    if good := [r for rs in runs.values() for r in rs if "error" not in r]:
        result["env"] = good[0]["env"]

    if args.traced:
        for name in names:
            print(f"traced {name} ...", flush=True)
            record = child(name, args.seed, seconds, 1)
            if "error" in record:
                print(f"  {name}: traced repetition failed: {record['error']}")
                continue
            result["workloads"][name]["per_layer"] = {
                metric: {"value": value, "unit": unit}
                for metric, (value, unit) in record["metrics"].items()}
            result["workloads"][name]["trace_extras"] = record["extras"]
    if args.sweep:
        for name in names:
            if name in SWEEP_CAPACITY:
                result["workloads"][name]["curve"] = sweep(
                    name, args.seed, seconds)

    print()
    print(f"{'workload':11s} {'metric':22s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} unit")
    for name in names:
        entry = result["workloads"][name]
        for metric, s in entry["metrics"].items():
            print(f"{name:11s} {metric:22s} {s['median']:14.4f} {s['q1']:14.4f} "
                  f"{s['q3']:14.4f} {s['unit']}")
        print(f"{name:11s} {'failed_share':22s} {entry['failed_share']:14.6f} "
              f"{'':14s} {'':14s} share  ({entry['failed']}/{entry['attempted']})")
        for metric, s in entry.get("per_layer", {}).items():
            print(f"{name:11s}   {metric:32s} {s['value']:14.4f} {s['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
        print(f"\nwrote {args.out}")
    return 1 if any(e["failed_share"] > 0 for e in result["workloads"].values()) \
        else 0


if __name__ == "__main__":
    sys.exit(main())
