#!/usr/bin/env python
"""Boot N local site processes, run a workload, collect the reports.

Spawns one ``scripts/run_site.py`` process per site on a shared
``--base-port`` plan, waits for every report (or a deadline), verifies
convergence — every site must report the *same* delivered-set digest,
which is virtual synchrony's promise made observable across OS
processes — and prints an aggregate JSON summary to stdout.

Exit code 0 only if every site exited cleanly AND all digests agree,
so CI can use this directly as the realnet smoke gate.  SIGTERM tears
the fleet down cleanly (each site handles it and writes its report).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

SCRIPT_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_SITE = os.path.join(SCRIPT_DIR, "run_site.py")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sites", type=int, default=4)
    parser.add_argument("--base-port", type=int, default=None,
                        help="default: random in [20000, 48000)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--hosts", default=None,
                        help="per-site address overrides, e.g. "
                             "'0=10.0.0.1,2=10.0.0.3'; only sites mapped "
                             "to local addresses are spawned here, the "
                             "rest are expected on their mapped machines")
    parser.add_argument("--local-sites", default=None,
                        help="comma-separated site ids to spawn from this "
                             "launcher (default: all; use with --hosts on "
                             "multi-machine runs)")
    parser.add_argument("--loss-rate", type=float, default=0.0,
                        help="inject datagram loss at every site (lossy "
                             "smoke variant)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default="cbcast",
                        choices=["idle", "cbcast", "abcast", "mixed"])
    parser.add_argument("--duration", type=float, default=3.0)
    parser.add_argument("--payload-bytes", type=int, default=64)
    parser.add_argument("--inflight", type=int, default=8)
    parser.add_argument("--abcast-mode", default="sequencer",
                        choices=["sequencer", "two_phase"])
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="hard deadline for the whole run")
    parser.add_argument("--out", default=None,
                        help="write the aggregate JSON here as well")
    return parser.parse_args(argv)


def run_cluster(args: argparse.Namespace) -> dict:
    """Spawn the site processes and return the aggregate summary."""
    base_port = args.base_port
    if base_port is None:
        # Even base so the +2i/+2i+1 plan stays within one even block.
        base_port = random.randrange(20000, 48000, 2)
    tmpdir = tempfile.mkdtemp(prefix="realnet_")
    hosts = getattr(args, "hosts", None)
    loss_rate = getattr(args, "loss_rate", 0.0)
    local_spec = getattr(args, "local_sites", None)
    local = (sorted(int(s) for s in local_spec.split(","))
             if local_spec else list(range(args.n_sites)))
    procs = []
    outs = []
    for sid in local:
        out_path = os.path.join(tmpdir, f"site{sid}.json")
        outs.append(out_path)
        cmd = [
            sys.executable, RUN_SITE,
            "--site-id", str(sid),
            "--n-sites", str(args.n_sites),
            "--base-port", str(base_port),
            "--host", args.host,
            "--seed", str(args.seed),
            "--workload", args.workload,
            "--duration", str(args.duration),
            "--payload-bytes", str(args.payload_bytes),
            "--inflight", str(args.inflight),
            "--abcast-mode", args.abcast_mode,
            "--out", out_path,
        ]
        if hosts:
            cmd.extend(["--hosts", hosts])
        if loss_rate:
            cmd.extend(["--loss-rate", str(loss_rate)])
        procs.append(subprocess.Popen(cmd))

    def teardown(sig=signal.SIGTERM):
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(sig)

    killed = False
    try:
        deadline = time.monotonic() + args.timeout
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                killed = True
                teardown()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
    except KeyboardInterrupt:
        teardown()
        raise

    reports = []
    for sid, path in zip(local, outs):
        try:
            with open(path) as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            reports.append({"site": sid, "error": "no report written"})

    digests = {r.get("delivered_digest") for r in reports}
    errors = [r["error"] for r in reports if r.get("error")]
    exit_codes = [p.returncode for p in procs]
    delivered = [r.get("delivered", 0) for r in reports]
    walls = [r.get("wall_seconds", 0.0) for r in reports]
    wall = max(walls) if walls else 0.0
    total_delivered = sum(delivered)
    summary = {
        "n_sites": args.n_sites,
        "workload": args.workload,
        "abcast_mode": args.abcast_mode,
        "duration": args.duration,
        "payload_bytes": args.payload_bytes,
        "exit_codes": exit_codes,
        "timed_out": killed,
        "divergent": len(digests) != 1,
        "errors": errors,
        "total_sent": sum(r.get("sent", 0) for r in reports),
        "total_delivered": total_delivered,
        "delivered_per_site": delivered,
        "wall_seconds": wall,
        "delivered_per_site_per_sec": (
            (total_delivered / args.n_sites) / wall if wall else 0.0),
        "latency_p50": max((r.get("latency_p50", 0.0) for r in reports),
                           default=0.0),
        "latency_p99": max((r.get("latency_p99", 0.0) for r in reports),
                           default=0.0),
        # Worst-site CDF: per-quantile max across the per-site CDFs —
        # the envelope a deployment has to budget for.
        "latency_cdf": [
            max(cdfs) for cdfs in zip(*[
                r["latency_cdf"] for r in reports if r.get("latency_cdf")])
        ],
        "loss_rate": loss_rate,
        "faults_lost": sum(
            r.get("transport", {}).get("faults_lost", 0) for r in reports),
        "datagrams_sent": sum(
            r.get("transport", {}).get("datagrams_sent", 0) for r in reports),
        "frames_sent": sum(
            r.get("transport", {}).get("frames_sent", 0) for r in reports),
        "retransmits": sum(
            r.get("transport", {}).get("retransmits", 0) for r in reports),
        "reports": reports,
    }
    summary["ok"] = (not summary["divergent"] and not errors and not killed
                     and all(code == 0 for code in exit_codes))
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    summary = run_cluster(args)
    text = json.dumps(summary, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
