#!/usr/bin/env python3
"""One repetition of one workload: the benchmark's contract entry point.

    python3 bench/run.py --workload sim-mix --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the gated end-to-end ones; with
``--trace 1`` the per-layer ones (three instrumented passes, see
``bench/trace.py``).  Exit status is non-zero, and nothing is printed as
a result, when the program under test is not there to be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench: src/repro not found next to bench/ — nothing to measure")
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import reference, stats  # noqa: E402
from bench.harness import (OPEN, Run, cost_phase_name,  # noqa: E402
                           measured_phase_name)
from bench.spec import (BY_NAME, LAYER_NAMES, NOMINAL_SECONDS,  # noqa: E402
                        SUITE_GATES, Workload, contract)
from bench.stats import median_or_zero  # noqa: E402
from bench.trace import Counters, Profile, Spans  # noqa: E402

#: Importing the program is part of every user's set-up (at reference
#: speed, like the rest of it: see ``Run.setup``).
IMPORT_S = (time.perf_counter() - _STARTED) / reference.slowdown(reference.kernel())

#: Set-ups per repetition; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``--seconds`` each of the three traced passes measures.
TRACE_PASS_SHARE = 0.3
#: A wall-clock repetition whose load generator ran later than this (p99)
#: measured the box, not the program: it is flagged invalid.
GEN_LATE_LIMIT_S = 0.005


def environment() -> dict:
    """Where and on what this repetition ran (recorded with every result)."""
    sha = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        sha = head
    except OSError:
        pass   # not a git checkout: the driver's copy is a plain tree
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
    }


def gen_late_p99(run: Run) -> float:
    late = sorted(call - due for call, due, phase
                  in zip(run.m_call, run.m_due, run.m_phase) if phase == OPEN)
    return stats.percentile(late, 0.99) if late else 0.0


def repetition(spec: Workload, seed: int, seconds: float, observer=None):
    """Set up, measure, check.  Returns ``(run, verdict)``; caller closes."""
    run = Run(spec, seed, seconds, observer)
    try:
        run.setup()
        run.measure()
        verdict = run.verdict()
    except BaseException:
        run.close()
        raise
    for text in verdict.problems:
        print(f"[bench] FAILED CHECK: {text}")
    return run, verdict


def tally(run: Run, verdict) -> tuple:
    """``(attempted, failed)``: multicasts sent, and those not delivered
    exactly once in a legal order everywhere.  A failure that names no
    multicast (a stalled set-up, disagreeing views, an escaped exception)
    counts once on both sides, so ``failed`` never exceeds ``attempted``."""
    other = verdict.loose + len(run.driver.errors)
    return max(1, len(run.m_stream) + other), len(verdict.failed) + other


# ----------------------------------------------------------------------
# --trace 0: the gated end-to-end metrics
# ----------------------------------------------------------------------
def untraced(spec: Workload, seed: int, seconds: float) -> dict:
    env = environment()
    setups = []
    for _ in range(SETUPS - 1):
        spare = Run(spec, seed, seconds)
        try:
            setups.append(IMPORT_S + spare.setup())
        finally:
            spare.close()
    run, verdict = repetition(spec, seed, seconds)
    try:
        setups.append(IMPORT_S + run.setup_s)
        metrics = run.end_to_end(verdict)
        metrics["setup_s"] = (stats.median(setups), "s")
        metrics.update(suite_gated(spec, run, verdict))
        attempted, failed = tally(run, verdict)
        late = gen_late_p99(run)
        extras = {
            # The suite re-runs a flagged repetition once; the single-run
            # entry point only says so, to keep its duration predictable.
            "invalid": (spec.driver == "net" and late > GEN_LATE_LIMIT_S)
            or env["loadavg"] > env["nproc"],
            "latency_samples": len(run.latencies(verdict)[0]),
            "gen_late_p99_ms": late * 1e3,
            "setup_s_each": setups,
            "slices": run.slices,
        }
    finally:
        run.close()
    return {"env": env, "metrics": metrics, "extras": extras,
            "attempted": attempted, "failed": failed,
            "names": [m["name"] for m in contract()["end_to_end"]]}


def suite_gated(spec: Workload, run: Run, verdict) -> dict:
    """The end-to-end values ``BENCHMARK.json`` cannot name
    (``bench.spec.SUITE_GATES``), on the workloads they apply to.  All but
    the ``rn-*`` share within the limit are simulated-clock values."""
    lat, sent = run.latencies(verdict)
    values = {"within_limit_share":
              sum(1 for x in lat if x <= spec.limit) / sent if sent else 0.0}
    if spec.driver == "sim":
        values["latency_p99_ms"] = stats.tail(lat)[0] * 1e3 if lat else 0.0
    if spec.churn_cycles:
        values["unavail_p50_ms"] = median_or_zero(run.unavailability()) * 1e3
        values["rejoin_p50_ms"] = median_or_zero(run.rejoin_s) * 1e3
    return {name: (value, SUITE_GATES[name][0])
            for name, value in values.items()}


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics from three instrumented passes
# ----------------------------------------------------------------------
def traced(spec: Workload, seed: int, seconds: float) -> dict:
    env = environment()
    phase = measured_phase_name(spec)
    part = seconds * TRACE_PASS_SHARE
    attempted = failed = 0

    def one(observer):
        nonlocal attempted, failed
        run, verdict = repetition(spec, seed, part, observer)
        a, f = tally(run, verdict)
        attempted += a
        failed += f
        return run, verdict

    counters = Counters(phase)
    plain, verdict = one(counters)
    try:
        base = plain.end_to_end(verdict)
        m = counter_metrics(spec, plain, counters)
        gated = suite_gated(spec, plain, verdict)
        lat, _sent = plain.latencies(verdict)
        tail = stats.tail(lat)[0] * 1e3 if lat else 0.0
        net = spec.driver == "net"
        known = {**base, **gated}
        for name in SUITE_GATES:   # 0 where the workload has no such value
            m[name] = known[name][0] if name in known else 0.0
        m["runtime.latency_p99_ms"] = tail if net else 0.0
        m["runtime.gen_late_p99_ms"] = gen_late_p99(plain) * 1e3 if net else 0.0
    finally:
        plain.close()

    profile = Profile(cost_phase_name(spec))
    profiled, verdict = one(profile)
    try:
        rows = profiled.slices.get(profile.phase, ())   # none when set-up failed
        sent = sum(row[1] for row in rows) or 1
        clock = sum(row[3] for row in rows) or 1.0
        busy = sum(row[0] for row in rows) or 1.0
        # Self times at reference speed, like the cost they decompose.
        speed = sum(row[0] / row[4] for row in rows) / busy
        self_s, calls = profile.by_layer()
        for layer in LAYER_NAMES:
            m[f"{layer}.self_us_per_mcast"] = self_s[layer] * speed / sent * 1e6
            m[f"{layer}.calls_per_mcast"] = calls[layer] / sent
        m["fd.self_us_per_sim_s"] = self_s["fd"] * speed / clock * 1e6
        m["profile.accounted_share"] = \
            sum(self_s.values()) / profile.cpu_s if profile.cpu_s else 0.0
        m["profile.overhead_ratio"] = ratio(
            profiled.end_to_end(verdict)["host_us_per_mcast"][0],
            base["host_us_per_mcast"][0])
    finally:
        profiled.close()

    spans = Spans(phase)
    spans.install()
    try:
        spanned, verdict = one(spans)
    finally:
        spans.remove()
    try:
        sent = spans.delta("mcasts") or 1
        m["msg.encode_calls_per_mcast"] = spans.delta("Message.encode") / sent
        m["msg.decode_calls_per_mcast"] = spans.delta("Message.decode") / sent
        m["net.fragments_per_mcast"] = spans.delta("fragments") / sent
        m["pipeline.stab_msgs_per_mcast"] = spans.delta("stab_msgs") / sent
        m["pipeline.buffered_peak_msgs"] = spans.buffered_peak
        m["fd.heartbeats_per_s"] = ratio(
            spans.delta("ProtocolsProcess._send_heartbeat"),
            spans.delta("clock"))
        detect = []
        for crashed_at, site in spanned.crashes:
            first = [t for t, s in spans.wedged_at
                     if t >= crashed_at and s != site]
            if first:
                detect.append(min(first) - crashed_at)
        m["fd.detect_p50_ms"] = median_or_zero(detect) * 1e3
        hops = spans.hops(spanned)
        m["span.submit_p50_us"] = hops["submit"] * 1e6
        m["span.transit_p50_ms"] = hops["transit"] * 1e3
        m["span.order_wait_p50_ms"] = hops["order_wait"] * 1e3
        m["span.handoff_p50_us"] = hops["handoff"] * 1e6
        m["trace.overhead_ratio"] = ratio(
            spanned.end_to_end(verdict)["host_us_per_mcast"][0],
            base["host_us_per_mcast"][0])
        dump = spans.dump(spanned)
        write_spans(spec, seed, dump)
        span_lat, _sent = spanned.latencies(verdict)
        extras = {
            "spans_sum_ms": (hops["submit"] + hops["transit"]
                             + hops["order_wait"] + hops["handoff"]) * 1e3,
            # The same pass's plain median, to check the decomposition.
            "spans_latency_p50_ms":
                stats.percentile(span_lat, 0.5) * 1e3 if span_lat else 0.0,
            "entry_points": dump["entry_points"],
        }
    finally:
        spanned.close()

    m["failed_share"] = failed / attempted
    units = {row["name"]: row["unit"] for row in contract()["per_layer"]}
    return {"env": env, "metrics": {k: (v, units[k]) for k, v in m.items()},
            "extras": extras, "attempted": attempted, "failed": failed,
            "names": list(units)}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def counter_metrics(spec: Workload, run: Run, c: Counters) -> dict:
    """Per-layer ratios from counters the program already keeps."""
    sim = spec.driver == "sim"
    sent = c.delta("n.mcasts") or 1
    abcasts = c.delta("n.abcasts")
    size = spec.group_size or spec.n_sites
    wire = c.delta("transport.bytes")
    if sim:
        frames = datagrams = c.delta("lan.frames")
        net_bytes = c.delta("lan.bytes")
    else:
        frames = c.delta("k.transport.frames_sent")
        datagrams = c.delta("k.transport.datagrams_sent")
        net_bytes = c.delta("k.transport.datagram_bytes_sent")
    changes = len(run.crashes) + len(run.rejoin_s)
    hits = c.delta("k.flush.fast_path_hits")
    delivered = c.delta("deliver.group")
    return {
        "msg.wire_bytes_per_mcast": wire / sent,
        "msg.overhead_ratio": wire / (sent * spec.payload * (size - 1)),
        "net.frames_per_mcast": frames / sent,
        "net.bytes_per_mcast": net_bytes / sent,
        "net.datagrams_per_mcast": datagrams / sent,
        "net.frames_per_datagram": ratio(frames, datagrams),
        "net.retransmits_per_kmcast":
            c.delta("transport.retransmits") * 1000 / sent,
        # The sim transport counts data frames only; UDP counts all.
        "net.acks_pure_share": ratio(
            c.delta("k.transport.acks_pure"),
            c.delta("k.transport.frames_sent")
            + (c.delta("k.transport.acks_pure") if sim else 0)),
        # Of the copies buffered by the end of the phase, the share that
        # stability had already reclaimed.
        "pipeline.trimmed_share": ratio(
            c.delta("k.trimmed_messages"),
            c.delta("k.trimmed_messages") + c.peak("k.buffered_messages")),
        "ordering.proto_msgs_per_abcast": ratio(
            c.delta("abcast.proposals") + c.delta("abcast.finals")
            + c.delta("abcast.seq_stamps"), abcasts),
        "ordering.refs_per_stamp": ratio(
            c.delta("abcast.stamped_refs") * (size - 1),
            c.delta("abcast.seq_stamps")),
        "ordering.causal_peak_pending": c.peak("k.causal.peak_pending"),
        "ordering.wait_index_peak": c.peak("k.wait_index.peak"),
        "flush.rounds_per_change": ratio(c.delta("flush.runs"), changes),
        "flush.wire_msgs_per_change": ratio(c.delta("flush.wire_msgs"), changes),
        "flush.wedged_ms_per_change": ratio(
            c.delta("k.flush.wedged_seconds") * 1e3,
            c.peak("n.steady_sites") * changes),
        "flush.fast_path_share": ratio(
            hits, hits + c.delta("k.flush.fast_path_misses")),
        "flush.refill_bytes_per_change":
            ratio(c.delta("flush.refill_bytes"), changes),
        # The program counts snapshot bytes only with a WAL; this is the
        # registered state the application encoded for its joiners.
        "transfer.bytes_per_join": ratio(c.delta("n.state_bytes"),
                                         len(run.rejoin_s)),
        "kernel.peak_groups_per_shard": c.peak("k.kernel.peak_groups_per_shard"),
        "kernel.stab_idle_skipped": c.delta("stab.idle_skipped"),
        "wal.appends_per_delivery": ratio(c.delta("wal.appends"), delivered),
        "wal.bytes_per_delivery": ratio(c.delta("wal.bytes"), delivered),
        "wal.checkpoints": c.delta("checkpoint.writes"),
        "sim.events_per_mcast":
            c.delta("sched.timers.scheduled") / sent if sim else 0.0,
        "runtime.timers_per_mcast":
            0.0 if sim else c.delta("sched.timers.fired") / sent,
    }


def write_spans(spec: Workload, seed: int, dump: dict) -> None:
    """Spans stay in memory during the run and land here at its end."""
    out = os.path.join(ROOT, "bench", "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"spans-{spec.name}-{seed}.json"), "w") as fh:
        json.dump(dump, fh)


# ----------------------------------------------------------------------
def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = BY_NAME[workload]
    result = (traced if trace else untraced)(spec, seed, seconds)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return result


def contract_line(result: dict) -> str:
    metrics = {name: {"value": result["metrics"][name][0],
                      "unit": result["metrics"][name][1]}
               for name in result["names"]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="print the whole result record (environment, "
                             "raw slices) as the last line instead of the "
                             "contract object")
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    env = result["env"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} sha={env['git_sha'][:12]} python={env['python']} "
          f"nproc={env['nproc']} loadavg={env['loadavg']:.2f}")
    # The contract's metrics first, then what only bench/compare.py gates.
    for name in result["names"] + [n for n in result["metrics"]
                                   if n not in result["names"]]:
        value, unit = result["metrics"][name]
        print(f"{name:34s} {value:16.6f} {unit}")
    for name, value in result["extras"].items():
        if isinstance(value, (bool, int, float)):
            print(f"  ({name} {value:.6g})")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps(result) if args.full else contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
