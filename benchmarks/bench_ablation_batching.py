"""Ablation A2 — envelope batching + piggybacked stability.

The paper's performance story (Figures 2/3, Table I) rests on amortizing
protocol overhead.  This ablation measures the two wire-level
optimizations of the delivery pipeline on a 4-site CBCAST workload:

* **envelope batching** (``IsisConfig.batch_window``) — a group's data
  envelopes coalesce into one ``g.batch`` wire message;
* **piggybacked stability** (``IsisConfig.piggyback_stability``) — have
  vectors ride on data/ack envelopes so buffers trim continuously
  instead of waiting for the periodic ``g.stab.*`` round.

Reported per configuration: messages delivered in the measurement
window, throughput, inter-site wire frames, sender CPU utilization, and
buffer GC progress.  Results are also written to ``BENCH_batching.json``
at the repository root.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_batching.py -s

or standalone::

    PYTHONPATH=src python benchmarks/bench_ablation_batching.py
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro import IsisCluster, IsisConfig

from harness import SINK_ENTRY, deploy_group, print_table, run_one

SITES = 4
STREAMS_PER_SITE = 6
PAYLOAD = 200
MEASURE_SECONDS = 30.0
DRAIN_SECONDS = 10.0
BATCH_WINDOW = 0.010

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_batching.json")


def _stream_workload(batch_window: float, piggyback: bool) -> Dict:
    """All sites stream async CBCASTs; returns wire/throughput metrics."""
    config = IsisConfig(batch_window=batch_window,
                        piggyback_stability=piggyback)
    system = IsisCluster(n_sites=SITES, seed=4242, isis_config=config)
    members = deploy_group(system, list(range(SITES)), name="abl2")
    stop = {"done": False}
    sent = {"n": 0}

    def stream(member):
        gid = yield member.isis.pg_lookup("abl2")
        while not stop["done"]:
            yield member.isis.cbcast(gid, SINK_ENTRY, payload=bytes(PAYLOAD))
            sent["n"] += 1

    for member in members:
        for i in range(STREAMS_PER_SITE):
            member.process.spawn(stream(member), f"stream{i}")
    frames_before = system.sim.trace.value("lan.frames.inter")
    meter = system.site(0).cpu.meter()
    start = system.now
    system.run_for(MEASURE_SECONDS)
    elapsed = system.now - start
    msgs = sent["n"]
    frames = system.sim.trace.value("lan.frames.inter") - frames_before
    cpu = meter.utilization()
    # Let in-flight traffic settle, then check buffer GC kept up.
    stop["done"] = True
    system.run_for(DRAIN_SECONDS)
    stats = system.kernel(0).stats()
    return {
        "msgs": msgs,
        "msgs_per_sec": msgs / elapsed,
        "wire_frames": frames,
        "frames_per_msg": frames / max(msgs, 1),
        "cpu_utilization": cpu,
        "batches_sent": stats["batches_sent"],
        "envelopes_batched": stats["envelopes_batched"],
        "trimmed_messages": stats["trimmed_messages"],
        "buffered_after_drain": stats["buffered_messages"],
    }


def ablation_workload() -> Dict:
    off = _stream_workload(batch_window=0.0, piggyback=False)
    on = _stream_workload(batch_window=BATCH_WINDOW, piggyback=True)
    frame_savings = 1.0 - on["wire_frames"] / max(off["wire_frames"], 1)
    speedup = on["msgs_per_sec"] / max(off["msgs_per_sec"], 1e-9)

    def row(name, m):
        return (name, m["msgs"], f"{m['msgs_per_sec']:,.0f}",
                m["wire_frames"], f"{m['frames_per_msg']:.2f}",
                f"{m['cpu_utilization']:.2f}", m["trimmed_messages"])

    print_table(
        f"Ablation A2 — envelope batching + piggybacked stability, "
        f"{SITES}-site group, {PAYLOAD} B CBCASTs",
        ["config", "msgs/30s", "msgs/s", "wire frames", "frames/msg",
         "site-0 CPU", "trimmed"],
        [
            row("batching off", off),
            row(f"batching {BATCH_WINDOW * 1000:.0f} ms window", on),
            ("savings", "", f"{speedup:.2f}x",
             f"-{frame_savings:.0%}", "", "", ""),
        ],
    )
    metrics = {
        "abl2:msgs_off": off["msgs"],
        "abl2:msgs_on": on["msgs"],
        "abl2:tput_off": round(off["msgs_per_sec"], 1),
        "abl2:tput_on": round(on["msgs_per_sec"], 1),
        "abl2:frames_off": off["wire_frames"],
        "abl2:frames_on": on["wire_frames"],
        "abl2:frame_savings": round(frame_savings, 3),
        "abl2:speedup": round(speedup, 2),
        "abl2:cpu_off": round(off["cpu_utilization"], 3),
        "abl2:cpu_on": round(on["cpu_utilization"], 3),
        "abl2:trimmed_off": off["trimmed_messages"],
        "abl2:trimmed_on": on["trimmed_messages"],
        "abl2:buffered_after_drain_on": on["buffered_after_drain"],
    }
    with open(_RESULTS_PATH, "w") as fh:
        json.dump({
            "workload": {
                "sites": SITES,
                "streams_per_site": STREAMS_PER_SITE,
                "payload_bytes": PAYLOAD,
                "measure_seconds": MEASURE_SECONDS,
                "batch_window": BATCH_WINDOW,
            },
            "batching_off": off,
            "batching_on": on,
            "frame_savings": round(frame_savings, 3),
            "throughput_speedup": round(speedup, 2),
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


@pytest.mark.benchmark(group="ablation")
def test_batching_ablation(benchmark):
    metrics = run_one(benchmark, ablation_workload)
    # Acceptance: >= 25% fewer wire frames and no throughput regression.
    assert metrics["abl2:frame_savings"] >= 0.25
    assert metrics["abl2:tput_on"] >= metrics["abl2:tput_off"]
    # Piggybacked stability must actually garbage-collect the buffers.
    assert metrics["abl2:trimmed_on"] > 0
    assert metrics["abl2:buffered_after_drain_on"] == 0


if __name__ == "__main__":
    ablation_workload()
    print(f"\nresults written to {os.path.abspath(_RESULTS_PATH)}")
