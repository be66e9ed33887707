"""Ablation A6 — crash-recovery runtime: WAL cost and rejoin payoff.

``IsisConfig.durability`` adds a write-ahead delivery log (checksummed,
checkpointed, two-generation truncated) to every member site.  This
ablation measures what it costs and what it buys:

* ``hot_path`` — the same multicast workload with the WAL on vs off:
  log appends, bytes written, checkpoints taken, and the wall-clock
  overhead of running the hooks.  (Simulated timings are identical by
  construction — durability is trajectory-neutral — so the honest cost
  axis is host CPU and disk traffic.)
* ``replay`` — crash a member after N deliveries and restart it, at
  several checkpoint intervals: how much of the log must be replayed,
  and how does the checkpoint cadence trade log length against
  checkpoint writes?
* ``rejoin`` — a member with a large application snapshot crashes and
  rejoins promptly.  With a WAL position to offer, the transfer source
  ships only the missed log suffix; without one it ships the full
  snapshot.  The headline: suffix bytes vs snapshot bytes on the wire.

Results go to ``BENCH_recovery.json``.

Run standalone or under pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_ablation_recovery.py

``RECOVERY_BENCH_SMOKE=1`` runs the CI smoke variant (rejoin scenario
only) and fails if the log-assisted transfer does not undercut the full
snapshot.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict

import pytest

from repro import IsisCluster, IsisConfig
from repro.runtime.stable import StorageFaults

from harness import print_table, run_one

SINK_ENTRY = 17
SMOKE = os.environ.get("RECOVERY_BENCH_SMOKE") == "1"

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_recovery.json")


def _config(durable: bool, checkpoint_every: int = 200) -> IsisConfig:
    return IsisConfig(durability=durable,
                      wal_checkpoint_every=checkpoint_every)


def _build(sites: int, seed: int, config: IsisConfig,
           state_bytes: int = 0, faults: StorageFaults = None):
    system = IsisCluster(n_sites=sites, seed=seed, isis_config=config,
                         storage_faults=faults)
    members = {}
    counts = {}
    blob = "s" * state_bytes

    def attach(site):
        proc, isis = system.spawn(site, f"m{site}")
        counts[site] = counts.get(site, 0)
        state = {"blob": blob}

        def encode():
            return [json.dumps({"n": counts[site],
                                "blob": state["blob"]}).encode()]

        def decode(blocks):
            if blocks:
                got = json.loads(blocks[0])
                counts[site] = got["n"]
                state["blob"] = got["blob"]

        proc.xfer_segments["state"] = (encode, decode)

        def on_sink(msg, site=site):
            counts[site] += 1

        proc.bind(SINK_ENTRY, on_sink)
        members[site] = (proc, isis)
        return proc, isis

    for site in range(sites):
        attach(site)
    system.run_for(3.0)
    box = {}
    members[0][1].pg_create("rec").add_done_callback(
        lambda p: box.__setitem__("gid", p.value))
    system.run_for(5.0)
    for site in range(1, sites):
        members[site][1].pg_join(box["gid"])
        system.run_for(5.0)
    return system, members, counts, box["gid"], attach


def _traffic(system, members, gid, n: int, gap: float = 0.5) -> None:
    senders = sorted(s for s, (p, _h) in members.items() if p.alive)
    for i in range(n):
        site = senders[i % len(senders)]
        members[site][1].bcast(gid, SINK_ENTRY, 0,
                               "abcast" if i % 2 else "cbcast", i=i)
        system.run_for(gap)


def hot_path(deliveries: int) -> Dict:
    """WAL on vs off on an identical workload: what do the hooks cost?"""
    out = {}
    for label, durable in (("wal_on", True), ("wal_off", False)):
        started = time.perf_counter()
        system, members, counts, gid, _ = _build(4, seed=601,
                                                 config=_config(durable))
        _traffic(system, members, gid, deliveries)
        system.run_for(20.0)
        elapsed = time.perf_counter() - started
        stats = system.kernel(0).stats()
        assert all(c == deliveries for c in counts.values()), counts
        out[label] = {
            "host_seconds": round(elapsed, 3),
            "wal_appends": stats["wal.appends"],
            "wal_bytes": stats["wal.bytes"],
            "checkpoint_writes": stats["checkpoint.writes"],
            "checkpoint_bytes": stats["checkpoint.bytes"],
            "wal_truncations": stats["wal.truncations"],
        }
    on, off = out["wal_on"], out["wal_off"]
    out["overhead_ratio"] = round(
        on["host_seconds"] / max(off["host_seconds"], 1e-9), 3)
    out["bytes_per_delivery"] = round(
        on["wal_bytes"] / max(deliveries, 1), 1)
    return out


def replay(deliveries: int, checkpoint_every: int) -> Dict:
    """Crash after N deliveries; how much log does the restart replay?"""
    system, members, counts, gid, attach = _build(
        3, seed=602, config=_config(True, checkpoint_every),
        faults=StorageFaults(torn_tail_prob=0.25, seed=6))
    _traffic(system, members, gid, deliveries)
    system.run_for(15.0)
    system.crash_site(2)
    system.run_for(5.0)
    restart_at = system.now
    system.restart_site(2)
    system.run_for(2.0)
    proc, _isis = attach(2)
    kernel = system.kernel(2)
    kernel.wal.replay_to(gid, proc)
    members[2][1].pg_join_by_name("rec")
    for _ in range(40):
        if counts[2] >= deliveries:
            break
        system.run_for(2.0)
    stats = kernel.stats()
    return {
        "checkpoint_every": checkpoint_every,
        "deliveries": deliveries,
        "replayed": stats["wal.replayed"],
        "recovered_count": counts[2],
        "rejoin_seconds": round(system.now - restart_at, 3),
        "checkpoint_writes": stats["checkpoint.writes"],
        "log_records_on_disk": sum(
            len(kernel.site.stable.read_log(name))
            for name in kernel.site.stable.log_names("wal/g/")),
    }


def rejoin(state_bytes: int) -> Dict:
    """Log-assisted vs full-snapshot transfer for a prompt rejoin."""
    system, members, counts, gid, attach = _build(
        4, seed=603, config=_config(True, checkpoint_every=0),
        state_bytes=state_bytes)
    _traffic(system, members, gid, 24)
    system.run_for(15.0)
    system.crash_site(3)
    system.run_for(5.0)
    _traffic(system, {s: m for s, m in members.items() if s != 3},
             gid, 12)
    system.run_for(10.0)
    system.restart_site(3)
    system.run_for(2.0)
    proc, isis = attach(3)
    system.kernel(3).wal.replay_to(gid, proc)
    isis.pg_join_by_name("rec")
    system.run_for(30.0)
    trace = system.sim.trace
    assert trace.value("transfer.log_assisted") >= 1, (
        "log-assisted transfer never fired — rejoin fell back to the "
        "snapshot; the retention window or hint path is broken")
    reference = max(counts[s] for s in (0, 1, 2))
    assert counts[3] == reference, (counts, "rejoiner diverged")
    suffix_bytes = trace.value("transfer.suffix_bytes")
    snapshot_bytes = trace.value("transfer.snapshot_bytes")
    return {
        "state_bytes": state_bytes,
        "suffix_bytes": suffix_bytes,
        "snapshot_bytes": snapshot_bytes,
        "bytes_saved": trace.value("transfer.log_assisted_bytes_saved"),
        "saving_ratio": round(
            1 - suffix_bytes / max(snapshot_bytes, 1), 4),
        "log_assisted_transfers": trace.value("transfer.log_assisted"),
    }


def ablation_workload() -> Dict[str, float]:
    results: Dict[str, Dict] = {}

    snap_sizes = [16 << 10] if SMOKE else [16 << 10, 256 << 10]
    for size in snap_sizes:
        results[f"rejoin:{size >> 10}KB"] = rejoin(size)

    if not SMOKE:
        results["hot_path"] = hot_path(deliveries=60)
        for every in (10, 50, 200):
            results[f"replay:ck{every}"] = replay(
                deliveries=40, checkpoint_every=every)

    rows = []
    for size in snap_sizes:
        m = results[f"rejoin:{size >> 10}KB"]
        rows.append([f"{size >> 10}KB", m["snapshot_bytes"],
                     m["suffix_bytes"], f"{100 * m['saving_ratio']:.1f}%"])
    print_table("log-assisted rejoin vs full snapshot",
                ["state", "snapshot B", "suffix B", "saved"], rows)

    metrics: Dict[str, float] = {}
    for size in snap_sizes:
        m = results[f"rejoin:{size >> 10}KB"]
        metrics[f"abl6:rejoin_{size >> 10}KB_saving"] = m["saving_ratio"]
    if not SMOKE:
        hp = results["hot_path"]
        print(f"\nWAL hot path: {hp['bytes_per_delivery']}B logged per "
              f"delivery, host overhead x{hp['overhead_ratio']:.2f}")
        rows = [[m["checkpoint_every"], m["replayed"],
                 m["log_records_on_disk"], m["checkpoint_writes"],
                 m["rejoin_seconds"]]
                for m in (results[f"replay:ck{e}"] for e in (10, 50, 200))]
        print_table("replay vs checkpoint cadence",
                    ["ck every", "replayed", "log recs", "ck writes",
                     "rejoin s"], rows)
        metrics["abl6:hot_overhead"] = hp["overhead_ratio"]
        metrics["abl6:bytes_per_delivery"] = hp["bytes_per_delivery"]
        with open(_RESULTS_PATH, "w") as fh:
            json.dump({
                "workload": {
                    "snapshot_sizes": snap_sizes,
                    "hot_path_deliveries": 60,
                    "replay_checkpoint_intervals": [10, 50, 200],
                },
                "configs": results,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return metrics


@pytest.mark.benchmark(group="ablation")
def test_recovery_ablation(benchmark):
    metrics = run_one(benchmark, ablation_workload)
    for size_kb in (16,) if SMOKE else (16, 256):
        key = f"abl6:rejoin_{size_kb}KB_saving"
        # CI gate: shipping the log suffix must beat re-shipping the
        # full snapshot, else log-assisted transfer is pure overhead.
        assert metrics[key] > 0.0, (
            f"log-assisted rejoin used >= full-snapshot bytes ({key})")
    if not SMOKE:
        # The bigger the snapshot, the bigger the relative saving.
        assert metrics["abl6:rejoin_256KB_saving"] \
            >= metrics["abl6:rejoin_16KB_saving"]


if __name__ == "__main__":
    ablation_workload()
    if not SMOKE:
        print(f"\nresults written to {os.path.abspath(_RESULTS_PATH)}")
