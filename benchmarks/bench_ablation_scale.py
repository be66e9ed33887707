"""Ablation A6 — hierarchical (tree) dissemination vs flat broadcast.

``IsisConfig.dissemination = "tree"`` attacks the scale-out wall past 32
sites: with flat dissemination every multicast origin pays O(n) wire
sends and every site's stability announcements broadcast to all n-1
peers, so per-site wire load grows linearly with the view and the
busiest site (origin or sequencer) becomes the bottleneck.  Tree mode
relays envelopes, sequencer stamps, and stability traffic along a
deterministic k-ary spanning tree of the view: every site's
dissemination cost is bounded by ``tree_fanout`` and stability
aggregates up the tree (O(fanout) frames per site per round).  The
flush stays flat in both modes.

Workload per (n, mode) configuration — one group spanning all n sites:

* **join** — concurrent mass join of n-1 sites (view rounds batch);
* **burst** — 4 origins send paced CBCAST/ABCAST (sequencer mode);
  headline metric: *peak over sites* of wire frames sent, divided by
  the number of multicasts (``msgs/site/multicast``) — the per-site
  load that caps cluster size;
* **quiet** — a fixed window with no application traffic: stability
  convergence cost (``stability frames/site``, peak over sites);
* **leave** — one member leaves (reason-driven flush, no detection
  delay): flush wire bytes for a full view change at size n.

The failure detector is stopped at every kernel when the cluster boots:
probe traffic is O(n) per site per interval in both modes and nothing
fails in this workload, so leaving it on would swamp the stability
metric with heartbeat frames.  Results go to ``BENCH_scale.json``.

Run standalone or under pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_ablation_scale.py

``SCALE_BENCH_SMOKE=1`` runs the CI smoke variant (64 sites only) and
fails if tree mode's msgs/site/multicast is not *below* flat mode's.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import pytest

from repro import IsisCluster, IsisConfig
from repro.sim.tasks import sleep

from harness import print_table, run_one

SINK_ENTRY = 17
SMOKE = os.environ.get("SCALE_BENCH_SMOKE") == "1"

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_scale.json")

BURST_SENDERS = 4
BURST_PER_SENDER = 8
QUIET_WINDOW = 10.0


def _config(dissemination: str) -> IsisConfig:
    return IsisConfig(
        dissemination=dissemination,
        tree_fanout=8,
        abcast_mode="sequencer",   # the scale-friendly ordering mode
    )


def _peak_delta(lan, base: Dict[int, int], n: int) -> int:
    """Peak over sites of frames sent since ``base`` was snapshotted."""
    return max(lan.frames_by_site.get(s, 0) - base.get(s, 0)
               for s in range(n))


def scale_run(n: int, dissemination: str) -> Dict:
    system = IsisCluster(n_sites=n, seed=601,
                         isis_config=_config(dissemination))
    # Nothing dies in this workload: no probe traffic in any window.
    for site in range(n):
        system.kernel(site).heartbeat.stop()
    members = []
    for site in range(n):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(SINK_ENTRY, lambda msg: None)
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("scale")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)

    # -- concurrent mass join: view rounds batch admissions ------------
    joined: List[int] = []
    for i in range(1, n):
        def join(isis=members[i][1], i=i):
            gid = yield isis.pg_lookup("scale")
            yield isis.pg_join(gid)
            joined.append(i)

        members[i][0].spawn(join(), f"j{i}")
    system.run_for(120.0)
    grace = 0
    while len(joined) < n - 1 and grace < 20:
        system.run_for(60.0)
        grace += 1
    assert len(joined) == n - 1, f"only {len(joined)}/{n - 1} joins done"

    lan = system.cluster.lan
    trace = system.sim.trace

    # -- multicast burst: peak per-site wire frames per multicast ------
    base = dict(lan.frames_by_site)
    n_multicasts = BURST_SENDERS * BURST_PER_SENDER
    for idx in range(BURST_SENDERS):
        proc, isis = members[idx]

        def gen(isis=isis, idx=idx):
            gid = yield isis.pg_lookup("scale")
            for i in range(BURST_PER_SENDER):
                kind = "abcast" if i % 2 else "cbcast"
                yield isis.bcast(gid, SINK_ENTRY, kind=kind,
                                 tag=f"{idx}:{i}")
                yield sleep(system.sim, 0.2)

        proc.spawn(gen(), f"burst{idx}")
    system.run_for(BURST_PER_SENDER * 0.2 + 5.0)
    burst_peak = _peak_delta(lan, base, n)

    # -- quiet window: stability convergence traffic -------------------
    base = dict(lan.frames_by_site)
    system.run_for(QUIET_WINDOW)
    quiet_peak = _peak_delta(lan, base, n)

    # -- one leave: flush wire bytes for a view change at size n -------
    flush_bytes_before = trace.value("flush.wire_bytes")
    leaver = members[n // 2]

    def leave():
        gid = yield leaver[1].pg_lookup("scale")
        yield leaver[1].pg_leave(gid)

    leaver[0].spawn(leave(), "leave")
    view = None
    for _ in range(15):  # larger views flush slower; poll to completion
        system.run_for(8.0)
        view = None
        for engine in system.kernel(0).engines.values():
            if engine.installed and engine.view is not None:
                view = engine.view
        if view is not None and len(view.members) == n - 1:
            break
    flush_bytes = trace.value("flush.wire_bytes") - flush_bytes_before
    assert view is not None and len(view.members) == n - 1, (
        "leave flush did not complete")

    stats = system.kernel(0).stats()
    return {
        "msgs_per_site_per_multicast": round(burst_peak / n_multicasts, 2),
        "stability_frames_per_site": quiet_peak,
        "flush_wire_bytes": flush_bytes,
        "tree_depth": stats["tree.depth"],
        "tree_relayed": trace.value("tree.relayed"),
        "tree_dup_drops": trace.value("tree.dup_drops"),
        "stab_up_sent": trace.value("stab.up_sent"),
        "stab_dn_sent": trace.value("stab.dn_sent"),
        "peak_groups_per_shard": stats["kernel.peak_groups_per_shard"],
        "total_frames": trace.value("lan.frames"),
    }


def ablation_workload() -> Dict:
    site_counts = [64] if SMOKE else [64, 128, 256]
    results: Dict[str, Dict] = {}
    for n in site_counts:
        for dissemination in ("tree", "flat"):
            results[f"{dissemination}:{n}s"] = scale_run(n, dissemination)

    rows = [
        (key,
         m["msgs_per_site_per_multicast"],
         m["stability_frames_per_site"],
         m["flush_wire_bytes"],
         m["tree_depth"] or "-")
        for key, m in results.items()
    ]
    print_table(
        "Ablation A6 — tree vs flat dissemination (peak per-site load)",
        ["config", "msgs/site/mcast", "stab frames/site",
         "flush bytes", "depth"],
        rows,
    )

    metrics: Dict[str, float] = {}
    for key, m in results.items():
        metrics[f"abl6:{key}:msgs_per_mcast"] = \
            m["msgs_per_site_per_multicast"]
        metrics[f"abl6:{key}:stab_frames"] = m["stability_frames_per_site"]

    mid = 128 if 128 in site_counts else site_counts[0]
    mcast_reduction = (results[f"flat:{mid}s"]["msgs_per_site_per_multicast"]
                       / max(results[f"tree:{mid}s"]
                             ["msgs_per_site_per_multicast"], 1e-9))
    stab_reduction = (results[f"flat:{mid}s"]["stability_frames_per_site"]
                      / max(results[f"tree:{mid}s"]
                            ["stability_frames_per_site"], 1))
    metrics["abl6:mcast_reduction"] = round(mcast_reduction, 2)
    metrics["abl6:stab_reduction"] = round(stab_reduction, 2)
    print(f"\n{mid} sites: tree mode {mcast_reduction:.1f}x lower peak "
          f"msgs/site/multicast, {stab_reduction:.1f}x lower stability "
          f"frames/site than flat")

    if not SMOKE:
        lo, hi = site_counts[0], site_counts[-1]
        scale_factor = hi / lo
        mcast_growth = (results[f"tree:{hi}s"]["msgs_per_site_per_multicast"]
                        / max(results[f"tree:{lo}s"]
                              ["msgs_per_site_per_multicast"], 1e-9))
        stab_growth = (results[f"tree:{hi}s"]["stability_frames_per_site"]
                       / max(results[f"tree:{lo}s"]
                             ["stability_frames_per_site"], 1))
        metrics["abl6:tree_mcast_growth"] = round(mcast_growth, 2)
        metrics["abl6:tree_stab_growth"] = round(stab_growth, 2)
        print(f"tree growth {lo} -> {hi} sites (n x{scale_factor:.0f}): "
              f"msgs/site/multicast x{mcast_growth:.2f}, stability "
              f"frames/site x{stab_growth:.2f}")
        with open(_RESULTS_PATH, "w") as fh:
            json.dump({
                "workload": {
                    "site_counts": site_counts,
                    "tree_fanout": 8,
                    "burst_multicasts": BURST_SENDERS * BURST_PER_SENDER,
                    "quiet_window_seconds": QUIET_WINDOW,
                },
                "configs": results,
                "mcast_reduction_128site": round(mcast_reduction, 2),
                "stab_reduction_128site": round(stab_reduction, 2),
                "tree_mcast_growth_64_to_256": round(mcast_growth, 2),
                "tree_stab_growth_64_to_256": round(stab_growth, 2),
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return metrics


@pytest.mark.benchmark(group="ablation")
def test_scale_ablation(benchmark):
    metrics = run_one(benchmark, ablation_workload)
    if SMOKE:
        # CI gate: tree must beat flat on peak per-site multicast load.
        assert metrics["abl6:mcast_reduction"] > 1.0
        return
    # Acceptance: >= 2x reduction vs flat at 128 sites, and sublinear
    # growth for tree mode from 64 to 256 sites (n grows 4x — per-site
    # load must grow strictly slower).
    assert metrics["abl6:mcast_reduction"] >= 2.0
    assert metrics["abl6:stab_reduction"] >= 2.0
    assert metrics["abl6:tree_mcast_growth"] < 4.0
    assert metrics["abl6:tree_stab_growth"] < 4.0


if __name__ == "__main__":
    ablation_workload()
    if not SMOKE:
        print(f"\nresults written to {os.path.abspath(_RESULTS_PATH)}")
