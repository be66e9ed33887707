"""Ablation A9 — membership availability: primary partition vs quorum.

(The two ordering engines are raced by ablation A3,
``bench_ablation_abcast.py``.)

Scripts the partition the membership seam exists for: a 5-site
deployment split 3|2, and a 4-site deployment split 2|2, each run under
``membership="primary"`` and ``membership="quorum"``.  Measured per
policy: ABCASTs committed by each component *during* the partition,
views installed, and whether the cluster reconverges after heal.  The
quorum policy must keep the majority committing (availability retained)
while wedging the minority; on the even split it must wedge *both*
sides, where the primary-partition rule lets the side holding the
previous view's oldest member go on (it split-brained while an exact
half needed no tie-break).

Results go to ``BENCH_ordering.json``.  Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_ablation_ordering.py -s

or standalone::

    PYTHONPATH=src python benchmarks/bench_ablation_ordering.py

``ORDERING_BENCH_SMOKE=1`` runs the CI smoke variant (short window) and
fails if the quorum majority fails to commit through the scripted
partition.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import pytest

from repro import IsisCluster, IsisConfig

from harness import SINK_ENTRY, deploy_group, print_table, run_one

SMOKE = os.environ.get("ORDERING_BENCH_SMOKE") == "1"
PARTITION_SECONDS = 10.0 if SMOKE else 40.0

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "BENCH_ordering.json")


def _availability_workload(membership: str, sites: int,
                           halves) -> Dict:
    """Partition ``halves`` for a window; count commits on each side."""
    system = IsisCluster(
        n_sites=sites, seed=313,
        isis_config=IsisConfig(membership=membership))
    members = deploy_group(system, list(range(sites)), name="avail")
    box = {}
    members[0].isis.pg_lookup("avail").add_done_callback(
        lambda p: box.__setitem__("gid", p.value))
    system.run_for(2.0)
    gid = box["gid"]

    stop = {"done": False}
    sent_by_side = [0, 0]

    def stream(member, side):
        while not stop["done"]:
            promise = yield member.isis.abcast(
                gid, SINK_ENTRY, payload=bytes(64))
            sent_by_side[side] += 1
            del promise

    delivered_before = [len(members[h[0]].delivered) for h in halves]
    system.cluster.lan.partition([list(h) for h in halves])
    for side, half in enumerate(halves):
        for site in half:
            members[site].process.spawn(
                stream(members[site], side), f"s{site}")
    system.run_for(PARTITION_SECONDS)
    stop["done"] = True
    delivered = [len(members[h[0]].delivered) - delivered_before[i]
                 for i, h in enumerate(halves)]
    views = [system.kernel(h[0]).agent.view for h in halves]
    committing = sum(1 for v in views if v is not None and v.view_id > 1)

    system.cluster.lan.heal()
    # Excluded sites take a few probe rounds to learn of the winning
    # chain and self-destruct; poll until the up-set agrees on a view.
    for _ in range(12):
        system.run_for(10.0)
        up = [s for s in range(sites) if system.cluster.site(s).up]
        view_ids = {system.kernel(s).agent.view.view_id for s in up}
        if len(view_ids) == 1:
            break
    return {
        "delivered_during_partition": delivered,
        "views_during_partition": [
            v.view_id if v else None for v in views],
        "committing_components": committing,
        "converged_after_heal": len(view_ids) == 1,
        "sites_up_after_heal": len(up),
    }


def ablation_workload() -> Dict:
    availability = {
        "majority_3_2": {
            m: _availability_workload(m, 5, [(0, 1, 2), (3, 4)])
            for m in ("primary", "quorum")
        },
        "even_split_2_2": {
            m: _availability_workload(m, 4, [(0, 1), (2, 3)])
            for m in ("primary", "quorum")
        },
    }
    rows = []
    for scenario, per_policy in availability.items():
        for policy, m in per_policy.items():
            rows.append((scenario, policy,
                         m["delivered_during_partition"],
                         m["committing_components"],
                         m["converged_after_heal"]))
    print_table(
        f"Membership availability, {PARTITION_SECONDS:.0f}s partition",
        ["scenario", "policy", "delivered (per side)",
         "committing components", "reconverged"],
        rows,
    )

    quorum_majority = availability["majority_3_2"]["quorum"]
    primary_split = availability["even_split_2_2"]["primary"]
    quorum_split = availability["even_split_2_2"]["quorum"]
    print(f"\nquorum majority committed "
          f"{quorum_majority['delivered_during_partition'][0]} ABCASTs "
          f"through the partition; even split: "
          f"primary {primary_split['committing_components']} committing "
          f"components, quorum {quorum_split['committing_components']}")

    metrics = {
        "abl9:quorum_majority_committed":
            quorum_majority["delivered_during_partition"][0],
        "abl9:quorum_minority_committed":
            quorum_majority["delivered_during_partition"][1],
        "abl9:primary_split_components":
            primary_split["committing_components"],
        "abl9:quorum_split_components":
            quorum_split["committing_components"],
    }
    if SMOKE:
        # Short-window runs (CI smoke) must not clobber the canonical
        # results recorded in BENCH_ordering.json.
        return metrics
    with open(_RESULTS_PATH, "w") as fh:
        json.dump({
            "workload": {"partition_seconds": PARTITION_SECONDS},
            "availability": availability,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return metrics


@pytest.mark.benchmark(group="ablation")
def test_ordering_ablation(benchmark):
    metrics = run_one(benchmark, ablation_workload)
    # The quorum majority commits *through* the partition; the minority
    # commits nothing; an even split never split-brains under quorum,
    # and leaves one committing component under the primary rule.
    assert metrics["abl9:quorum_majority_committed"] > 0
    assert metrics["abl9:quorum_minority_committed"] == 0
    assert metrics["abl9:quorum_split_components"] == 0
    assert metrics["abl9:primary_split_components"] == 1


if __name__ == "__main__":
    ablation_workload()
    print(f"\nresults written to {os.path.abspath(_RESULTS_PATH)}")
