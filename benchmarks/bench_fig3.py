"""Figure 3 — breakdown of ABCAST execution time.

The paper: *"The link delays shown are for a single traversal of the
link: 10 ms to traverse a link within a site, and 16 ms to send an
inter-site packet.  Thus the latency before an ABCAST delivery occurs at
a remote destination is 70 ms — 3 inter-site messages are sent."*

The benchmark times a member's ABCAST from the moment its task invokes
the primitive to the moment the remote member's process receives the
delivery, then decomposes it against the architectural constants:

* 2 intra-site hops (caller → protocols process, remote protocols
  process → destination process): 2 × 10 ms;
* 3 inter-site messages (dissemination, priority proposal, final
  priority): 3 × 16 ms;
* the remainder is CPU / protocol processing.
"""

from __future__ import annotations

import pytest

from repro import IsisCluster
from repro.net.lan import INTER_SITE_DELAY, INTRA_SITE_DELAY

from harness import deploy_group, print_table, run_one

SINK = 17
PAPER_REMOTE_LATENCY_MS = 70.0


def fig3_workload():
    system = IsisCluster(n_sites=2, seed=500)
    members = deploy_group(system, [0, 1], name="fig3")
    sender = members[0]
    remote = members[1]
    deliveries = []
    remote.process.bind(SINK, lambda msg: deliveries.append(
        (system.now, msg["k"])))
    send_times = {}

    def blast():
        gid = yield sender.isis.pg_lookup("fig3")
        for k in range(20):
            send_times[k] = system.now
            yield sender.isis.abcast(gid, SINK, payload=bytes(100), k=k)

    sender.process.spawn(blast(), "blast")
    system.run_for(120.0)
    latencies = sorted(
        (t - send_times[k]) * 1000 for t, k in deliveries if k in send_times
    )
    median = latencies[len(latencies) // 2]
    intra_ms = 2 * INTRA_SITE_DELAY * 1000
    inter_ms = 3 * INTER_SITE_DELAY * 1000
    cpu_ms = median - intra_ms - inter_ms
    rows = [
        ("intra-site hops (2 × 10 ms)", f"{intra_ms:.1f}"),
        ("inter-site messages (3 × 16 ms)", f"{inter_ms:.1f}"),
        ("CPU / protocol processing", f"{cpu_ms:.1f}"),
        ("TOTAL remote-delivery latency", f"{median:.1f}"),
        ("paper (Figure 3)", f"{PAPER_REMOTE_LATENCY_MS:.1f}"),
    ]
    print_table("Figure 3 — ABCAST remote-delivery breakdown (ms, median "
                "of 20)", ["component", "ms"], rows)
    return {
        "fig3:remote_latency_ms": round(median, 1),
        "fig3:intra_ms": intra_ms,
        "fig3:inter_ms": inter_ms,
        "fig3:cpu_ms": round(cpu_ms, 1),
        "fig3:samples": len(latencies),
    }


@pytest.mark.benchmark(group="fig3")
def test_fig3_abcast_breakdown(benchmark):
    metrics = run_one(benchmark, fig3_workload)
    assert metrics["fig3:samples"] == 20
    latency = metrics["fig3:remote_latency_ms"]
    # The paper reports ~70 ms; the dominant terms are the same three
    # inter-site messages and two intra-site hops, so we must land close.
    assert 55.0 <= latency <= 90.0, f"remote delivery {latency} ms"
    # Link delays, not CPU, dominate (the figure's visual point).
    assert metrics["fig3:cpu_ms"] < metrics["fig3:inter_ms"]
