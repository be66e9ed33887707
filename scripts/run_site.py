#!/usr/bin/env python
"""One ISIS site as one OS process on the asyncio/UDP driver.

Boots a :class:`repro.runtime.asyncio_driver.AsyncioRuntime` hosting a
single site, runs genesis against the deterministic endpoint plan
(site *i* at ``base_port + 2i`` UDP / ``base_port + 2i + 1`` TCP on
``--host``), joins the benchmark group and drives the requested
workload.  On completion — or on SIGTERM — it writes a JSON report
(delivered-set digest, throughput, latency samples, transport counters)
to ``--out`` and exits 0.

Spawned by ``scripts/run_cluster.py``; not used by the simulator path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core.kernel import IsisConfig  # noqa: E402
from repro.net.udp import UdpFaults  # noqa: E402
from repro.runtime.asyncio_driver import AsyncioCluster  # noqa: E402
from repro.sim.tasks import sleep as tasks_sleep  # noqa: E402

GROUP_NAME = "bench"
SINK_ENTRY = 17


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--site-id", type=int, required=True)
    parser.add_argument("--n-sites", type=int, required=True)
    parser.add_argument("--base-port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--hosts", default=None,
                        help="per-site address overrides, e.g. "
                             "'0=10.0.0.1,2=10.0.0.3' (multi-machine runs; "
                             "unlisted sites stay on --host)")
    parser.add_argument("--loss-rate", type=float, default=0.0,
                        help="inject datagram loss at this probability "
                             "(lossy smoke; retransmits must recover)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default="cbcast",
                        choices=["idle", "cbcast", "abcast", "mixed"])
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds of load generation")
    parser.add_argument("--payload-bytes", type=int, default=64)
    parser.add_argument("--inflight", type=int, default=8,
                        help="max multicasts in flight per sender")
    parser.add_argument("--abcast-mode", default="sequencer",
                        choices=["sequencer", "two_phase"])
    parser.add_argument("--join-timeout", type=float, default=15.0)
    parser.add_argument("--drain", type=float, default=1.0,
                        help="quiet seconds after load before reporting")
    parser.add_argument("--out", default=None,
                        help="JSON report path (default: stdout)")
    return parser.parse_args(argv)


def parse_hosts(spec):
    """``'0=10.0.0.1,2=10.0.0.3'`` -> ``{0: '10.0.0.1', 2: '10.0.0.3'}``."""
    if not spec:
        return None
    hosts = {}
    for item in spec.split(","):
        sid, _, host = item.partition("=")
        if not _ or not host:
            raise SystemExit(f"bad --hosts entry {item!r} (want sid=host)")
        hosts[int(sid)] = host
    return hosts


def main(argv=None) -> int:
    args = parse_args(argv)
    isis_config = IsisConfig(abcast_mode=args.abcast_mode)
    cluster = AsyncioCluster(
        n_sites=args.n_sites,
        seed=args.seed,
        isis_config=isis_config,
        udp_faults=UdpFaults(loss_rate=args.loss_rate),
        host=args.host,
        base_port=args.base_port,
        hosts=parse_hosts(args.hosts),
        local_sites=[args.site_id],  # peers live in sibling processes
        boot=False,
    )
    stopping = {"flag": False}

    def on_sigterm(_signum, _frame):
        stopping["flag"] = True

    signal.signal(signal.SIGTERM, on_sigterm)
    signal.signal(signal.SIGINT, on_sigterm)

    # Genesis names every site in the deployment, incarnation 0 — the
    # launcher starts all n processes together.
    cluster.boot(genesis_members=[(i, 0) for i in range(args.n_sites)])

    delivered = []          # (origin, seq, kind)
    latencies = []          # wall-clock seconds, sender timestamp embedded
    own_delivered = {"n": 0}
    per_origin = {}         # origin -> delivered count
    eof_counts = {}         # origin -> announced final count
    span = {"first": None, "last": None}  # active delivery window
    process, isis = cluster.spawn(args.site_id, f"bench{args.site_id}")

    def on_sink(msg):
        origin = msg["origin"]
        if msg["k"] == "eof":
            eof_counts[origin] = msg["i"]
            return
        delivered.append((origin, msg["i"], msg["k"]))
        per_origin[origin] = per_origin.get(origin, 0) + 1
        now = time.time()
        latencies.append(now - msg["t"])
        if span["first"] is None:
            span["first"] = now
        span["last"] = now
        if origin == args.site_id:
            own_delivered["n"] += 1

    process.bind(SINK_ENTRY, on_sink)

    # -- membership: site 0 creates, everyone joins ---------------------
    state = {"gid": None, "joined": False, "error": None}

    def member_main():
        try:
            if args.site_id == 0:
                gid = yield isis.pg_create(GROUP_NAME)
            else:
                deadline = time.monotonic() + args.join_timeout
                while True:
                    try:
                        gid = yield isis.pg_lookup(GROUP_NAME)
                        break
                    except Exception:
                        if time.monotonic() > deadline or stopping["flag"]:
                            raise
                yield isis.pg_join(gid)
            state["gid"] = gid
            state["joined"] = True
        except Exception as err:  # noqa: BLE001 - reported in the JSON
            state["error"] = repr(err)

    process.spawn(member_main(), "member")
    cluster.run_until(
        lambda: state["joined"] or state["error"] or stopping["flag"],
        timeout=args.join_timeout + 5.0)
    if not state["joined"]:
        report(args, cluster, delivered, latencies, 0,
               error=state["error"] or "join timed out")
        cluster.shutdown()
        return 1

    gid = state["gid"]
    # Barrier: wait until the view holds all n members so every sender's
    # traffic reaches the full group (otherwise early senders skew rates).
    def full_view() -> bool:
        kernel = cluster.kernel(args.site_id)
        engine = kernel.engines.get(gid.process())
        return (engine is not None and engine.view is not None
                and len(engine.view.members) == args.n_sites)

    cluster.run_until(lambda: full_view() or stopping["flag"],
                      timeout=args.join_timeout)
    if not full_view():
        report(args, cluster, delivered, latencies, 0,
               error="view never reached full membership")
        cluster.shutdown()
        return 1

    # -- load generation -------------------------------------------------
    sent = {"n": 0}
    payload = b"x" * args.payload_bytes

    def sender_main():
        deadline = time.monotonic() + args.duration
        i = 0
        while time.monotonic() < deadline and not stopping["flag"]:
            if args.workload == "idle":
                break
            # Closed loop: at most ``inflight`` of our own multicasts not
            # yet delivered back to us — latency numbers stay meaningful
            # instead of measuring an ever-growing sender backlog.
            while (sent["n"] - own_delivered["n"] >= args.inflight
                   and time.monotonic() < deadline
                   and not stopping["flag"]):
                yield tasks_sleep(cluster.runtime.scheduler, 0.001)
            if time.monotonic() >= deadline or stopping["flag"]:
                break
            if args.workload == "mixed":
                kind = "a" if i % 2 else "c"
            else:
                kind = "a" if args.workload == "abcast" else "c"
            fn = isis.abcast if kind == "a" else isis.cbcast
            fn(gid, SINK_ENTRY, nwant=0, origin=args.site_id,
               i=i, k=kind, t=time.time(), payload=payload)
            sent["n"] += 1
            i += 1
            if i % 16 == 0:
                yield tasks_sleep(cluster.runtime.scheduler, 0.0)
        # Announce our final count so every site can drain to an exact
        # convergence point instead of guessing from a quiet window.
        isis.abcast(gid, SINK_ENTRY, nwant=0, origin=args.site_id,
                    i=sent["n"], k="eof", t=time.time())

    task = process.spawn(sender_main(), "sender")
    wall0 = time.time()
    deadline = time.monotonic() + args.duration + 0.5
    cluster.run_until(
        lambda: (task.done and time.monotonic() >= deadline - 0.5)
        or time.monotonic() >= deadline or stopping["flag"],
        timeout=args.duration + 30.0)

    # -- drain to exact convergence --------------------------------------
    # Every sender's eof announcement carries its final count; we are
    # drained once we saw all n announcements and delivered exactly that
    # many messages from each origin.  Falls back to the timeout (and a
    # reported divergence) if a peer died.
    def converged() -> bool:
        if stopping["flag"]:
            return True
        if len(eof_counts) < args.n_sites:
            return False
        return all(per_origin.get(origin, 0) >= count
                   for origin, count in eof_counts.items())

    drained = cluster.run_until(converged, timeout=args.drain + 60.0)
    # Linger until the transport has an ack for everything we sent:
    # exiting with unacked frames strands our retransmit state and the
    # peers still draining can never receive those messages.
    site = cluster.runtime.sites.get(args.site_id)
    if site is not None and site.transport is not None:
        cluster.run_until(
            lambda: site.transport.outbound_idle() or stopping["flag"],
            timeout=15.0)
    if not drained:
        missing = {o: (per_origin.get(o, 0), c)
                   for o, c in eof_counts.items()
                   if per_origin.get(o, 0) < c}
        print(f"site {args.site_id}: drain incomplete "
              f"(eofs={len(eof_counts)}/{args.n_sites}, short={missing})",
              file=sys.stderr)
    # Throughput over the active delivery window, not the drain slack.
    if span["first"] is not None and span["last"] > span["first"]:
        wall = span["last"] - span["first"]
    else:
        wall = time.time() - wall0

    code = report(args, cluster, delivered, latencies, sent["n"], wall=wall,
                  error=None if drained else "drain incomplete")
    cluster.shutdown()
    return code


def report(args, cluster, delivered, latencies, sent, wall=0.0,
           error=None) -> int:
    """Write the per-site JSON report; returns the exit code."""
    digest = hashlib.sha256()
    for item in sorted(delivered):
        digest.update(repr(item).encode())
    site = cluster.runtime.sites.get(args.site_id)
    transport = site.transport.stats() if site and site.transport else {}
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1,
                             int(p * (len(latencies) - 1)))]

    # Compact CDF: latency at 33 evenly spaced quantiles (0, 1/32 … 1),
    # enough to plot the distribution without shipping every sample.
    cdf = [round(pct(i / 32), 6) for i in range(33)] if latencies else []

    out = {
        "site": args.site_id,
        "n_sites": args.n_sites,
        "workload": args.workload,
        "error": error,
        "sent": sent,
        "delivered": len(delivered),
        "delivered_digest": digest.hexdigest(),
        "wall_seconds": round(wall, 6),
        "latency_p50": pct(0.50),
        "latency_p99": pct(0.99),
        "latency_cdf": cdf,
        "latency_samples": len(latencies),
        "loss_rate": args.loss_rate,
        "transport": transport,
        "scheduler": cluster.runtime.scheduler.stats(),
    }
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main())
