#!/usr/bin/env python3
"""Quickstart: process groups, multicast, and group RPC in isis-vs.

Builds a 3-site cluster, creates a process group with one member per
site, and demonstrates the three things §2 says a toolkit must make easy:

1. asynchronous CBCAST (send and keep computing),
2. group RPC with reply collection (ask everyone, wait for ALL),
3. virtually synchronous failure observation (every survivor sees the
   same membership change, ranked by age).

Run:  python examples/quickstart.py
"""

from repro import ALL, IsisCluster


def main() -> None:
    # Tuning knobs live on IsisConfig, e.g. the total-order engine:
    #   IsisCluster(n_sites=3, seed=7,
    #               isis_config=IsisConfig(abcast_mode="sequencer"))
    # routes ABCAST ordering through the view's token site (one-phase,
    # batched order stamps) instead of the paper's two-phase priorities
    # — ~2x ABCAST throughput at 4 sites; see BENCH_abcast.json.
    # Causal delivery is dependency-indexed: each delivery wakes exactly
    # the messages it unblocks, so deep pending buffers drain in O(1)
    # per message (ARCHITECTURE.md, "Causal delivery").
    # View changes run one flush protocol: site failures commit in a
    # single round trip via unsolicited pre-reports, reports are
    # delta-encoded and pruned, and large joiner state streams in chunks
    # so the group never wedges behind a transfer (ARCHITECTURE.md,
    # "View changes").
    # Past ~32 sites, switch dissemination to the spanning tree:
    #   IsisCluster(n_sites=64, seed=7,
    #               isis_config=IsisConfig(dissemination="tree",
    #                                      tree_fanout=8,
    #                                      abcast_mode="sequencer"))
    # relays multicasts, sequencer stamps and stability traffic along a
    # deterministic k-ary tree of the view instead of O(n) sends per
    # site — peak per-site wire load is bounded by the fanout, and
    # stability aggregates up the tree (~3x lower msgs/site/multicast
    # and ~20x lower stability traffic at 64 sites; dissemination=
    # "flat", the default, keeps the paper's point-to-point fan-out —
    # see BENCH_scale.json).
    # Everything below runs on the deterministic simulator, but the same
    # kernel also runs over real sockets: swap IsisCluster for
    #   from repro.runtime.asyncio_driver import AsyncioCluster
    #   system = AsyncioCluster(n_sites=3, seed=7)
    # (localhost UDP/TCP, wall-clock timers; use run_until(predicate)
    # instead of fixed run_for windows since real timing varies), or run
    # one OS process per site with scripts/run_cluster.py — see the
    # "One kernel, two drivers" section of ARCHITECTURE.md and the
    # rn-cbcast workload of bench/.
    system = IsisCluster(n_sites=3, seed=7)

    # --- one member process per site -----------------------------------
    members = []
    deliveries = {site: [] for site in range(3)}
    for site in range(3):
        process, isis = system.spawn(site, f"member{site}")
        process.bind(16, lambda msg, s=site: deliveries[s].append(msg["text"]))

        def answer(msg, isis=isis, site=site):
            yield isis.reply(msg, site=site, load=site * 10)

        process.bind(17, answer)
        members.append((process, isis))

    # --- create the group, others join ----------------------------------
    creator, creator_isis = members[0]

    def create():
        gid = yield creator_isis.pg_create("demo")
        print(f"[t={system.now:6.2f}s] created group {gid}")

    creator.spawn(create(), "create")
    system.run_for(3.0)

    for site in (1, 2):
        process, isis = members[site]

        def join(isis=isis, site=site):
            gid = yield isis.pg_lookup("demo")
            view = yield isis.pg_join(gid)
            print(f"[t={system.now:6.2f}s] site {site} joined; view "
                  f"#{view.view_id} has {len(view.members)} members")

        process.spawn(join(), f"join{site}")
        system.run_for(20.0)

    # --- 1. asynchronous CBCAST -------------------------------------------
    def broadcast():
        gid = yield creator_isis.pg_lookup("demo")
        yield creator_isis.cbcast(gid, 16, text="hello, virtual synchrony")
        print(f"[t={system.now:6.2f}s] CBCAST sent (caller did not block)")

    creator.spawn(broadcast(), "bcast")
    system.run_for(5.0)
    print(f"           deliveries: { {s: d for s, d in deliveries.items()} }")

    # --- 2. group RPC: ask all members ------------------------------------
    client, client_isis = system.spawn(1, "client")

    def ask():
        gid = yield client_isis.pg_lookup("demo")
        replies = yield client_isis.cbcast(gid, 17, nwant=ALL, q="load?")
        loads = sorted((r["site"], r["load"]) for r in replies)
        print(f"[t={system.now:6.2f}s] group RPC got {len(replies)} replies:"
              f" {loads}")

    client.spawn(ask(), "ask")
    system.run_for(10.0)

    # --- 3. failures are clean, agreed events ------------------------------
    def watch():
        gid = yield creator_isis.pg_lookup("demo")
        yield creator_isis.pg_monitor(
            gid,
            lambda view: print(
                f"[t={system.now:6.2f}s] view #{view.view_id}: "
                f"{len(view.members)} members (oldest: {view.members[0]})"))

    creator.spawn(watch(), "watch")
    system.run_for(2.0)
    print(f"[t={system.now:6.2f}s] crashing site 2 ...")
    system.crash_site(2)
    system.run_for(60.0)
    print("done.")


if __name__ == "__main__":
    main()
