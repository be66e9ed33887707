"""The seven reference scenarios: one line each of behaviour that must
not move under a refactor.

Each scenario runs a 4-site group through joins, ABCAST/CBCAST blasts
and a crash (and, in 2-7, a restart and rejoin of site 3), then prints

    seed  Trace.digest()  timers.scheduled  retransmits  peer_restarts
    bulk_chunks  [groups per site]

The digest covers every traced event (views, flushes, deliveries) with
its simulated time; ``timers.scheduled`` every event the scheduler ever
armed.  Compare the output of two trees line for line:

    (cd TREE && PYTHONPATH=src python /path/to/scripts/digest_scenarios.py)

``digest_scenarios.expected`` beside this script holds the lines as
recorded with Python 3.11; CI diffs the output against it.

The exit status is non-zero if a scenario raises or a site ends with
another number of groups than the scenario is written to leave: in
1-5 site 3 ends with none (in 2-5 its rejoin is spawned in the instant
of the restart, so its lookup fails), in 6 and 7 it rejoins.
"""

from __future__ import annotations

import sys
import traceback

from repro import IsisCluster, IsisConfig


def scenario(seed, loss_rate=0.0, restart=True, config=None,
             state_bytes=0, settle=0.0):
    """Run one scenario; return its line's values."""
    system = IsisCluster(n_sites=4, seed=seed, loss_rate=loss_rate,
                         isis_config=config)
    system.sim.trace.enable("*")
    state = {s: [b"s" * state_bytes] for s in range(4)}

    def member(s, name):
        proc, isis = system.spawn(s, name)
        proc.bind(16, lambda msg: None)
        if state_bytes:      # > BULK_THRESHOLD: joins stream st.chunk
            isis.register_transfer(
                "blob", lambda: [state[s][0][i:i + 50_000]
                                 for i in range(0, state_bytes, 50_000)],
                lambda chunks: state[s].__setitem__(0, b"".join(chunks)))
        return proc, isis

    members = [member(s, f"m{s}") for s in range(4)]

    def create():
        yield members[0][1].pg_create("d")

    members[0][0].spawn(create(), "create")
    system.run_for(5.0)
    for s in (1, 2, 3):
        def join(isis=members[s][1]):
            yield isis.pg_join((yield isis.pg_lookup("d")))
        members[s][0].spawn(join(), "join")
        system.run_for(20.0)

    def blast(isis, s):
        gid = yield isis.pg_lookup("d")
        for i in range(40):
            yield isis.bcast(gid, 16, kind="abcast" if i % 2 else "cbcast",
                             tag=f"{s}:{i}", body=b"x" * 300)

    for s in range(4):
        members[s][0].spawn(blast(members[s][1], s), "blast")
    system.run_for(3.0)
    system.crash_site(3)
    if not restart:
        system.run_for(300.0)
    else:
        system.run_for(60.0)
        system.restart_site(3)
        system.run_for(settle)   # 0: the lookup races the site-view join
        proc, isis = member(3, "m3b")

        def rejoin():
            yield isis.pg_join((yield isis.pg_lookup("d")))

        proc.spawn(rejoin(), "rejoin")
        system.run_for(60.0)
        for s in range(3):
            members[s][0].spawn(blast(members[s][1], s), "blast2")
        proc.spawn(blast(isis, 3), "blast2")
        system.run_for(300.0)
    trace = system.sim.trace
    return (seed, trace.digest(), system.sim.stats()["timers.scheduled"],
            trace.value("transport.retransmits"),
            trace.value("transport.peer_restarts"),
            trace.value("bulk.stream_chunks"),
            [system.kernel(s).stats()["groups"] for s in range(4)])


#: (arguments, groups per site at the end).
SCENARIOS = (
    (dict(seed=12345, restart=False), [1, 1, 1, 0]),   # clean wire, one crash
    (dict(seed=13, loss_rate=0.05),  # reliable channel
     [1, 1, 1, 0]),
    (dict(seed=7, config=IsisConfig(dissemination="tree", tree_fanout=2,
                                    abcast_mode="sequencer",
                                    batch_window=0.01)), [1, 1, 1, 0]),
    (dict(seed=9, config=IsisConfig(durability=True,
                                    wal_checkpoint_every=20)), [1, 1, 1, 0]),
    (dict(seed=21, state_bytes=200_000), [1, 1, 1, 0]),  # 3 streams
    (dict(seed=22, state_bytes=200_000, settle=30.0),    # + the rejoin's
     [1, 1, 1, 1]),
    (dict(seed=23, loss_rate=0.02, state_bytes=120_000,
          settle=30.0, config=IsisConfig(durability=True, batch_window=0.01)),
     [1, 1, 1, 1]),
)


def main() -> int:
    failed = 0
    for kwargs, groups in SCENARIOS:
        try:
            line = scenario(**kwargs)
        except Exception:
            traceback.print_exc()
            print(kwargs["seed"], "raised", flush=True)
            failed += 1
            continue
        print(*line, flush=True)
        if line[-1] != groups:
            print(f"seed {kwargs['seed']}: groups {line[-1]}, "
                  f"expected {groups}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
