"""Crash the coordinator at every instant of a request's flight: each
survivor must deliver the request exactly once, and every name-service
call must resolve.

A group has one member on each of sites 0-2; site 0 coordinates.  One
request goes to it — a CBCAST or ABCAST from a client on site 3, which
is not a member, or a GBCAST from that client or from the member on
site 2 — and site 0 crashes ``delay`` after the request is issued, for
every delay in 0-200 ms in 5 ms steps.  The two name-service kinds send
their request to site 0 as the site-view coordinator: a ``pg_create``
from site 3, and a ``pg_lookup`` from site 3 of a name nobody
registered, with site 0 crashed at the same instants.  Run:

    PYTHONPATH=src python scripts/crash_sweep.py --seeds 1 2 3 4 5

One line per seed and request kind: the runs, the wrong runs, and the
duplicates the record caught (``request.duplicates``).  A multicast run
is wrong if a survivor did not deliver the request exactly once; a
name-service run, if the call had not resolved by the end of the run or
the survivors' replicas disagree on the name.  The exit status is
non-zero if any run was wrong.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Tuple

from repro import IsisCluster

#: (multicast kind, caller site): site 3 hosts no member, site 2 does.
KINDS = (("cbcast", 3), ("abcast", 3), ("gbcast", 3), ("gbcast", 2))
#: Name-service calls, from site 3.
NAME_KINDS = ("pg_create", "pg_lookup")
DELAYS = tuple(step * 0.005 for step in range(41))


def run(kind: str, caller_site: int, delay: float,
        seed: int = 1) -> Tuple[List[int], float]:
    """One run: how often each survivor (sites 1, 2) delivered the
    request, and the duplicates the record caught, cluster-wide."""
    system = IsisCluster(n_sites=4, seed=seed)
    got: Dict[int, int] = {0: 0, 1: 0, 2: 0}
    members = []
    for site in (0, 1, 2):
        proc, isis = system.spawn(site, f"m{site}")

        def deliver(msg, site=site):
            got[site] += 1
        proc.bind(16, deliver)
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("grp")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for proc, isis in members[1:]:
        def join(isis=isis):
            yield isis.pg_join((yield isis.pg_lookup("grp")))
        proc.spawn(join(), "join")
        system.run_for(5.0)
    proc, isis = (members[2] if caller_site == 2
                  else system.spawn(caller_site, "client"))

    def send():
        gid = yield isis.pg_lookup("grp")
        yield getattr(isis, kind)(gid, 16, nwant=0, q="req")

    proc.spawn(send(), "send")
    system.sim.call_after(delay, system.crash_site, 0)
    system.run_for(20.0)
    return [got[1], got[2]], system.sim.trace.value("request.duplicates")


def run_name(kind: str, delay: float, seed: int = 1) -> bool:
    """One name-service run: did the call from site 3 resolve, and do
    the survivors (sites 1-3) name the group alike?"""
    system = IsisCluster(n_sites=4, seed=seed)
    system.run_for(3.0)
    proc, isis = system.spawn(3, "client")
    call = (isis.pg_create("svc") if kind == "pg_create"
            else isis.pg_lookup("absent"))
    system.sim.call_after(delay, system.crash_site, 0)
    system.run_for(20.0)
    name = "svc" if kind == "pg_create" else "absent"
    named = {system.kernel(site).namespace.lookup(name) for site in (1, 2, 3)}
    return call.done and len(named) == 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    bad = 0
    for seed in args.seeds:
        for kind in NAME_KINDS:
            wrong = 0
            for delay in DELAYS:
                if not run_name(kind, delay, seed):
                    wrong += 1
                    print(f"seed {seed} {kind} from site 3 at "
                          f"{delay * 1000:.0f} ms: unresolved or "
                          f"replicas disagree", file=sys.stderr)
            bad += wrong
            print(seed, kind, 3, len(DELAYS), wrong, 0, flush=True)
        for kind, caller_site in KINDS:
            wrong, duplicates = 0, 0.0
            for delay in DELAYS:
                counts, caught = run(kind, caller_site, delay, seed)
                duplicates += caught
                if counts != [1, 1]:
                    wrong += 1
                    print(f"seed {seed} {kind} from site {caller_site} "
                          f"at {delay * 1000:.0f} ms: delivered {counts}",
                          file=sys.stderr)
            bad += wrong
            print(seed, kind, caller_site, len(DELAYS), wrong,
                  int(duplicates), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
