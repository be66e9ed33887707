"""What a correlated crash costs the site-view coordinator, by cluster size.

Each row boots ``sites`` sites (no groups, the detector on, seed
``SEED``), runs them for 5 s, then crashes the row's sites together at
one of several instants spread over one heartbeat ``INTERVAL``.  Per run
it prints:

* ``proposals``: the site-view proposals made from the (first) crash
  until the view of exactly the survivors installs;
* ``view_s``: seconds from the (last) crash until the coordinator (the
  oldest survivor) installs that view;
* ``backlog_s``: the peak of the coordinator's CPU backlog over that
  span, seconds of work it held queued (``Cpu.backlog``, read after
  every submission, so the reading adds no event to the run).

A run that installs no such view within ``HORIZON`` seconds prints
``-`` for ``view_s``.  Everything is read off the simulated clock, so
the output is exact.  ``run`` also takes crashes at different instants;
the integration tests call it so.  Run:

    PYTHONPATH=src python scripts/siteview_scale.py
    PYTHONPATH=src python scripts/siteview_scale.py --with-256

``siteview_scale.expected`` beside this script holds the default rows'
output; CI diffs against it.  ``--with-256`` adds one crash of 256
sites (about a minute).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro import IsisCluster
from repro.fd.heartbeat import INTERVAL

#: Every run boots from this seed.
SEED = 3
#: Crash instants: 5 s in, then a quarter interval apart.
INSTANTS = tuple(5.0 + k * INTERVAL / 4 for k in range(4))
#: (sites, crashed sites): two at 40 sites, four at 64 without and with
#: the coordinator (site 0), eight at 128.
ROWS = (
    (40, (38, 39)),
    (64, (60, 61, 62, 63)),
    (64, (0, 1, 40, 41)),
    (128, tuple(range(120, 128))),
)
#: Seconds after the last crash a run gives the next view.
HORIZON = 30.0


def run(n_sites: int, crashes: Sequence[Tuple[int, float]]
        ) -> Tuple[int, Optional[float], float]:
    """Crash each ``(site, at)`` at ``at`` seconds: (proposals, seconds
    from the last crash to the next view or None, peak coordinator
    backlog)."""
    system = IsisCluster(n_sites=n_sites, seed=SEED)
    sim = system.sim
    sim.trace.enable("sv.propose", "sv.install")
    first = min(at for _, at in crashes)
    last = max(at for _, at in crashes)
    dead = {site for site, _ in crashes}
    survivors = tuple(s for s in range(n_sites) if s not in dead)
    coordinator = survivors[0]
    agent = system.kernel(coordinator).agent
    cpu = system.site(coordinator).cpu
    submit = cpu.submit
    peak = [0.0]

    def metered(*args):
        submit(*args)
        peak[0] = max(peak[0], cpu.backlog)

    system.run_for(first - sim.now)
    cpu.submit = metered
    for site, at in crashes:
        sim.call_after(at - sim.now, system.crash_site, site)
    view_s = None
    while sim.now < last + HORIZON:
        system.run_for(INTERVAL)
        if agent.view.sites() == survivors:
            installed = [t for t, _, (site, _, _) in
                         sim.trace.events("sv.install") if site == coordinator]
            view_s = installed[-1] - last
            break
    proposals = sum(1 for t, _, _ in sim.trace.events("sv.propose")
                    if t >= first and (view_s is None or t <= last + view_s))
    return proposals, view_s, peak[0]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--with-256", action="store_true",
                        help="add one crash of 256 sites")
    args = parser.parse_args(argv)
    runs = [(n_sites, crashed, at) for n_sites, crashed in ROWS
            for at in INSTANTS]
    if args.with_256:
        runs.append((256, (255,), INSTANTS[0]))
    print("sites  crashed          at_s  proposals  view_s  backlog_s")
    for n_sites, crashed, at in runs:
        label = (f"{crashed[0]}-{crashed[-1]}" if len(crashed) > 4
                 else ",".join(map(str, crashed)))
        proposals, view_s, backlog = run(n_sites,
                                         [(site, at) for site in crashed])
        shown = "-" if view_s is None else f"{view_s:.3f}"
        print(f"{n_sites:<6} {label:<15} {at:6.3f}  {proposals:>9}  "
              f"{shown:>6}  {backlog:9.3f}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
