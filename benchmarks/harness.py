"""Shared helpers for the benchmark suite.

Every benchmark runs a *simulated* workload and reports simulated-time
metrics (latency, throughput, utilization, message counts) against the
paper's numbers.  pytest-benchmark's wall-clock timing measures the cost
of running the simulation itself; the reproduction numbers live in
``benchmark.extra_info`` and in the printed paper-vs-measured tables.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro import IsisCluster

ECHO_ENTRY = 16
SINK_ENTRY = 17


class EchoMember:
    """Group member that replies at ECHO_ENTRY and swallows at SINK_ENTRY."""

    def __init__(self, system: IsisCluster, site: int, name: str):
        self.process, self.isis = system.spawn(site, name)
        self.delivered: List[Tuple[float, int]] = []  # (time, size tag)
        self.process.bind(SINK_ENTRY, self._on_sink)
        self.process.bind(ECHO_ENTRY, self._on_echo)
        self.system = system

    def _on_sink(self, msg) -> None:
        self.delivered.append((self.system.now, len(msg.get("payload", b""))))

    def _on_echo(self, msg):
        self.delivered.append((self.system.now, len(msg.get("payload", b""))))
        yield self.isis.reply(msg, ok=True)


def deploy_group(
    system: IsisCluster,
    member_sites: Sequence[int],
    name: str = "bench",
) -> List[EchoMember]:
    """One echo member per site; first creates, the rest join."""
    members = [EchoMember(system, member_sites[0], "m0")]

    def create():
        yield members[0].isis.pg_create(name)

    members[0].process.spawn(create(), "create")
    system.run_for(3.0)
    for i, site in enumerate(member_sites[1:], start=1):
        member = EchoMember(system, site, f"m{i}")
        members.append(member)

        def join(member=member):
            gid = yield member.isis.pg_lookup(name)
            yield member.isis.pg_join(gid)

        member.process.spawn(join(), f"join{i}")
        system.run_for(25.0)
    return members


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence]) -> None:
    """Render a paper-vs-measured table to stdout (captured with -s)."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def run_one(benchmark, fn: Callable[[], Dict]) -> Dict:
    """Run a simulation workload once under pytest-benchmark.

    The workload returns a metrics dict, surfaced via extra_info.
    """
    result: Dict = {}

    def wrapper():
        result.clear()
        result.update(fn())

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    for key, value in result.items():
        benchmark.extra_info[key] = value
    return result
