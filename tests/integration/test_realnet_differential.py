"""Differential smoke test: same kernel, two drivers, same results.

The same 4-site CBCAST+ABCAST workload runs once on the deterministic
simulator (:class:`repro.core.bootstrap.IsisCluster`) and once on the
asyncio/UDP driver (:class:`repro.runtime.asyncio_driver.AsyncioCluster`,
real localhost sockets, wall-clock timers).  Each run is checked by
``conformance.check``, the same checker every simulated suite uses, and
virtual synchrony promises that the *sets* of delivered messages and the
final views agree across the drivers even though timing — and therefore
delivery *order* of concurrent CBCASTs — legitimately differs (§2.4:
only ABCAST imposes a total order, and only within each run).
"""

from __future__ import annotations

import socket

import pytest

from conformance import Recorder, Task, check
from repro import IsisCluster
from repro.runtime.asyncio_driver import AsyncioCluster

N_SITES = 4
PER_SENDER = 3  # CBCASTs and ABCASTs per member


def _sockets_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


realnet = pytest.mark.skipif(
    not _sockets_available(), reason="localhost sockets unavailable")


class _SimDriver:
    """Adapter: drive the simulated cluster in simulated seconds."""

    def __init__(self, seed: int = 0):
        self.cluster = IsisCluster(n_sites=N_SITES, seed=seed)

    def wait_until(self, predicate, timeout: float) -> bool:
        deadline = self.cluster.now + timeout
        while not predicate() and self.cluster.now < deadline:
            self.cluster.run_for(0.25)
        return predicate()

    def settle(self, duration: float) -> None:
        self.cluster.run_for(duration)

    def shutdown(self) -> None:
        pass


class _AsyncioDriver:
    """Adapter: drive the real-socket cluster in wall-clock seconds."""

    #: Wall timeouts are tighter than simulated ones: scale them down.
    TIME_SCALE = 0.2

    def __init__(self, seed: int = 0, udp_faults=None):
        self.cluster = AsyncioCluster(n_sites=N_SITES, seed=seed,
                                      udp_faults=udp_faults)

    def wait_until(self, predicate, timeout: float) -> bool:
        return self.cluster.run_until(
            predicate, timeout=max(5.0, timeout * self.TIME_SCALE))

    def settle(self, duration: float) -> None:
        self.cluster.run_for(min(0.5, duration * self.TIME_SCALE))

    def shutdown(self) -> None:
        self.cluster.shutdown()


def run_workload(driver):
    """Create a group, join all sites, multicast from every member.

    Returns the run's :class:`conformance.Record`.
    """
    recorder = Recorder(driver.cluster)
    members = [recorder.spawn(sid, f"m{sid}") for sid in range(N_SITES)]
    task = recorder.procs["m0"].spawn(
        recorder.creating("m0", ("diff",)), "create")
    assert driver.wait_until(lambda: task.done, 10.0), "create stalled"

    join_tasks = [recorder.procs[name].spawn(
        recorder.joining(name, ("diff",)), f"join{name}")
        for name in members[1:]]
    assert driver.wait_until(lambda: all(t.done for t in join_tasks), 60.0), \
        "joins stalled"

    send_tasks = [recorder.start(Task(
        f"send{sid}", f"m{sid}", ("diff",),
        ("cbcast",) * PER_SENDER + ("abcast",) * PER_SENDER,
        2 * PER_SENDER, f"{sid}:" + "{k}:{i}"))
        for sid in range(N_SITES)]
    expected = N_SITES * PER_SENDER * 2

    def delivered():
        return [len(recorder.streams[name]) for name in members]

    done = driver.wait_until(
        lambda: (all(t.done for t in send_tasks)
                 and all(n >= expected for n in delivered())),
        120.0)
    assert done, f"deliveries stalled: {delivered()}"
    driver.settle(2.0)  # let stability/trailing traffic quiesce
    return recorder.record()


def check_run(record):
    """One driver's run: it conforms, every member delivered all of it,
    and every site ends in one view."""
    check(record)
    for name, stream in record.streams.items():
        assert len(stream) == N_SITES * PER_SENDER * 2, \
            f"{name} delivered {len(stream)}"
    assert len(record.final_members()) == 1, "sites end in different views"


@realnet
def test_sim_and_asyncio_drivers_agree():
    sim_driver = _SimDriver(seed=7)
    sim = run_workload(sim_driver)
    sim_driver.shutdown()
    check_run(sim)

    net_driver = _AsyncioDriver(seed=7)
    try:
        net = run_workload(net_driver)
    finally:
        net_driver.shutdown()
    check_run(net)

    # Cross-driver agreement: identical delivered sets and final views.
    # (ABCAST order may differ BETWEEN runs — §2.4 requires agreement
    # within a run, not across executions with different timing.)
    assert sorted(sim.tags("m0")) == sorted(net.tags("m0")), \
        "drivers delivered different message sets"
    assert sim.final_members() == net.final_members(), \
        "drivers ended in different views"


@realnet
def test_asyncio_driver_survives_lossy_links():
    """The same workload over a deliberately bad network.

    Localhost never loses a datagram, so without injected faults the
    retransmission, dedup, and reordering machinery of the UDP channel
    only runs under overload.  Here every outgoing datagram is dropped,
    duplicated, or held back with fixed probabilities (deterministic
    per-site schedules) — and the virtual synchrony invariants must
    come out exactly as on a clean wire.
    """
    from repro.net.udp import UdpFaults

    driver = _AsyncioDriver(seed=11, udp_faults=UdpFaults(
        loss_rate=0.03, dup_rate=0.02, reorder=0.02, fault_seed=4))
    try:
        check_run(run_workload(driver))
        injected = {"faults_lost": 0, "faults_duped": 0,
                    "faults_reordered": 0}
        for site in driver.cluster.runtime.sites.values():
            if site.transport is None:
                continue
            stats = site.transport.stats()
            for key in injected:
                injected[key] += stats.get(key, 0)
    finally:
        driver.shutdown()
    assert sum(injected.values()) > 0, (
        "fault injection never fired — the lossy run tested nothing")
    assert injected["faults_lost"] > 0, injected


@realnet
def test_asyncio_driver_clean_teardown():
    """Shutdown leaves no armed timers or live bulk tasks behind."""
    cluster = AsyncioCluster(n_sites=2, seed=3)
    process, isis = cluster.spawn(0, "m0")
    box = {}

    def create():
        box["gid"] = yield isis.pg_create("t")

    process.spawn(create(), "create")
    assert cluster.run_until(lambda: "gid" in box, timeout=5.0)
    scheduler = cluster.runtime.scheduler
    assert scheduler.outstanding_timers() > 0  # heartbeats etc. armed
    cluster.shutdown(close_loop=False)
    assert scheduler.outstanding_timers() == 0, \
        "teardown left timers armed"
    cluster.runtime.loop.close()


@realnet
def test_asyncio_site_restarts_and_rejoins():
    """A crashed site leaves the site view and its next incarnation
    joins it again: the restart path of this driver, end to end."""
    cluster = AsyncioCluster(n_sites=3, seed=5)

    def view_at(site_id):
        view = cluster.kernel(site_id).site_view
        return None if view is None else tuple(view.members)

    try:
        cluster.crash_site(2)
        assert cluster.run_until(
            lambda: view_at(0) == view_at(1) == ((0, 0), (1, 0)), timeout=10.0)
        cluster.restart_site(2)
        assert cluster.site(2).incarnation == 1
        rejoined = ((0, 0), (1, 0), (2, 1))
        assert cluster.run_until(
            lambda: all(view_at(s) == rejoined for s in range(3)),
            timeout=10.0)
    finally:
        cluster.shutdown(close_loop=False)
    assert cluster.runtime.scheduler.outstanding_timers() == 0
    cluster.runtime.loop.close()
