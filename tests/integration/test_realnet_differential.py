"""Differential smoke test: same kernel, two drivers, same results.

The same 4-site CBCAST+ABCAST workload runs once on the deterministic
simulator (:class:`repro.core.bootstrap.IsisCluster`) and once on the
asyncio/UDP driver (:class:`repro.runtime.asyncio_driver.AsyncioCluster`,
real localhost sockets, wall-clock timers).  Virtual synchrony promises
that the *sets* of delivered messages and the final views agree even
though timing — and therefore delivery *order* of concurrent CBCASTs —
legitimately differs (§2.4: only ABCAST imposes a total order, and only
within each run).
"""

from __future__ import annotations

import socket

import pytest

from repro import IsisCluster
from repro.runtime.asyncio_driver import AsyncioCluster

SINK = 17
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

    def spawn(self, site_id: int, name: str):
        return self.cluster.spawn(site_id, name)

    def kernel(self, site_id: int):
        return self.cluster.kernel(site_id)

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

    def __init__(self, seed: int = 0, udp_config=None):
        self.cluster = AsyncioCluster(n_sites=N_SITES, seed=seed,
                                      udp_config=udp_config)

    def spawn(self, site_id: int, name: str):
        return self.cluster.spawn(site_id, name)

    def kernel(self, site_id: int):
        return self.cluster.kernel(site_id)

    def wait_until(self, predicate, timeout: float) -> bool:
        return self.cluster.run_until(
            predicate, timeout=max(5.0, timeout * self.TIME_SCALE))

    def settle(self, duration: float) -> None:
        self.cluster.run_for(min(0.5, duration * self.TIME_SCALE))

    def shutdown(self) -> None:
        self.cluster.shutdown()


def run_workload(driver):
    """Create a group, join all sites, multicast from every member.

    Returns ``(delivered, abcast_orders, final_views)``:
    per-site delivered multisets, per-site ABCAST delivery order, and
    per-site final view membership.
    """
    delivered = {sid: [] for sid in range(N_SITES)}
    members = []

    class Member:
        def __init__(self, sid):
            self.sid = sid
            self.process, self.isis = driver.spawn(sid, f"m{sid}")
            self.process.bind(SINK, self._on_sink)
            self.gid = None

        def _on_sink(self, msg):
            delivered[self.sid].append((msg["origin"], msg["i"], msg["k"]))

    creator = Member(0)
    members.append(creator)

    def create():
        creator.gid = yield creator.isis.pg_create("diff")

    task = creator.process.spawn(create(), "create")
    assert driver.wait_until(lambda: task.done, 10.0), "create stalled"

    join_tasks = []
    for sid in range(1, N_SITES):
        member = Member(sid)
        members.append(member)

        def join(member=member):
            gid = yield member.isis.pg_lookup("diff")
            yield member.isis.pg_join(gid)
            member.gid = gid

        join_tasks.append(member.process.spawn(join(), f"join{sid}"))
    assert driver.wait_until(lambda: all(t.done for t in join_tasks), 60.0), \
        "joins stalled"

    gid = creator.gid
    send_tasks = []
    for member in members:
        def send(member=member):
            for i in range(PER_SENDER):
                yield member.isis.cbcast(
                    gid, SINK, nwant=0, origin=member.sid, i=i, k="c")
            for i in range(PER_SENDER):
                yield member.isis.abcast(
                    gid, SINK, nwant=0, origin=member.sid, i=i, k="a")
        send_tasks.append(member.process.spawn(send(), f"send{member.sid}"))

    expected = N_SITES * PER_SENDER * 2
    done = driver.wait_until(
        lambda: (all(t.done for t in send_tasks)
                 and all(len(delivered[s]) >= expected
                         for s in range(N_SITES))),
        120.0)
    assert done, f"deliveries stalled: {[len(delivered[s]) for s in range(N_SITES)]}"
    driver.settle(2.0)  # let stability/trailing traffic quiesce

    abcast_orders = {
        sid: [d for d in delivered[sid] if d[2] == "a"]
        for sid in range(N_SITES)
    }
    final_views = {}
    for sid in range(N_SITES):
        engine = driver.kernel(sid).engines.get(gid.process())
        assert engine is not None and engine.view is not None
        final_views[sid] = sorted(str(m) for m in engine.view.members)
    return delivered, abcast_orders, final_views


def check_internal_consistency(delivered, abcast_orders, final_views):
    """Per-driver VS invariants: same sets, same ABCAST order, same view."""
    reference = sorted(delivered[0])
    assert len(reference) == N_SITES * PER_SENDER * 2
    for sid in range(1, N_SITES):
        assert sorted(delivered[sid]) == reference, \
            f"site {sid} delivered a different set"
        assert abcast_orders[sid] == abcast_orders[0], \
            f"site {sid} disagrees on ABCAST total order"
        assert final_views[sid] == final_views[0], \
            f"site {sid} ends in a different view"


@realnet
def test_sim_and_asyncio_drivers_agree():
    sim_driver = _SimDriver(seed=7)
    sim = run_workload(sim_driver)
    sim_driver.shutdown()
    check_internal_consistency(*sim)

    net_driver = _AsyncioDriver(seed=7)
    try:
        net = run_workload(net_driver)
    finally:
        net_driver.shutdown()
    check_internal_consistency(*net)

    # Cross-driver agreement: identical delivered sets and final views.
    # (ABCAST order may differ BETWEEN runs — §2.4 requires agreement
    # within a run, not across executions with different timing.)
    assert sorted(sim[0][0]) == sorted(net[0][0]), \
        "drivers delivered different message sets"
    assert sim[2][0] == net[2][0], "drivers ended in different views"


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
    from repro.net.udp import UdpConfig

    driver = _AsyncioDriver(seed=11, udp_config=UdpConfig(
        loss_rate=0.03, dup_rate=0.02, reorder=0.02, fault_seed=4))
    try:
        results = run_workload(driver)
        check_internal_consistency(*results)
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
