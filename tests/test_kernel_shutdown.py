"""Graceful kernel shutdown: every timer disarmed, even mid-flush.

``ProtocolsProcess.shutdown()`` (run via the site crash hook) must
cancel everything the kernel armed — heartbeats, the stability tick,
batch-coalescing and sequencer stamp timers, the flush grace timer and
request retry timers — and close outbound state-transfer streams.
A leaked periodic timer keeps re-arming forever, so the observable
contract is simple: after every site is down, the event heap drains and
stays empty.
"""

from __future__ import annotations

from repro import IsisCluster, IsisConfig
from repro.core import rpc as rpc_mod

SINK = 9


def _deploy_three(system):
    """3-site group; returns (gid, member0's process and isis handle)."""
    gid_box = {}
    p0, i0 = system.spawn(0, "m0")

    def create():
        gid_box["gid"] = yield i0.pg_create("shut")

    p0.spawn(create(), "create")
    system.run_for(5.0)
    for sid in (1, 2):
        proc, isis = system.spawn(sid, f"m{sid}")

        def join(isis=isis):
            gid = yield isis.pg_lookup("shut")
            yield isis.pg_join(gid)

        proc.spawn(join(), f"join{sid}")
        system.run_for(25.0)
    return gid_box["gid"], p0, i0


def test_shutdown_mid_flush_cancels_every_timer(monkeypatch):
    # Retry periods far beyond the settle window below: a request
    # timer that shutdown fails to cancel is still armed at assert time.
    monkeypatch.setattr(rpc_mod, "REQUEST_TIMEOUT", 30.0)
    system = IsisCluster(
        n_sites=3, seed=11,
        isis_config=IsisConfig(batch_window=0.05, abcast_mode="sequencer"))
    gid, p0, i0 = _deploy_three(system)
    p0.bind(SINK, lambda msg: None)

    # Kill a member site, then wait until a survivor is actually
    # mid-flush (wedged, or coordinating a flush round).
    system.site(2).crash()
    kernels = [system.kernel(0), system.kernel(1)]

    def mid_flush() -> bool:
        return any(
            engine.wedged or engine.flush._active is not None
            for kernel in kernels for engine in kernel.engines.values())

    deadline = system.now + 120.0
    while system.now < deadline and not mid_flush():
        system.run_for(0.05)
    assert mid_flush(), "flush never started after the crash"

    # Mid-flush, pile on everything that arms kernel timers: multicasts
    # still in their batch windows, and — after killing the group's
    # contact site — a join whose request goes unanswered, leaving its
    # 30 s retry timer armed in the request table.
    for i in range(4):
        i0.cbcast(gid, SINK, nwant=0, i=i)
        i0.abcast(gid, SINK, nwant=0, i=i)
    system.site(0).crash()  # the group's coordinator/contact site
    p_late, i_late = system.spawn(1, "late")

    def late_join():
        yield i_late.pg_join(gid)

    p_late.spawn(late_join(), "latejoin")
    deadline = system.now + 5.0
    while system.now < deadline and not system.kernel(1).joins.pending:
        system.run_for(0.01)
    assert system.kernel(1).joins.pending, "join not in flight"

    system.site(1).crash()  # crash hook runs kernel.shutdown()

    # One-shot fire-and-forget timers (intra-site delivery hops) may
    # still be armed; they fire once and vanish.  Anything periodic that
    # survived shutdown would keep re-arming and fail this.
    system.run_for(5.0)
    # ``pending_events`` counts armed timers and posts alike.
    sim = system.sim
    assert sim.pending_events == 0, (
        f"events left armed after shutdown: {sim._heap!r}")


def test_shutdown_rejects_batched_and_joining_promises():
    system = IsisCluster(
        n_sites=3, seed=13,
        isis_config=IsisConfig(batch_window=0.05))
    gid, p0, i0 = _deploy_three(system)
    p0.bind(SINK, lambda msg: None)

    # A multicast whose envelope is still in the batch buffer, and a
    # fresh join, both pending when the site dies: their promises must
    # be rejected (not left dangling) by the shutdown path.
    mcast = i0.cbcast(gid, SINK, nwant=1, i=99)
    p_late, i_late = system.spawn(1, "late2")
    join_state = {}

    def late_join():
        try:
            lookup = yield i_late.pg_lookup("shut")
            yield i_late.pg_join(lookup)
            join_state["ok"] = True
        except Exception as err:  # noqa: BLE001 - outcome under test
            join_state["err"] = err

    p_late.spawn(late_join(), "latejoin2")
    system.site(0).crash()
    system.site(1).crash()
    system.run_for(5.0)
    assert mcast.done, "batched multicast promise left dangling"
    assert mcast.rejected
    assert "ok" not in join_state, "join resolved on a dead kernel"
