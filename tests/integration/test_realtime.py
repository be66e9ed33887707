"""Tests for the §3.11 real-time facility (clock sync, scheduling,
sensor reconciliation)."""

import pytest

from repro import IsisCluster
from repro.tools.realtime import (
    RealTimeTool,
    SiteClock,
    install_clocks,
)


class TestSiteClock:
    def test_offset_and_drift_shape_raw_time(self):
        system = IsisCluster(n_sites=1, seed=90)
        clock = SiteClock(system.sim, offset=0.25, drift=0.001)
        system.run_for(100.0)
        assert clock.raw() == pytest.approx(100.0 * 1.001 + 0.25)

    def test_correction_applies(self):
        system = IsisCluster(n_sites=1, seed=91)
        clock = SiteClock(system.sim, offset=1.0)
        clock.correction = -1.0
        assert clock.now() == pytest.approx(0.0)


class TestClockSync:
    def test_slaves_converge_to_master(self):
        system = IsisCluster(n_sites=3, seed=92)
        clocks = install_clocks(system, max_offset=0.5)
        before = [abs(clocks[s][0].error() - clocks[0][0].error())
                  for s in (1, 2)]
        system.run_for(60.0)
        # Slaves discipline themselves to the master (site 0): the
        # *relative* error among sites shrinks well below the raw skew.
        for s in (1, 2):
            relative = abs(clocks[s][0].now() - clocks[0][0].now())
            assert relative < 0.05, f"site {s} still {relative:.3f}s off"
        assert system.sim.trace.value("tool.rt_syncs") > 0

    def test_new_master_after_coordinator_crash(self):
        system = IsisCluster(n_sites=3, seed=93)
        clocks = install_clocks(system, max_offset=0.4)
        system.run_for(30.0)
        system.crash_site(0)
        system.run_for(60.0)
        # Site 1 is the new master; site 2 tracks it.
        relative = abs(clocks[2][0].now() - clocks[1][0].now())
        assert relative < 0.05


class TestScheduling:
    def test_actions_fire_near_global_time_on_all_sites(self):
        """'scheduling actions at predetermined global times'."""
        system = IsisCluster(n_sites=3, seed=94)
        clocks = install_clocks(system, max_offset=0.3)
        system.run_for(30.0)  # let the clocks discipline first
        fired = {}
        tools = {}
        for site in range(3):
            proc, isis = system.spawn(site, f"rt{site}")
            tools[site] = RealTimeTool(isis, clocks[site][0])
        target = tools[0].now() + 20.0
        for site in range(3):
            tools[site].schedule_at(
                target, lambda site=site: fired.update(
                    {site: system.sim.now}))
        system.run_for(60.0)
        assert set(fired) == {0, 1, 2}
        times = sorted(fired.values())
        # All three fire within a small window despite skewed clocks.
        assert times[-1] - times[0] < 0.2

    def test_schedule_in_the_past_fires_immediately(self):
        system = IsisCluster(n_sites=1, seed=95)
        clocks = install_clocks(system)
        proc, isis = system.spawn(0, "rt")
        tool = RealTimeTool(isis, clocks[0][0])
        fired = []
        tool.schedule_at(tool.now() - 5.0, lambda: fired.append(True))
        system.run_for(1.0)
        assert fired == [True]


class TestSensorDatabase:
    def _deploy(self, system, clocks):
        tools = []
        gid_box = {}
        p0, isis0 = system.spawn(0, "s0")
        t0 = RealTimeTool(isis0, clocks[0][0], gid=None)

        def create():
            gid_box["gid"] = yield isis0.pg_create("sensors")

        p0.spawn(create(), "create")
        system.run_for(3.0)
        t0.gid = gid_box["gid"]
        tools.append(t0)
        for site in (1, 2):
            proc, isis = system.spawn(site, f"s{site}")
            tool = RealTimeTool(isis, clocks[site][0], gid=gid_box["gid"])
            tools.append(tool)

            def join(isis=isis):
                yield isis.pg_join(gid_box["gid"])

            proc.spawn(join(), f"join{site}")
            system.run_for(20.0)
        return tools

    def test_readings_replicate_with_timestamps(self):
        system = IsisCluster(n_sites=3, seed=96)
        clocks = install_clocks(system)
        tools = self._deploy(system, clocks)

        def post():
            yield tools[0].post_reading("temp", 21.5)
            yield tools[0].post_reading("temp", 22.0)

        tools[0].isis.process.spawn(post(), "post")
        system.run_for(15.0)
        for tool in tools:
            readings = tool.read_interval("temp", 0.0, 10_000.0)
            assert [v for _, v in readings] == [21.5, 22.0]

    def test_reconcile_takes_median(self):
        """'reconciliation of sensor readings' — robust to one outlier."""
        system = IsisCluster(n_sites=3, seed=97)
        clocks = install_clocks(system)
        tools = self._deploy(system, clocks)

        def post(idx, value):
            def main():
                yield tools[idx].post_reading("pressure", value)
            return main()

        # Two good instruments and one broken one.
        tools[0].isis.process.spawn(post(0, 101.2), "p0")
        tools[1].isis.process.spawn(post(1, 101.4), "p1")
        tools[2].isis.process.spawn(post(2, 999.9), "p2")
        system.run_for(20.0)
        value = tools[0].reconcile("pressure", 0.0, 10_000.0)
        assert value == pytest.approx(101.4)

    def test_interval_filtering(self):
        system = IsisCluster(n_sites=1, seed=98)
        clocks = install_clocks(system)
        proc, isis = system.spawn(0, "s")
        tool = RealTimeTool(isis, clocks[0][0])
        tool._store("flow", 10.0, 1)
        tool._store("flow", 20.0, 2)
        tool._store("flow", 30.0, 3)
        assert [v for _, v in tool.read_interval("flow", 15.0, 30.0)] == [2]
        assert tool.reconcile("flow", 0.0, 50.0) == 2
        assert tool.reconcile("flow", 40.0, 50.0) is None
