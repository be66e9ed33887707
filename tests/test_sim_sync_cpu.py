"""Unit tests for the CPU model."""

import pytest

from repro.sim import Cpu, Simulator


class TestCpu:
    def test_work_is_serialized(self):
        sim = Simulator()
        cpu = Cpu(sim)
        done = []
        cpu.submit(1.0, done.append, "a")
        cpu.submit(2.0, done.append, "b")
        sim.run()
        assert done == ["a", "b"]
        assert sim.now == 3.0

    def test_idle_gap_not_counted_busy(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.submit(1.0)
        sim.run()
        sim.call_after(9.0, cpu.submit, 1.0)
        sim.run()
        # 2 busy seconds out of 11 elapsed.
        assert cpu.busy_before(sim.now) == pytest.approx(2.0)

    def test_meter_measures_window_utilization(self):
        sim = Simulator()
        cpu = Cpu(sim)
        meter = cpu.meter()
        cpu.submit(2.0)
        sim.run(until=4.0)
        assert meter.utilization() == pytest.approx(0.5)

    def test_busy_before_midwork(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.submit(10.0)
        # At t=4, the CPU has been busy for 4 of the 10 scheduled seconds.
        sim.run(until=4.0)
        assert cpu.busy_before(4.0) == pytest.approx(4.0)

    def test_submit_hands_its_result_to_a_callback(self):
        # ``submit`` returns nothing (the CpuLike seam): work that must
        # hand on a result passes it to a callback it schedules.
        sim = Simulator()
        cpu = Cpu(sim)
        got = []
        assert cpu.submit(1.5, lambda: got.append(("result", sim.now))) \
            is None
        sim.run()
        assert got == [("result", 1.5)]
        assert sim.now == 1.5
