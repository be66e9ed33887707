"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_after_orders_by_time():
    sim = Simulator()
    seen = []
    sim.call_after(2.0, seen.append, "b")
    sim.call_after(1.0, seen.append, "a")
    sim.call_after(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_schedule_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.call_after(1.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_a_zero_delay_call_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.call_after(5.0, lambda: sim.call_after(
        0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-0.1, lambda: None)


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    seen = []
    timer = sim.call_after(1.0, seen.append, "nope")
    timer.cancel()
    sim.call_after(2.0, seen.append, "yes")
    sim.run()
    assert seen == ["yes"]


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.call_after(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_after(1.0, seen.append, "early")
    sim.call_after(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_max_events_limits_execution():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_after(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_nested_scheduling_during_run():
    sim = Simulator()
    seen = []

    def outer():
        seen.append("outer")
        sim.call_after(1.0, seen.append, "inner")

    sim.call_after(1.0, outer)
    sim.run()
    assert seen == ["outer", "inner"]
    assert sim.now == 2.0


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as err:
            errors.append(err)

    sim.call_after(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_pending_events_counts_only_live_timers():
    sim = Simulator()
    t1 = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    t1.cancel()
    assert sim.pending_events == 1


def test_rng_streams_are_deterministic_and_independent():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    draws_a = [sim_a.rng("x").random() for _ in range(5)]
    draws_b = [sim_b.rng("x").random() for _ in range(5)]
    assert draws_a == draws_b
    # A different stream name gives a different sequence.
    assert draws_a != [Simulator(seed=7).rng("y").random() for _ in range(5)]


def test_rng_stream_isolation_from_creation_order():
    sim_a = Simulator(seed=3)
    sim_a.rng("first").random()
    value_a = sim_a.rng("second").random()
    sim_b = Simulator(seed=3)
    value_b = sim_b.rng("second").random()
    assert value_a == value_b


class TestTimerHeapCompaction:
    def test_cancel_tracks_dead_heap_entries(self):
        sim = Simulator()
        timers = [sim.call_after(10.0, lambda: None) for _ in range(10)]
        for t in timers[:4]:
            t.cancel()
        stats = sim.stats()
        assert stats["timers.cancelled_pending"] == 4
        assert stats["timers.heap_size"] == 10
        assert sim.pending_events == 6

    def test_compaction_when_majority_dead(self):
        sim = Simulator()
        n = Simulator.COMPACT_MIN_HEAP * 2
        timers = [sim.call_after(10.0, lambda: None) for _ in range(n)]
        for t in timers[:-1]:
            t.cancel()
        stats = sim.stats()
        assert stats["timers.compactions"] >= 1
        # Post-compaction the heap is too small to compact again; what
        # remains dead is bounded by the compaction floor.
        assert stats["timers.heap_size"] < Simulator.COMPACT_MIN_HEAP
        assert sim.pending_events == 1
        # The surviving timer still fires.
        fired = []
        timers[-1].fn = fired.append  # type: ignore[assignment]
        timers[-1].args = (1,)
        sim.run()
        assert fired == [1]

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        timers = [sim.call_after(10.0, lambda: None) for _ in range(8)]
        for t in timers:
            t.cancel()
        assert sim.stats()["timers.compactions"] == 0
        sim.run()
        assert sim.stats()["timers.cancelled_pending"] == 0

    def test_executed_timer_not_counted_as_cancelled(self):
        sim = Simulator()
        sim.call_after(1.0, lambda: None)
        sim.run()
        stats = sim.stats()
        assert stats["timers.cancelled_pending"] == 0
        assert stats["timers.heap_size"] == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(Simulator.COMPACT_MIN_HEAP * 2):
            t = sim.call_after(1.0 + i * 0.001, fired.append, i)
            if i % 7:
                t.cancel()
            else:
                keep.append(i)
        sim.run()
        assert fired == keep


class TestPosts:
    """``post`` / ``post_at``: events without a handle, on the one heap."""

    @pytest.mark.parametrize("post_first", [True, False])
    def test_a_post_and_a_timer_due_together_run_in_schedule_order(
            self, post_first):
        sim = Simulator()
        seen = []
        arm = [lambda: sim.post(1.0, seen.append, "post"),
               lambda: sim.call_at(1.0, seen.append, "timer")]
        for schedule in (arm if post_first else arm[::-1]):
            schedule()
        sim.post_at(1.0, seen.append, "post_at")
        sim.run()
        first, second = ("post", "timer") if post_first else ("timer", "post")
        assert seen == [first, second, "post_at"]
        assert sim.now == 1.0

    def test_posts_are_scheduled_and_pending_but_never_cancelled(self):
        sim = Simulator()
        n = Simulator.COMPACT_MIN_HEAP * 2
        for i in range(n):
            sim.post(10.0 + i, lambda: None)
        timers = [sim.call_after(5.0, lambda: None) for _ in range(4)]
        for timer in timers:
            timer.cancel()
        stats = sim.stats()
        assert stats["timers.scheduled"] == n + 4
        assert sim.pending_events == n
        # Four dead entries among 2n + 4 are no majority: no compaction,
        # and the posts never counted as dead.
        assert stats["timers.cancelled_pending"] == 4
        assert stats["timers.compactions"] == 0
        assert sim.run() == n
        assert sim.stats()["timers.cancelled_pending"] == 0
        assert sim.pending_events == 0

    def test_compaction_keeps_every_post(self):
        sim = Simulator()
        fired = []
        n = Simulator.COMPACT_MIN_HEAP * 2
        timers = [sim.call_after(1.0, fired.append, "timer")
                  for _ in range(n)]
        for i in range(3):
            sim.post(2.0, fired.append, i)
        for timer in timers:
            timer.cancel()
        assert sim.stats()["timers.compactions"] >= 1
        assert sim.pending_events == 3
        sim.run()
        assert fired == [0, 1, 2]

    def test_post_refuses_the_past(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.post_at(0.5, lambda: None)

    def test_step_and_max_events_count_posts_and_timers_alike(self):
        sim = Simulator()
        seen = []
        sim.post(1.0, seen.append, 1)
        sim.call_after(2.0, seen.append, 2)
        sim.post(3.0, seen.append, 3)
        assert sim.step()
        assert seen == [1]
        assert sim.run(max_events=1) == 1
        assert seen == [1, 2]
        assert sim.run(until=2.5) == 0
        assert sim.now == 2.5
        assert sim.step() and not sim.step()
        assert seen == [1, 2, 3]
