"""Unit tests for tasks, promises, and waiting helpers (repro.sim.tasks)."""

import pytest

from repro.errors import SimulationError, TaskKilled
from repro.sim import (
    Promise,
    Simulator,
    all_of,
    sleep,
    spawn,
)


def run_task(sim, gen, name="t"):
    task = spawn(sim, gen, name=name)
    sim.run()
    return task


class TestPromise:
    def test_resolve_and_value(self):
        p = Promise()
        p.resolve(42)
        assert p.done and p.value == 42

    def test_reject_and_value_raises(self):
        p = Promise()
        p.reject(ValueError("boom"))
        assert p.done and p.rejected
        with pytest.raises(ValueError):
            _ = p.value

    def test_value_before_resolution_raises(self):
        p = Promise()
        with pytest.raises(SimulationError):
            _ = p.value

    def test_resolution_is_idempotent(self):
        p = Promise()
        p.resolve(1)
        p.resolve(2)
        p.reject(ValueError())
        assert p.value == 1

    def test_callback_after_done_fires_immediately(self):
        p = Promise()
        p.resolve("x")
        seen = []
        p.add_done_callback(lambda q: seen.append(q.value))
        assert seen == ["x"]


class TestTask:
    def test_task_returns_value(self):
        sim = Simulator()

        def body():
            yield sleep(sim, 1.0)
            return "done"

        task = run_task(sim, body())
        assert task.value == "done"
        assert sim.now == 1.0

    def test_yield_none_interleaves_tasks(self):
        sim = Simulator()
        order = []

        def body(tag):
            for i in range(3):
                order.append((tag, i))
                yield None

        spawn(sim, body("a"))
        spawn(sim, body("b"))
        sim.run()
        assert order == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
        ]

    def test_yield_promise_receives_value(self):
        sim = Simulator()
        box = Promise()
        sim.call_after(2.0, box.resolve, "payload")

        def body():
            got = yield box
            return got

        task = run_task(sim, body())
        assert task.value == "payload"

    def test_rejected_promise_raises_in_task(self):
        sim = Simulator()
        box = Promise()
        sim.call_after(1.0, box.reject, KeyError("nope"))

        def body():
            try:
                yield box
            except KeyError:
                return "caught"

        task = run_task(sim, body())
        assert task.value == "caught"

    def test_task_exception_rejects_task(self):
        sim = Simulator()

        def body():
            yield sleep(sim, 0.5)
            raise RuntimeError("bad")

        task = run_task(sim, body())
        assert task.rejected
        with pytest.raises(RuntimeError):
            _ = task.value

    def test_yield_from_composes_subroutines(self):
        sim = Simulator()

        def sub():
            yield sleep(sim, 1.0)
            return 10

        def body():
            a = yield from sub()
            b = yield from sub()
            return a + b

        task = run_task(sim, body())
        assert task.value == 20
        assert sim.now == 2.0

    def test_task_waits_on_other_task(self):
        sim = Simulator()

        def child():
            yield sleep(sim, 3.0)
            return "child-result"

        def parent():
            t = spawn(sim, child(), name="child")
            got = yield t
            return got

        task = run_task(sim, parent())
        assert task.value == "child-result"

    def test_yielding_garbage_rejects(self):
        sim = Simulator()

        def body():
            yield 42

        task = run_task(sim, body())
        assert task.rejected

    def test_kill_runs_finally_blocks(self):
        sim = Simulator()
        cleaned = []

        def body():
            try:
                yield sleep(sim, 100.0)
            finally:
                cleaned.append(True)

        task = spawn(sim, body())
        sim.call_after(1.0, task.kill)
        sim.run()
        assert cleaned == [True]
        assert task.rejected
        assert isinstance(task.exception, TaskKilled)

    def test_kill_is_idempotent_and_safe_after_done(self):
        sim = Simulator()

        def body():
            yield sleep(sim, 1.0)
            return 1

        task = run_task(sim, body())
        task.kill()
        assert task.value == 1

    def test_killed_task_does_not_resume_from_promise(self):
        sim = Simulator()
        box = Promise()
        resumed = []

        def body():
            got = yield box
            resumed.append(got)

        task = spawn(sim, body())
        sim.call_after(1.0, task.kill)
        sim.call_after(2.0, box.resolve, "late")
        sim.run()
        assert resumed == []


class TestHelpers:
    def test_all_of_collects_in_order(self):
        sim = Simulator()
        p1, p2 = Promise(), Promise()
        sim.call_after(2.0, p1.resolve, "one")
        sim.call_after(1.0, p2.resolve, "two")

        def body():
            got = yield all_of([p1, p2])
            return got

        task = run_task(sim, body())
        assert task.value == ["one", "two"]

    def test_all_of_empty_resolves_immediately(self):
        sim = Simulator()

        def body():
            got = yield all_of([])
            return got

        assert run_task(sim, body()).value == []

    def test_all_of_rejects_on_first_failure(self):
        sim = Simulator()
        p1, p2 = Promise(), Promise()
        sim.call_after(1.0, p1.reject, ValueError("x"))

        def body():
            yield all_of([p1, p2])

        task = run_task(sim, body())
        assert task.rejected
