"""`AsyncioScheduler`: work due now runs from the loop's ready queue.

A callback with no delay left goes on the event loop's FIFO ready queue
(``loop.call_soon``); only a positive delay is a timer on the loop's
heap.  Both kinds are one handle type under one teardown audit.
"""

import asyncio

import pytest

from repro.runtime.asyncio_driver import AsyncioScheduler, RealCpu


@pytest.fixture
def scheduler():
    loop = asyncio.new_event_loop()
    yield AsyncioScheduler(loop)
    loop.close()


def _run(scheduler: AsyncioScheduler, seconds: float = 0.0) -> None:
    scheduler.loop.run_until_complete(asyncio.sleep(seconds))


def test_zero_delay_callbacks_run_in_call_order(scheduler):
    ran = []
    scheduler.call_soon(ran.append, "a")
    scheduler.call_after(0.0, ran.append, "b")
    scheduler.call_soon(ran.append, "c")
    scheduler.call_after(-1.0, ran.append, "d")
    RealCpu(scheduler).submit(0.5, ran.append, "e")
    _run(scheduler)
    assert ran == ["a", "b", "c", "d", "e"]
    assert scheduler.outstanding_timers() == 0


def test_cancelled_callback_never_runs_and_leaves_the_audit(scheduler):
    ran = []
    soon = scheduler.call_soon(ran.append, "soon")
    later = scheduler.call_after(0.01, ran.append, "later")
    assert scheduler.outstanding_timers() == 2
    soon.cancel()
    later.cancel()
    later.cancel()  # idempotent
    assert scheduler.outstanding_timers() == 0
    _run(scheduler, 0.03)
    assert ran == []
    assert scheduler.stats() == {"timers.outstanding": 0, "timers.fired": 0}


def test_fired_counts_both_kinds(scheduler):
    ran = []
    scheduler.call_soon(ran.append, 1)
    scheduler.call_after(0.005, ran.append, 2)
    _run(scheduler, 0.02)
    assert ran == [1, 2]
    assert scheduler.stats() == {"timers.outstanding": 0, "timers.fired": 2}


def test_call_at_in_the_past_runs(scheduler):
    ran = []
    scheduler.call_at(scheduler.now - 5.0, ran.append, "late")
    _run(scheduler)
    assert ran == ["late"]


def test_zero_delay_work_never_enters_the_timer_heap(scheduler):
    loop = scheduler.loop
    # ``_scheduled`` is the base event loop's timer heap.
    heap = loop._scheduled
    scheduler.call_soon(lambda: None)
    scheduler.call_after(0.0, lambda: None)
    scheduler.call_at(scheduler.now - 1.0, lambda: None)
    RealCpu(scheduler).submit(0.0, lambda: None)
    assert len(heap) == 0
    timer = scheduler.call_after(60.0, lambda: None)
    assert len(heap) == 1  # a real timer does
    timer.cancel()
    _run(scheduler)
    assert scheduler.outstanding_timers() == 0
