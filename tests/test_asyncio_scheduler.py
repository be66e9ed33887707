"""`AsyncioScheduler` and the loop it runs on.

Work due now (``post`` or a ``call_*`` with no delay left, and
``RealCpu.submit``) goes on the scheduler's own FIFO, and one loop
callback drains it to empty, the work that the drained entries add
included: one instant, run the way the simulator runs it.  Only a
future deadline is a timer on the loop's heap, armed at its absolute
loop time.  A ``call_*`` returns a handle under one teardown audit
whichever way it went; a ``post`` (and ``RealCpu.submit``) holds none
and is counted in ``timers.fired`` alone.  The loop
(``new_event_loop``) waits a timed select to the microsecond instead of
rounding it up to a millisecond.
"""

import asyncio
import gc
import os
import select
import selectors
import socket
import warnings

import pytest

from repro.runtime.asyncio_driver import (AsyncioScheduler,
                                          PreciseEpollSelector, RealCpu,
                                          new_event_loop)

epoll_only = pytest.mark.skipif(not hasattr(selectors, "EpollSelector"),
                                reason="the precise selector is epoll's")


@pytest.fixture
def scheduler():
    loop = new_event_loop()
    yield AsyncioScheduler(loop)
    loop.close()


def _run(scheduler: AsyncioScheduler, seconds: float = 0.0) -> None:
    scheduler.loop.run_until_complete(asyncio.sleep(seconds))


def test_zero_delay_callbacks_run_in_call_order(scheduler):
    ran = []
    scheduler.call_at(scheduler.now, ran.append, "a")
    scheduler.call_after(0.0, ran.append, "b")
    scheduler.call_after(0.0, ran.append, "c")
    scheduler.call_after(-1.0, ran.append, "d")
    RealCpu(scheduler).submit(0.5, ran.append, "e")
    _run(scheduler)
    assert ran == ["a", "b", "c", "d", "e"]
    assert scheduler.outstanding_timers() == 0


def test_cancelled_callback_never_runs_and_leaves_the_audit(scheduler):
    ran = []
    soon = scheduler.call_after(0.0, ran.append, "soon")
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
    scheduler.call_after(0.0, ran.append, 1)
    scheduler.call_after(0.005, ran.append, 2)
    _run(scheduler, 0.02)
    assert ran == [1, 2]
    assert scheduler.stats() == {"timers.outstanding": 0, "timers.fired": 2}


def test_a_post_keeps_fifo_order_with_a_due_now_timer(scheduler):
    ran = []
    scheduler.call_after(0.0, ran.append, "a")
    scheduler.post(0.0, ran.append, "b")
    scheduler.call_after(0.0, ran.append, "c")
    scheduler.post(-1.0, ran.append, "d")
    scheduler.post(0.005, ran.append, "later")
    scheduler.call_after(0.0, ran.append, "e")
    _run(scheduler, 0.02)
    assert ran == ["a", "b", "c", "d", "e", "later"]


def test_posts_and_cpu_work_hold_no_handle_and_count_as_fired(scheduler):
    ran = []
    cpu = RealCpu(scheduler)
    cpu.submit(0.5, ran.append, "cpu")
    cpu.submit(0.5)  # no work: nothing to run, nothing counted
    scheduler.post(0.0, ran.append, "now")
    scheduler.post(0.005, ran.append, "later")
    assert scheduler.outstanding_timers() == 0
    assert len(scheduler.loop._scheduled) == 1  # the delayed post
    _run(scheduler, 0.02)
    assert ran == ["cpu", "now", "later"]
    assert scheduler.stats() == {"timers.outstanding": 0, "timers.fired": 3}


def test_call_at_in_the_past_runs(scheduler):
    ran = []
    scheduler.call_at(scheduler.now - 5.0, ran.append, "late")
    _run(scheduler)
    assert ran == ["late"]


def test_zero_delay_work_never_enters_the_timer_heap(scheduler):
    loop = scheduler.loop
    # ``_scheduled`` is the base event loop's timer heap.
    heap = loop._scheduled
    scheduler.call_after(0.0, lambda: None)
    scheduler.call_after(0.0, lambda: None)
    scheduler.call_at(scheduler.now - 1.0, lambda: None)
    RealCpu(scheduler).submit(0.0, lambda: None)
    assert len(heap) == 0
    timer = scheduler.call_after(60.0, lambda: None)
    assert len(heap) == 1  # a real timer does
    timer.cancel()
    _run(scheduler)
    assert scheduler.outstanding_timers() == 0


@pytest.mark.parametrize("verb", ["post", "submit", "call_after"])
def test_work_a_drained_entry_schedules_for_now_runs_in_the_same_drain(
        scheduler, verb):
    ran = []
    cpu = RealCpu(scheduler)
    schedule = {
        "post": lambda: scheduler.post(0.0, ran.append, "nested"),
        "submit": lambda: cpu.submit(0.5, ran.append, "nested"),
        "call_after": lambda: scheduler.call_after(0.0, ran.append, "nested"),
    }[verb]

    def first():
        ran.append("first")
        schedule()

    scheduler.post(0.0, first)
    scheduler.loop.call_soon(ran.append, "raw")  # queued after ``first``
    _run(scheduler)
    assert ran == ["first", "nested", "raw"]
    assert scheduler.outstanding_timers() == 0


def test_a_hundred_due_now_entries_cost_one_loop_handle(scheduler):
    ran = []
    cpu = RealCpu(scheduler)
    for i in range(0, 100, 4):
        scheduler.post(0.0, ran.append, i)
        cpu.submit(0.5, ran.append, i + 1)
        scheduler.call_after(0.0, ran.append, i + 2)
        scheduler.call_after(0.0, ran.append, i + 3)
    # ``_ready`` is the base event loop's ready queue.
    assert len(scheduler.loop._ready) == 1
    _run(scheduler)
    assert ran == list(range(100))
    assert scheduler.stats() == {"timers.outstanding": 0, "timers.fired": 100}


def test_a_due_now_handle_cancelled_before_the_drain_never_runs(scheduler):
    ran = []
    later = []
    doomed = scheduler.call_after(0.0, ran.append, "doomed")
    scheduler.post(0.0, lambda: later[0].cancel())  # from inside the drain
    scheduler.post(0.0, ran.append, "kept")
    later.append(scheduler.call_after(0.0, ran.append, "later"))
    doomed.cancel()
    assert scheduler.outstanding_timers() == 1  # ``later``
    # A cancelled entry is skipped by the drain, not taken out of the FIFO.
    assert len(scheduler.loop._ready) == 1
    _run(scheduler)
    assert ran == ["kept"]
    assert scheduler.stats() == {"timers.outstanding": 0, "timers.fired": 2}


def test_an_entry_that_raises_reaches_the_handler_and_the_drain_goes_on(
        scheduler):
    ran, seen = [], []
    loop = scheduler.loop
    loop.set_exception_handler(lambda _loop, context: seen.append(context))
    failure = ValueError("boom")

    def boom():
        scheduler.post(0.0, ran.append, "nested")
        raise failure

    scheduler.post(0.0, boom)
    scheduler.post(0.0, ran.append, "after")
    loop.call_soon(ran.append, "raw")
    _run(scheduler)
    assert ran == ["after", "nested", "raw"]
    assert [context["exception"] for context in seen] == [failure]

    def interrupt():
        raise KeyboardInterrupt

    scheduler.post(0.0, interrupt)
    scheduler.post(0.0, ran.append, "resumed")
    with pytest.raises(KeyboardInterrupt):  # not the handler's
        _run(scheduler)
    _run(scheduler)  # what the interrupted drain left still runs
    assert ran[3:] == ["resumed"]
    assert len(seen) == 1


def test_call_at_arms_the_loops_absolute_time(scheduler):
    when = scheduler.now + 30.0
    timer = scheduler.call_at(when, lambda: None)
    (handle,) = scheduler.loop._scheduled
    assert handle.when() == scheduler._t0 + when
    timer.cancel()
    _run(scheduler)
    assert scheduler.outstanding_timers() == 0


# -- the loop --------------------------------------------------------------
@pytest.fixture
def selector():
    chosen = PreciseEpollSelector()
    yield chosen
    chosen.close()


def _record_select_timeouts(monkeypatch):
    waits = []
    real = select.select

    def recording(rlist, wlist, xlist, timeout=None):
        waits.append(timeout)
        return real(rlist, wlist, xlist, timeout)

    monkeypatch.setattr(select, "select", recording)
    return waits


@epoll_only
def test_a_positive_timeout_is_waited_to_the_microsecond(selector,
                                                         monkeypatch):
    waits = _record_select_timeouts(monkeypatch)
    assert selector.select(0.0003) == []
    assert waits == [0.0003]  # not the parent's 0.001


@epoll_only
def test_zero_and_none_timeouts_stay_one_epoll_wait(selector, monkeypatch):
    left, right = socket.socketpair()
    try:
        selector.register(left, selectors.EVENT_READ)
        right.send(b"x")  # so that ``select(None)`` returns
        waits = _record_select_timeouts(monkeypatch)
        assert len(selector.select(0)) == 1
        assert len(selector.select(None)) == 1
        assert waits == []
    finally:
        left.close()
        right.close()


@epoll_only
def test_a_ready_socket_comes_back_from_a_timed_select(selector):
    left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
    try:
        key = selector.register(left, selectors.EVENT_READ)
        assert selector.select(0.0005) == []
        right.send(b"datagram")
        assert selector.select(5.0) == [(key, selectors.EVENT_READ)]
        assert left.recv(64) == b"datagram"
    finally:
        left.close()
        right.close()


@epoll_only
def test_the_runtime_loop_is_precise_and_closing_it_closes_the_epoll_fd():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        loop = new_event_loop()
        assert isinstance(loop._selector, PreciseEpollSelector)
        epoll = loop._selector._selector
        loop.close()
        del loop
        gc.collect()
    assert epoll.closed


@epoll_only
def test_an_epoll_fd_beyond_fd_setsize_keeps_the_default_loop():
    read_end, write_end = os.pipe()
    held = []
    try:
        try:  # take every free fd below select()'s FD_SETSIZE (1024 on Linux)
            while not held or held[-1] < 1023:
                held.append(os.dup(read_end))
        except OSError:
            pytest.skip("the fd limit is below FD_SETSIZE")
        loop = new_event_loop()
    finally:
        for fd in held + [read_end, write_end]:
            os.close(fd)
    try:
        assert loop._selector.fileno() >= 1024
        assert type(loop._selector) is selectors.EpollSelector
        assert loop.run_until_complete(asyncio.sleep(0.001, "ran")) == "ran"
    finally:
        loop.close()
