"""Lightweight tasks: ISIS's coroutine facility on the simulator.

The paper (§4.1) describes a light-weight task package that lets a single
process run many concurrent tasks.  Here a task is a Python generator
driven by the event heap:

* ``yield promise`` suspends the task until the promise resolves; the
  resolved value is returned by the ``yield`` expression (or the promise's
  exception is raised at that point).
* ``yield None`` yields the CPU to other runnable tasks at the same
  simulated instant.
* Sub-routines compose with ``yield from`` and return values with
  ``return``.

A :class:`Task` is itself a :class:`Promise` resolving with the
generator's return value, so tasks can wait on other tasks.  Killing a
task (process crash) throws :class:`~repro.errors.TaskKilled` into the
generator so ``finally`` blocks run, then detaches it from the heap.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from ..errors import SimulationError, TaskKilled
from .core import Simulator

_PENDING = "pending"
_RESOLVED = "resolved"
_REJECTED = "rejected"


class Promise:
    """A one-shot, single-value future resolved through the event heap."""

    __slots__ = ("_state", "_value", "_exc", "_callbacks", "label")

    def __init__(self, label: str = ""):
        self._state = _PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["Promise"], None]] = []
        self.label = label

    # -- inspection ----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._state != _PENDING

    @property
    def rejected(self) -> bool:
        return self._state == _REJECTED

    @property
    def value(self) -> Any:
        """Resolved value; raises the stored exception if rejected."""
        if self._state == _PENDING:
            raise SimulationError(f"promise {self.label!r} not resolved yet")
        if self._state == _REJECTED:
            assert self._exc is not None
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- resolution ----------------------------------------------------
    def resolve(self, value: Any = None) -> None:
        """Fulfil the promise (idempotent: later calls are ignored)."""
        if self._state != _PENDING:
            return
        self._state = _RESOLVED
        self._value = value
        self._fire()

    def reject(self, exc: BaseException) -> None:
        """Fail the promise (idempotent)."""
        if self._state != _PENDING:
            return
        self._state = _REJECTED
        self._exc = exc
        self._fire()

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn: Callable[["Promise"], None]) -> None:
        """Run ``fn(self)`` on resolution (immediately if already done)."""
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def remove_done_callback(self, fn: Callable[["Promise"], None]) -> None:
        """Best-effort unsubscription (used by task kill)."""
        try:
            self._callbacks.remove(fn)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Promise {self.label!r} {self._state}>"


class Task(Promise):
    """A generator scheduled on the simulator; resolves with its return."""

    def __init__(
        self,
        sim: Simulator,
        gen: Generator,
        name: str = "task",
        on_exit: Optional[Callable[["Task"], None]] = None,
    ):
        super().__init__(label=name)
        if not hasattr(gen, "send"):
            raise SimulationError(f"Task body must be a generator, got {gen!r}")
        self.sim = sim
        self.gen = gen
        self.name = name
        self._on_exit = on_exit
        self._waiting_on: Optional[Promise] = None
        self._killed = False
        self._stepping = False
        sim.post(0.0, self._step, None, None)

    # -- driving the generator -----------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.done:
            return
        self._stepping = True
        try:
            if exc is not None:
                yielded = self.gen.throw(exc)
            else:
                yielded = self.gen.send(value)
        except StopIteration as stop:
            self._finish(lambda: self.resolve(stop.value))
            return
        except TaskKilled as kill:
            self._finish(lambda: self.reject(kill))
            return
        except BaseException as err:  # noqa: BLE001 - task bodies may raise anything
            self._finish(lambda: self.reject(err))
            return
        finally:
            self._stepping = False
        self._handle_yield(yielded)

    def _finish(self, settle: Callable[[], None]) -> None:
        self._stepping = False
        self._waiting_on = None
        settle()
        if self._on_exit is not None:
            self._on_exit(self)

    def _handle_yield(self, yielded: Any) -> None:
        if self._killed:
            self.sim.post(0.0, self._step, None, TaskKilled(self.name))
            return
        if yielded is None:
            self.sim.post(0.0, self._step, None, None)
            return
        if isinstance(yielded, Promise):
            self._waiting_on = yielded
            yielded.add_done_callback(self._resume_from)
            return
        self.sim.post(
            0.0,
            self._step,
            None,
            SimulationError(f"task {self.name!r} yielded {yielded!r}"),
        )

    def _resume_from(self, promise: Promise) -> None:
        if self._waiting_on is not promise or self.done:
            return
        self._waiting_on = None
        if promise.rejected:
            self.sim.post(0.0, self._step, None, promise.exception)
        else:
            self.sim.post(0.0, self._step, promise._value, None)

    # -- lifecycle -------------------------------------------------------
    def kill(self) -> None:
        """Terminate the task: throw TaskKilled at its next activation."""
        if self.done or self._killed:
            return
        self._killed = True
        waiting = self._waiting_on
        if waiting is not None:
            waiting.remove_done_callback(self._resume_from)
            self._waiting_on = None
        if not self._stepping:
            self.sim.post(0.0, self._step, None, TaskKilled(self.name))
        # If currently stepping, _handle_yield notices _killed afterwards.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} {self._state}>"


# ----------------------------------------------------------------------
# Waiting helpers (all return Promises; use as ``yield helper(...)``)
# ----------------------------------------------------------------------
def spawn(sim: Simulator, gen: Generator, name: str = "task") -> Task:
    """Run ``gen`` as a new top-level task."""
    return Task(sim, gen, name=name)


def sleep(sim: Simulator, delay: float) -> Promise:
    """Promise that resolves after ``delay`` simulated seconds."""
    promise = Promise(label=f"sleep({delay})")
    sim.post(delay, promise.resolve, None)
    return promise


def all_of(promises: Iterable[Promise], label: str = "all_of") -> Promise:
    """Resolve with the list of values once every input promise resolves.

    Rejects with the first rejection observed.
    """
    plist = list(promises)
    out = Promise(label=label)
    if not plist:
        out.resolve([])
        return out
    remaining = [len(plist)]

    def arm(index: int, promise: Promise) -> None:
        def on_done(p: Promise) -> None:
            if out.done:
                return
            if p.rejected:
                out.reject(p.exception)  # type: ignore[arg-type]
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                out.resolve([q._value for q in plist])

        promise.add_done_callback(on_done)

    for i, p in enumerate(plist):
        arm(i, p)
    return out
