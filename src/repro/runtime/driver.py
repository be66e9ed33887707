"""The driver seam: one kernel, two drivers.

The protocols process (:mod:`repro.core.kernel`) is written against a
small, duck-typed surface rather than against the simulator: a *clock /
scheduler* (``now``, ``call_at``/``call_after`` returning cancellable
handles, ``post`` for a callback nobody cancels, returning none, a
:class:`~repro.sim.trace.Trace`, named RNG streams) and a *site*
(process hosting, reliable FIFO byte messages, unreliable raw datagrams,
a bulk channel for large transfers, and the delay of the hop between a
local process and the kernel).

Two drivers satisfy this surface:

* the **simulator** (:class:`repro.sim.core.Simulator` +
  :class:`repro.runtime.site.Site`): deterministic discrete-event time,
  modeled CPU and link costs — the differential oracle every
  optimization is validated against;
* the **asyncio runtime** (:mod:`repro.runtime.asyncio_driver` +
  :mod:`repro.net.udp`): real UDP sockets, real TCP bulk streams, real
  wall-clock timers — the driver the process-per-site launcher and the
  wall-clock benchmarks run on.

The kernel cannot tell which driver it is running on; everything above
the seam (group engines, pipelines, flush, failure detection, tools,
applications) runs unmodified under both.  The protocols below are what
that code *reads* — every ``site.<name>`` in ``core/``, ``tools/``,
``apps/`` and ``fd/`` (``TestDriverSeam`` holds the census) — and are
``runtime_checkable`` so tests can assert that each driver satisfies
them; :class:`repro.runtime.site.BaseSite` is the site itself and lists
what a driver *supplies*.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """Handle returned by the ``call_*`` scheduling calls; cancellation
    is idempotent."""

    def cancel(self) -> None: ...


@runtime_checkable
class Scheduler(Protocol):
    """Clock + timer service + trace + deterministic RNG streams.

    The simulator's ``now`` is virtual seconds since t=0; the asyncio
    driver's is monotonic wall-clock seconds since driver start.  Kernel
    code only ever compares and subtracts ``now`` values, so the origin
    does not matter.

    The rule for the two verbs: a caller that keeps the handle (to
    cancel a timeout, a retry, a window) uses ``call_*``; every other
    callback is ``post``-ed, with no handle to build or audit.  Both
    verbs are one queue, so callbacks due at one instant run in the
    order they were scheduled, whichever verb armed them.
    """

    @property
    def now(self) -> float: ...

    def call_at(self, time: float, fn: Callable, *args: Any) -> TimerHandle: ...

    def call_after(self, delay: float, fn: Callable, *args: Any) -> TimerHandle: ...

    def post(self, delay: float, fn: Callable, *args: Any) -> None: ...

    def rng(self, stream: str) -> Any: ...


@runtime_checkable
class SiteTransport(Protocol):
    """Reliable FIFO channels plus raw datagrams to peer sites.

    ``send`` returns a promise resolved when the message is stable at
    the destination; ``send_raw`` is fire-and-forget (heartbeats), so a
    lost probe looks like silence rather than being masked by the
    reliable channel.
    """

    on_raw: Optional[Callable[[int, bytes], None]]

    def send(self, dst_site: int, data: bytes) -> Any: ...

    def send_raw(self, dst_site: int, payload: bytes) -> None: ...

    def reset_channel(self, dst_site: int) -> None: ...

    def stats(self) -> Dict[str, int]: ...

    def shutdown(self) -> None: ...

    @property
    def alive(self) -> bool: ...


@runtime_checkable
class CpuLike(Protocol):
    """The site's CPU: ``fn(*args)`` runs after ``cost`` seconds of it.

    No caller reads what ``submit`` returns: work that must hand on a
    result passes it to a callback ``fn`` schedules.  A timer that judges
    a peer by its silence arms at its constant plus ``backlog``, the
    seconds of work the CPU still holds (this site's sends among it).
    """

    @property
    def backlog(self) -> float: ...

    def submit(self, cost: float, fn: Optional[Callable] = None,
               *args: Any) -> None: ...


@runtime_checkable
class BulkStreamLike(Protocol):
    """One open bulk connection; sequential chunk sends.

    ``send`` resolves once the chunk has been handed to the receiving
    site's bulk handler; ``close`` abandons the connection — chunks
    still in flight are not delivered (TCP reset semantics).
    """

    def send(self, data: bytes) -> Any: ...

    def close(self) -> None: ...


@runtime_checkable
class SiteLike(Protocol):
    """What the kernel requires of the site hosting it.

    Process hosting (``spawn_process``/``process_by_id``/``run_program``),
    handler installation for the three inbound paths (ordered messages,
    raw datagrams, bulk chunks), and the three outbound paths
    (``send_bytes`` for ordered FIFO, ``send_raw`` for datagrams,
    ``open_bulk_stream`` for the TCP-like channel).  ``local_hop_delay``
    is what one crossing between a hosted process and the kernel costs:
    the paper's 10 ms in the simulator, nothing on a real host.
    ``transport`` is ``None`` while the site is down, ``kernel`` the
    protocols process of the latest incarnation, ``cluster.programs`` the
    tools' program registry, ``stable`` the disk (a ``StableStore``).
    """

    site_id: int
    incarnation: int
    up: bool
    local_hop_delay: float
    sim: Scheduler
    cpu: CpuLike
    stable: Any
    transport: Optional[SiteTransport]
    kernel: Any
    cluster: Any

    def boot(self) -> None: ...

    def crash(self) -> None: ...

    def run_program(self, program: str, *args: Any, **kwargs: Any) -> Any: ...

    def spawn_process(self, name: str, local_id: Optional[int] = None) -> Any: ...

    def process_by_id(self, local_id: int) -> Any: ...

    def set_message_handler(self, handler: Callable[[int, bytes], None]) -> None: ...

    def set_raw_handler(self, handler: Callable[[int, bytes], None]) -> None: ...

    def set_bulk_handler(self, handler: Callable[[int, bytes], None]) -> None: ...

    def send_bytes(self, dst_site: int, data: bytes) -> Any: ...

    def send_raw(self, dst_site: int, payload: bytes) -> None: ...

    def open_bulk_stream(self, dst_site: int) -> Optional[BulkStreamLike]: ...

    def on_boot(self, hook: Callable[[Any], None]) -> None: ...

    def on_crash(self, hook: Callable[[Any], None]) -> None: ...
