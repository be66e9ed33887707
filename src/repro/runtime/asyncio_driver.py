"""The asyncio driver: the same ISIS kernel on real sockets.

This module is the second implementation of the driver seam documented
in :mod:`repro.runtime.driver`.  Where the simulator driver runs the
protocols process on a discrete-event heap with a modeled LAN, this one
runs it on a real :mod:`asyncio` event loop with real UDP datagrams
(:class:`repro.net.udp.UdpTransport`) and real TCP bulk connections
(:class:`repro.net.udp.TcpBulk`).  Nothing above the seam changes: the
kernel, group engines, pipelines, flush, failure detection, tools and
applications are byte-for-byte the same code.

Pieces:

* :func:`new_event_loop` — the one loop the driver builds: an epoll
  loop whose timed waits end when they are due, not at the next whole
  millisecond (:class:`PreciseEpollSelector`).
* :class:`AsyncioScheduler` — adapts ``loop.time`` / ``loop.call_at``
  (timers) to the :class:`~repro.runtime.driver.Scheduler` protocol,
  with a :class:`~repro.sim.trace.Trace` and seeded RNG streams.  Work
  due now goes on the scheduler's own FIFO, which one loop callback
  drains to empty, as the simulator runs one instant.  It tracks
  outstanding handles so teardown tests can assert none leak; a
  ``post`` is a FIFO entry with no handle to track.
* :class:`RealCpu` — ``submit`` on real hardware: the work goes straight
  on the scheduler's FIFO (its cost is what it costs).
* :class:`NetSite` — :class:`repro.runtime.site.BaseSite` whose wire is
  a UDP socket plus a TCP bulk endpoint.
* :class:`AsyncioRuntime` — per-OS-process driver state: the loop, the
  scheduler, the peer endpoint tables and the locally hosted sites.  It
  also holds the program registry the tools read through
  ``site.cluster.programs``.
* :class:`AsyncioCluster` — the :class:`repro.core.bootstrap.Deployment`
  (same ``spawn`` / ``kernel`` / ``crash_site`` / ``restart_site`` as
  :class:`~repro.core.bootstrap.IsisCluster`) on one loop with real
  localhost sockets: what the differential tests drive.

The simulator remains the default everywhere; this driver is reached
only through these explicit entry points (and ``scripts/run_site.py``).
"""

from __future__ import annotations

import asyncio
import select
import selectors
import socket
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.bootstrap import Deployment
from ..core.kernel import IsisConfig
from ..net.udp import TcpBulk, TcpBulkStream, UdpFaults, UdpTransport
from ..sim.rand import RngRegistry
from ..sim.trace import Trace
from .program import ProgramRegistry
from .site import BaseSite
from .stable import StableStore


class PreciseEpollSelector(selectors.EpollSelector):
    """An epoll selector whose timed waits end when they are due.

    ``EpollSelector.select`` rounds a positive timeout up to a whole
    millisecond, the unit of ``epoll_wait``, so every timer on such a
    loop fires up to 1 ms late.  Here a positive timeout is waited in
    ``select.select`` on the epoll fd itself, which is readable once any
    registered fd is ready: microsecond resolution, one fd however many
    sockets are registered.  The events are then harvested with a
    non-blocking ``epoll_wait``.  A zero or ``None`` timeout is the
    parent's single ``epoll_wait``.
    """

    def select(self, timeout: Optional[float] = None):
        if timeout is not None and timeout > 0:
            select.select((self.fileno(),), (), (), timeout)
            timeout = 0
        return super().select(timeout)


def new_event_loop() -> asyncio.AbstractEventLoop:
    """The event loop the runtime runs on: epoll with precise waits.

    Without epoll the platform's default loop (kqueue already waits on a
    timespec).  ``select.select`` refuses an fd at or above
    ``FD_SETSIZE``, so an epoll fd created that high (a process already
    holding about a thousand fds) keeps the default loop too.
    """
    if not hasattr(selectors, "EpollSelector"):
        return asyncio.new_event_loop()
    selector = PreciseEpollSelector()
    try:
        select.select((selector.fileno(),), (), (), 0)
    except ValueError:  # beyond FD_SETSIZE
        selector.close()
        return asyncio.new_event_loop()
    return asyncio.SelectorEventLoop(selector)


class AsyncioTimer:
    """Cancellable handle over a callback: an entry on the scheduler's
    FIFO for work due now, a loop timer-heap entry for work due later."""

    __slots__ = ("_handle", "_scheduler", "_fn", "_args", "cancelled")

    def __init__(self, scheduler: "AsyncioScheduler", fn: Callable,
                 args: tuple):
        self._scheduler = scheduler
        self._fn = fn
        self._args = args
        self._handle: Optional[asyncio.TimerHandle] = None  # due later only
        self.cancelled = False

    def _fire(self) -> None:
        if self.cancelled:  # a due-now entry cancelled in the FIFO
            return
        scheduler = self._scheduler
        scheduler._outstanding.discard(self)
        scheduler._fired += 1
        self._fn(*self._args)

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._handle is not None:
                self._handle.cancel()
            self._scheduler._outstanding.discard(self)


class AsyncioScheduler:
    """Wall-clock :class:`~repro.runtime.driver.Scheduler` over asyncio.

    ``now`` is monotonic seconds since scheduler creation (the kernel
    only compares and subtracts ``now`` values, so the origin is free).

    Work due now (``post`` or a ``call_*`` with no delay left, and
    :meth:`RealCpu.submit`) goes on one FIFO of ``(fn, args)`` entries.
    The first entry into an empty FIFO arms a single ``loop.call_soon``
    of :meth:`_drain`, which runs entries in order until the FIFO is
    empty, the entries that work adds while it runs included.  That is
    how :meth:`repro.sim.core.Simulator._dispatch` runs one instant:
    everything due now, in schedule order, before the loop polls its
    sockets again, with no loop iteration between one hop and the next.
    A callback that posted itself for now without end would starve the
    sockets, as it would stop the simulator's clock.  None in this
    package does: a task that went on ``yield None`` for ever would, and
    the only ``yield None`` is in :mod:`repro.sim.tasks`' docstring.

    Only a future deadline is a ``loop.call_at`` timer on the loop's
    heap, armed at its absolute loop time.  Every live handle of either
    kind is tracked so shutdown audits can assert nothing was left
    armed; a cancelled due-now handle stays in the FIFO and is skipped.
    ``post`` enters the same FIFO or heap with no handle and nothing to
    audit: it cannot be cancelled, so it is counted in ``timers.fired``
    when it is posted.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None,
                 seed: int = 0):
        self.loop = loop or new_event_loop()
        self._t0 = self.loop.time()
        self.seed = seed
        self._rngs = RngRegistry(seed)
        self.trace = Trace(self)  # Trace only reads ._sim.now
        self._outstanding: Set[AsyncioTimer] = set()
        self._fired = 0
        #: Work due now; non-empty exactly while a drain is armed or running.
        self._due: deque = deque()

    @property
    def now(self) -> float:
        """Seconds since driver start (monotonic)."""
        return self.loop.time() - self._t0

    # -- scheduling ------------------------------------------------------
    def _soon(self, fn: Callable, args: tuple) -> None:
        """Append ``fn(*args)`` to the FIFO, arming a drain if it was empty."""
        due = self._due
        if not due:
            self.loop.call_soon(self._drain)
        due.append((fn, args))

    def _drain(self) -> None:
        """Run the FIFO to empty.  An entry leaves it only after it ran,
        so work it adds finds the FIFO non-empty and arms no second drain.
        An entry that raises goes to the loop's exception handler, as a
        loop callback's would, and the next entry runs."""
        due = self._due
        while due:
            fn, args = due[0]
            try:
                fn(*args)
            except (SystemExit, KeyboardInterrupt):
                due.popleft()
                if due:
                    self.loop.call_soon(self._drain)
                raise
            except BaseException as exc:
                self.loop.call_exception_handler({
                    "message": f"Exception in callback {fn!r}",
                    "exception": exc,
                })
            due.popleft()

    def _schedule(self, at: Optional[float], fn: Callable,
                  args: tuple) -> AsyncioTimer:
        """Arm ``fn(*args)`` at loop time ``at``; ``None`` is due now."""
        timer = AsyncioTimer(self, fn, args)
        if at is None:
            self._soon(timer._fire, ())
        else:
            timer._handle = self.loop.call_at(at, timer._fire)
        self._outstanding.add(timer)
        return timer

    def call_at(self, when: float, fn: Callable, *args: Any) -> AsyncioTimer:
        """Schedule ``fn(*args)`` at absolute scheduler time ``when``."""
        return self._schedule(self._t0 + when if when > self.now else None,
                              fn, args)

    def call_after(self, delay: float, fn: Callable, *args: Any) -> AsyncioTimer:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        return self._schedule(self.loop.time() + delay if delay > 0.0
                              else None, fn, args)

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds; no handle."""
        self._fired += 1
        if delay > 0.0:
            self.loop.call_at(self.loop.time() + delay, fn, *args)
        else:
            self._soon(fn, args)

    def rng(self, stream: str):
        """Deterministic named RNG substream (same derivation as the sim)."""
        return self._rngs.stream(stream)

    # -- diagnostics -----------------------------------------------------
    def outstanding_timers(self) -> int:
        """Callbacks armed but not yet fired or cancelled (teardown audit)."""
        return len(self._outstanding)

    def stats(self) -> Dict[str, int]:
        return {
            "timers.outstanding": len(self._outstanding),
            "timers.fired": self._fired,
        }


class RealCpu:
    """The real host's CPU behind :class:`~repro.runtime.driver.CpuLike`.

    On real hardware the modeled per-frame costs are advisory: ``submit``
    runs the work in this instant's drain regardless of ``cost``
    (charging fake delays would double-count the real CPU the work
    already burns).  It is a ``post`` with no delay, written out: one
    entry on the scheduler's FIFO.  Its ``backlog`` is fixed at ``0.0``,
    so the silence rule is not applied: a loop timer counts from when it
    is armed, and a long drain of that FIFO still uses up its timeout.
    """

    backlog = 0.0

    def __init__(self, scheduler: AsyncioScheduler):
        self.scheduler = scheduler

    def submit(self, cost: float, fn: Optional[Callable] = None,
               *args: Any) -> None:
        """Run ``fn(*args)`` in this instant's drain."""
        if fn is not None:
            scheduler = self.scheduler
            scheduler._fired += 1
            scheduler._soon(fn, args)


class NetSite(BaseSite):
    """A computing site whose NIC is a real UDP socket pair."""

    def __init__(self, runtime: "AsyncioRuntime", site_id: int):
        super().__init__(site_id)
        self.runtime = runtime
        self.cluster = runtime  # the tools' program registry
        self.local_hop_delay = 0.0  # a real host: no modeled IPC hop
        self.sim = runtime.scheduler
        self.cpu = RealCpu(runtime.scheduler)
        self.stable = StableStore(self.sim, site_id)
        self._bulk: Optional[TcpBulk] = None

    def _open_wire(self) -> UdpTransport:
        """Bind this incarnation's sockets: UDP first, then TCP bulk."""
        udp_sock, tcp_sock = self.runtime.bind_site_sockets(self.site_id)
        transport = UdpTransport(
            self.sim,
            self.site_id,
            epoch=self.incarnation,
            sock=udp_sock,
            peers=self.runtime.udp_peers,
            on_message=self._on_transport_message,
            faults=self.runtime.udp_faults,
        )
        self._bulk = TcpBulk(
            self.sim,
            self.site_id,
            sock=tcp_sock,
            peers=self.runtime.bulk_peers,
            on_blob=self.deliver_bulk,
        )
        return transport

    def _close_wire(self) -> None:
        self._bulk.shutdown()
        self._bulk = None

    def open_bulk_stream(self, dst_site: int) -> Optional[TcpBulkStream]:
        """Persistent TCP connection for chunked state transfer.

        Unreachable destinations surface as rejected chunk promises
        (connection refused / reset) rather than ``None`` — the kernel
        treats both as an aborted transfer.
        """
        if not self.up:
            return None
        return self._bulk.open_stream(dst_site)


class AsyncioRuntime:
    """Driver state for one OS process hosting one or more sites.

    Also what the tools read through ``site.cluster``: ``.programs``
    (the rexec registry).

    Endpoints: with ``base_port`` set, site *i* is at
    ``(host, base_port + 2i)`` for UDP and ``(host, base_port + 2i + 1)``
    for TCP bulk — how separate launcher processes find each other.
    ``hosts`` overrides the address per site (``{site_id: host}``) so a
    deployment can span machines: sites absent from the map stay on
    ``host``.  Without ``base_port``, locally hosted sites bind
    ephemeral ports recorded in the shared peer tables at boot
    (in-process clusters only).
    """

    def __init__(
        self,
        n_sites: int,
        local_sites: Optional[List[int]] = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        base_port: Optional[int] = None,
        hosts: Optional[Dict[int, str]] = None,
        udp_faults: Optional[UdpFaults] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ):
        self.n_sites = n_sites
        self.host = host
        self.base_port = base_port
        self.hosts = dict(hosts or {})
        self.loop = loop or new_event_loop()
        self.scheduler = AsyncioScheduler(self.loop, seed=seed)
        self.programs = ProgramRegistry()
        self.udp_faults = udp_faults
        self.udp_peers: Dict[int, Tuple[str, int]] = {}
        self.bulk_peers: Dict[int, Tuple[str, int]] = {}
        if base_port is not None:
            for sid in range(n_sites):
                site_host = self.hosts.get(sid, host)
                self.udp_peers[sid] = (site_host, base_port + 2 * sid)
                self.bulk_peers[sid] = (site_host, base_port + 2 * sid + 1)
        self.sites: Dict[int, NetSite] = {}
        for sid in (local_sites if local_sites is not None
                    else range(n_sites)):
            self.sites[sid] = NetSite(self, sid)

    # -- sockets ---------------------------------------------------------
    def bind_site_sockets(self, site_id: int) -> Tuple[socket.socket,
                                                       socket.socket]:
        """Bind the UDP + TCP listening sockets for a local site."""
        udp_addr = self.udp_peers.get(site_id, (self.host, 0))
        udp_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        udp_sock.setblocking(False)
        udp_sock.bind(udp_addr)
        self.udp_peers[site_id] = udp_sock.getsockname()

        tcp_addr = self.bulk_peers.get(site_id, (self.host, 0))
        tcp_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        tcp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        tcp_sock.setblocking(False)
        tcp_sock.bind(tcp_addr)
        tcp_sock.listen(64)
        self.bulk_peers[site_id] = tcp_sock.getsockname()
        return udp_sock, tcp_sock

    def site(self, site_id: int) -> NetSite:
        return self.sites[site_id]

    # -- loop control ----------------------------------------------------
    def run_for(self, duration: float) -> None:
        """Drive the loop (and real time) forward by ``duration`` seconds."""
        self.loop.run_until_complete(asyncio.sleep(duration))

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  poll: float = 0.005) -> bool:
        """Drive the loop until ``predicate()`` or ``timeout``; True if met."""

        async def wait() -> bool:
            deadline = self.loop.time() + timeout
            while not predicate():
                if self.loop.time() >= deadline:
                    return False
                await asyncio.sleep(poll)
            return True

        return self.loop.run_until_complete(wait())

    def shutdown(self, close_loop: bool = True) -> None:
        """Crash every local site, unwind tasks, optionally close the loop."""
        for site in self.sites.values():
            site.crash()
        if not self.loop.is_closed():
            try:  # let closing connections and cancelled tasks unwind
                self.run_for(0.05)
            except RuntimeError:  # pragma: no cover - loop already running
                pass
            pending = [t for t in asyncio.all_tasks(self.loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                self.loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            if close_loop:
                self.loop.close()


class AsyncioCluster(Deployment):
    """In-process N-site deployment on one asyncio loop + real sockets.

    The same :class:`~repro.core.bootstrap.Deployment` helpers as
    :class:`~repro.core.bootstrap.IsisCluster`, so one workload function
    can drive either driver — the basis of the differential smoke tests.
    A process-per-site launcher hosts one site per process
    (``local_sites=[i], boot=False``) and installs a genesis naming all
    of them (``boot(genesis_members=...)``).
    """

    def __init__(
        self,
        n_sites: int = 4,
        seed: int = 0,
        isis_config: Optional[IsisConfig] = None,
        udp_faults: Optional[UdpFaults] = None,
        host: str = "127.0.0.1",
        base_port: Optional[int] = None,
        hosts: Optional[Dict[int, str]] = None,
        local_sites: Optional[List[int]] = None,
        boot: bool = True,
    ):
        self.runtime = AsyncioRuntime(
            n_sites=n_sites, local_sites=local_sites, seed=seed, host=host,
            base_port=base_port, hosts=hosts, udp_faults=udp_faults)
        super().__init__(self.runtime.scheduler, self.runtime.sites,
                         n_sites, isis_config, boot)

    # -- loop control ----------------------------------------------------
    def run_for(self, duration: float) -> None:
        self.runtime.run_for(duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  poll: float = 0.005) -> bool:
        return self.runtime.run_until(predicate, timeout, poll=poll)

    def shutdown(self, close_loop: bool = True) -> None:
        self.runtime.shutdown(close_loop=close_loop)
