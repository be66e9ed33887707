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

* :class:`AsyncioScheduler` — adapts ``loop.time``/``loop.call_later``
  to the :class:`~repro.runtime.driver.Scheduler` protocol, with a
  :class:`~repro.sim.trace.Trace` and seeded RNG streams.  It tracks
  outstanding timer handles so teardown tests can assert none leak.
* :class:`RealCpu` — API twin of :class:`repro.sim.cpu.Cpu`: work runs
  immediately (cost is advisory on real hardware), utilization metering
  uses ``time.process_time``.
* :class:`NetSite` — :class:`repro.runtime.site.BaseSite` over real
  sockets; satisfies the same surface the kernel uses on the sim
  :class:`~repro.runtime.site.Site`.
* :class:`AsyncioRuntime` — per-OS-process driver state: the loop, the
  scheduler, the peer endpoint tables and the locally hosted sites.  It
  also holds the program registry the tools read through
  ``site.cluster.programs``.
* :class:`AsyncioCluster` — in-process mirror of
  :class:`repro.core.bootstrap.IsisCluster` (same ``spawn`` / ``kernel``
  / ``run_for`` helpers) hosting all N sites on one loop with real
  localhost sockets: what the differential tests drive.

The simulator remains the default everywhere; this driver is reached
only through these explicit entry points (and ``scripts/run_site.py``).
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import IsisError, SiteDown
from ..net.udp import TcpBulk, TcpBulkStream, UdpConfig, UdpTransport
from ..sim.rand import RngRegistry
from ..sim.tasks import Promise
from ..sim.trace import Trace
from .program import ProgramRegistry
from .site import BaseSite
from .stable import StableStore


class AsyncioTimer:
    """Cancellable handle over an asyncio timer callback."""

    __slots__ = ("_handle", "_scheduler", "_key", "cancelled")

    def __init__(self, scheduler: "AsyncioScheduler", key: int,
                 handle: asyncio.TimerHandle):
        self._scheduler = scheduler
        self._key = key
        self._handle = handle
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            self._handle.cancel()
            self._scheduler._outstanding.pop(self._key, None)


class AsyncioScheduler:
    """Wall-clock :class:`~repro.runtime.driver.Scheduler` over asyncio.

    ``now`` is monotonic seconds since scheduler creation (the kernel
    only compares and subtracts ``now`` values, so the origin is free).
    Timers are ``loop.call_later`` under the hood; every live handle is
    tracked so shutdown audits can assert nothing was left armed.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None,
                 seed: int = 0):
        self.loop = loop or asyncio.new_event_loop()
        self._t0 = self.loop.time()
        self.seed = seed
        self._rngs = RngRegistry(seed)
        self.trace = Trace(self)  # Trace only reads ._sim.now
        self._outstanding: Dict[int, AsyncioTimer] = {}
        self._next_key = 0
        self._fired = 0

    @property
    def now(self) -> float:
        """Seconds since driver start (monotonic)."""
        return self.loop.time() - self._t0

    # -- scheduling ------------------------------------------------------
    def _schedule(self, delay: float, fn: Callable, args: tuple) -> AsyncioTimer:
        key = self._next_key
        self._next_key += 1

        def fire() -> None:
            self._outstanding.pop(key, None)
            self._fired += 1
            fn(*args)

        handle = self.loop.call_later(max(0.0, delay), fire)
        timer = AsyncioTimer(self, key, handle)
        self._outstanding[key] = timer
        return timer

    def call_at(self, when: float, fn: Callable, *args: Any) -> AsyncioTimer:
        """Schedule ``fn(*args)`` at absolute scheduler time ``when``."""
        return self._schedule(when - self.now, fn, args)

    def call_after(self, delay: float, fn: Callable, *args: Any) -> AsyncioTimer:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        return self._schedule(delay, fn, args)

    def call_soon(self, fn: Callable, *args: Any) -> AsyncioTimer:
        """Schedule ``fn(*args)`` on the next loop tick."""
        return self._schedule(0.0, fn, args)

    def rng(self, stream: str):
        """Deterministic named RNG substream (same derivation as the sim)."""
        return self._rngs.stream(stream)

    # -- diagnostics -----------------------------------------------------
    def outstanding_timers(self) -> int:
        """Timers armed but not yet fired or cancelled (teardown audit)."""
        return len(self._outstanding)

    def stats(self) -> Dict[str, int]:
        return {
            "timers.outstanding": len(self._outstanding),
            "timers.fired": self._fired,
        }


class RealCpuMeter:
    """Utilization between two points of real process time."""

    def __init__(self) -> None:
        self._wall0 = time.monotonic()
        self._cpu0 = time.process_time()

    def utilization(self) -> float:
        wall = max(1e-9, time.monotonic() - self._wall0)
        return (time.process_time() - self._cpu0) / wall


class RealCpu:
    """API twin of the simulated :class:`~repro.sim.cpu.Cpu`.

    On real hardware the modeled per-frame costs are advisory: ``submit``
    runs the work on the next loop tick regardless of ``cost`` (charging
    fake delays would double-count the real CPU the work already burns).
    """

    def __init__(self, scheduler: AsyncioScheduler, name: str = "cpu"):
        self.scheduler = scheduler
        self.sim = scheduler  # sim-compat alias (Cpu exposes .sim)
        self.name = name

    def submit(self, cost: float, fn: Optional[Callable] = None,
               *args: Any) -> Promise:
        """Run ``fn(*args)`` on the next tick; resolve with its result."""
        promise = Promise(label=f"{self.name}.work")

        def run() -> None:
            result = fn(*args) if fn is not None else None
            promise.resolve(result)

        self.scheduler.call_soon(run)
        return promise

    @property
    def backlog(self) -> float:
        return 0.0

    @property
    def ready_at(self) -> float:
        return self.scheduler.now

    def meter(self) -> RealCpuMeter:
        return RealCpuMeter()


class NetSite(BaseSite):
    """A computing site whose NIC is a real UDP socket pair.

    Satisfies the same seam as the simulator's
    :class:`~repro.runtime.site.Site`; the kernel cannot tell them
    apart.
    """

    def __init__(self, runtime: "AsyncioRuntime", site_id: int):
        super().__init__(site_id)
        self.runtime = runtime
        self.cluster = runtime  # the tools' program registry
        self.local_hop_delay = 0.0  # a real host: no modeled IPC hop
        self.sim = runtime.scheduler
        self.cpu = RealCpu(runtime.scheduler, name=f"cpu{site_id}")
        self.stable = StableStore(self.sim, site_id)
        self.transport: Optional[UdpTransport] = None
        self._bulk: Optional[TcpBulk] = None

    # -- lifecycle -------------------------------------------------------
    def boot(self) -> None:
        """Bind real sockets and start (or restart) the site."""
        if self.up:
            raise IsisError(f"site {self.site_id} is already up")
        self._reset_for_boot()
        udp_sock, tcp_sock = self.runtime.bind_site_sockets(self.site_id)
        self.transport = UdpTransport(
            self.sim,
            self.site_id,
            epoch=self.incarnation,
            sock=udp_sock,
            peers=self.runtime.udp_peers,
            on_message=self._on_transport_message,
            config=self.runtime.udp_config,
        )
        self.transport.on_raw = self._on_transport_raw
        self._bulk = TcpBulk(
            self.sim,
            self.site_id,
            sock=tcp_sock,
            peers=self.runtime.bulk_peers,
            on_blob=self.deliver_bulk,
        )
        self.up = True
        self.sim.trace.log("site.boot", (self.site_id, self.incarnation))
        for hook in self._boot_hooks:
            hook(self)

    def crash(self) -> None:
        """Fail-stop the site: processes die, sockets close."""
        if not self.up:
            return
        self.up = False
        self.sim.trace.log("site.crash", (self.site_id, self.incarnation))
        for process in list(self.processes.values()):
            process.kill()
        self.processes = {}
        if self.transport is not None:
            self.transport.shutdown()
            self.transport = None
        if self._bulk is not None:
            self._bulk.shutdown()
            self._bulk = None
        self._clear_handlers()
        for hook in self._crash_hooks:
            hook(self)

    def _note_dropped_no_kernel(self) -> None:
        self.sim.trace.bump("site.dropped.nokernel")

    # -- processes -------------------------------------------------------
    def run_program(self, program: str, *args: Any, **kwargs: Any):
        """Instantiate a registered program as a new process (rexec)."""
        factory = self.runtime.programs.lookup(program)
        process = self.spawn_process(name=program)
        factory(process, *args, **kwargs)
        return process

    # -- networking ------------------------------------------------------
    def send_bytes(self, dst_site: int, data: bytes):
        """Reliable FIFO send to another site (kernel use)."""
        if not self.up or self.transport is None:
            raise SiteDown(f"site {self.site_id} is down")
        return self.transport.send(dst_site, data)

    def send_raw(self, dst_site: int, payload: bytes) -> None:
        """Fire-and-forget datagram (heartbeats); silent no-op when down."""
        if self.up and self.transport is not None:
            self.transport.send_raw(dst_site, payload)

    def open_bulk_stream(self, dst_site: int) -> Optional[TcpBulkStream]:
        """Persistent TCP connection for chunked state transfer.

        Unreachable destinations surface as rejected chunk promises
        (connection refused / reset) rather than ``None`` — the kernel
        treats both as an aborted transfer.
        """
        if not self.up or self._bulk is None:
            return None
        return self._bulk.open_stream(dst_site)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<NetSite {self.site_id} inc={self.incarnation} {state}>"


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
        udp_config: Optional[UdpConfig] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ):
        self.n_sites = n_sites
        self.host = host
        self.base_port = base_port
        self.hosts = dict(hosts or {})
        self.loop = loop or asyncio.new_event_loop()
        self.scheduler = AsyncioScheduler(self.loop, seed=seed)
        self.programs = ProgramRegistry()
        self.udp_config = udp_config or UdpConfig()
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

    # -- site access / lifecycle ----------------------------------------
    def site(self, site_id: int) -> NetSite:
        return self.sites[site_id]

    def boot_all(self) -> None:
        for site in self.sites.values():
            if not site.up:
                site.boot()

    def up_sites(self) -> List[int]:
        return sorted(s.site_id for s in self.sites.values() if s.up)

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

    def drain(self, settle: float = 0.05) -> None:
        """Let closing connections and cancelled tasks unwind."""
        self.loop.run_until_complete(asyncio.sleep(settle))

    def shutdown(self, close_loop: bool = True) -> None:
        """Crash every local site, unwind tasks, optionally close the loop."""
        for site in self.sites.values():
            site.crash()
        if not self.loop.is_closed():
            try:
                self.drain()
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


class AsyncioCluster:
    """In-process N-site deployment on one asyncio loop + real sockets.

    Mirrors :class:`repro.core.bootstrap.IsisCluster`'s helper API
    (``spawn``, ``kernel``, ``run_for`` …) so one workload function can
    drive either driver — the basis of the differential smoke tests.
    """

    def __init__(
        self,
        n_sites: int = 4,
        seed: int = 0,
        isis_config: Optional["IsisConfig"] = None,
        udp_config: Optional[UdpConfig] = None,
        host: str = "127.0.0.1",
        base_port: Optional[int] = None,
        hosts: Optional[Dict[int, str]] = None,
        local_sites: Optional[List[int]] = None,
        boot: bool = True,
    ):
        from ..core.kernel import IsisConfig, ProtocolsProcess

        self._kernel_cls = ProtocolsProcess
        self.runtime = AsyncioRuntime(
            n_sites=n_sites, local_sites=local_sites, seed=seed, host=host,
            base_port=base_port, hosts=hosts, udp_config=udp_config)
        self.config = isis_config or IsisConfig()
        self._genesis_done = False
        self._all_sites = list(range(n_sites))
        for site in self.runtime.sites.values():
            site.on_boot(self._boot_kernel)
        if boot:
            self.boot()

    def _boot_kernel(self, site: BaseSite) -> None:
        self._kernel_cls(
            site,
            all_sites=self._all_sites,
            config=self.config,
            join_existing=self._genesis_done,
        )

    def boot(self, genesis_members: Optional[List[Tuple[int, int]]] = None
             ) -> None:
        """Boot local sites and install the genesis site view.

        A process-per-site launcher hosts one site per process but must
        install a genesis naming *all* sites; it passes
        ``genesis_members=[(i, 0) for i in range(n)]`` explicitly.
        """
        self.runtime.boot_all()
        members = genesis_members if genesis_members is not None else [
            (site.site_id, site.incarnation)
            for site in self.runtime.sites.values() if site.up
        ]
        for site in self.runtime.sites.values():
            if site.up:
                self.kernel(site.site_id).genesis(members)
        self._genesis_done = True

    # -- access helpers --------------------------------------------------
    def site(self, site_id: int) -> NetSite:
        return self.runtime.site(site_id)

    def kernel(self, site_id: int):
        kernel = getattr(self.runtime.site(site_id), "kernel", None)
        if kernel is None:
            raise RuntimeError(f"site {site_id} has no kernel (down?)")
        return kernel

    def spawn(self, site_id: int, name: str):
        """Create an application process and its toolkit handle."""
        from ..core.groups import Isis

        process = self.runtime.site(site_id).spawn_process(name)
        return process, Isis(process)

    # -- loop control ----------------------------------------------------
    def run_for(self, duration: float) -> None:
        self.runtime.run_for(duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  poll: float = 0.005) -> bool:
        return self.runtime.run_until(predicate, timeout, poll=poll)

    def crash_site(self, site_id: int) -> None:
        self.runtime.site(site_id).crash()

    def shutdown(self, close_loop: bool = True) -> None:
        self.runtime.shutdown(close_loop=close_loop)

    @property
    def now(self) -> float:
        return self.runtime.scheduler.now
