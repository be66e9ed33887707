"""Computing sites and the cluster that connects them.

A *site* (§2.1) hosts processes and can crash as a unit; a crashed site
can later reboot with a new incarnation number, at which point its stable
store is intact but all processes are gone (the recovery manager restarts
registered programs).  The :class:`Cluster` owns the LAN, the bulk
channel, the per-site stable stores and the program registry — everything
that outlives any individual site incarnation.

:class:`BaseSite` is the site: the boot / crash lifecycle, process
hosting, the handler plumbing for the three inbound paths (ordered
messages, raw datagrams, bulk chunks) and the two sends exist there
once.  A driver's subclass supplies only its wire, its CPU and its
clock: :class:`Site` the simulated LAN transport, the modeled CPU and
the simulated bulk channel, the asyncio driver's
:class:`repro.runtime.asyncio_driver.NetSite` real sockets.  What the
kernel reads of either is declared in :mod:`repro.runtime.driver`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import IsisError, SiteDown
from ..net.bulk import BulkChannel, BulkStream
from ..net.lan import INTRA_SITE_DELAY, Lan
from ..net.transport import Transport
from ..sim.core import Simulator
from ..sim.cpu import Cpu
from .driver import SiteTransport
from .process import IsisProcess
from .program import ProgramRegistry
from .stable import StableStore, StorageFaults

#: local_id 0 is reserved for the per-site protocols process (kernel).
KERNEL_LOCAL_ID = 0


class BaseSite:
    """One computing site: lifecycle, hosted processes, handlers, sends.

    A driver subclasses this and supplies, from its constructor,
    ``sim`` (clock, timers, trace), ``cpu`` (``submit``), ``stable``
    (the disk that outlives incarnations), ``cluster`` (its
    ``.programs`` is the tools' program registry) and
    ``local_hop_delay``; and three methods: :meth:`_open_wire`,
    :meth:`_close_wire` and ``open_bulk_stream(dst_site)``.
    """

    def __init__(self, site_id: int):
        self.site_id = site_id
        self.incarnation = -1  # becomes 0 on first boot
        #: True restart count.  ``incarnation`` is the bounded *wire*
        #: value (one address byte / transport epoch); it wraps modulo
        #: 256 with modular-window comparisons on every consumer (Salem &
        #: Schiller bounded counters), so a site may restart forever.
        self.incarnations_total = 0
        self.processes: Dict[int, IsisProcess] = {}
        self.up = False
        #: This incarnation's transport; ``None`` exactly while down.
        self.transport: Optional[SiteTransport] = None
        #: The protocols process of the latest incarnation (it installs
        #: itself; a dead one stays readable for its counters).
        self.kernel: Any = None
        self._next_local_id = KERNEL_LOCAL_ID + 1
        self._message_handler: Optional[Callable[[int, bytes], None]] = None
        self._raw_handler: Optional[Callable[[int, bytes], None]] = None
        self._bulk_handler: Optional[Callable[[int, bytes], None]] = None
        self._boot_hooks: List[Callable[["BaseSite"], None]] = []
        self._crash_hooks: List[Callable[["BaseSite"], None]] = []

    # -- what a driver supplies ---------------------------------------------
    def _open_wire(self) -> SiteTransport:
        """Build this incarnation's transport (feeding
        :meth:`_on_transport_message`) and whatever else listens."""
        raise NotImplementedError

    def _close_wire(self) -> None:
        """Close what :meth:`_open_wire` opened besides the transport."""

    # -- lifecycle ----------------------------------------------------------
    def on_boot(self, hook: Callable[["BaseSite"], None]) -> None:
        """Run ``hook(site)`` at every boot (the core layer installs its
        protocols process through this)."""
        self._boot_hooks.append(hook)

    def on_crash(self, hook: Callable[["BaseSite"], None]) -> None:
        self._crash_hooks.append(hook)

    def boot(self) -> None:
        """Start (or restart) the site with a fresh incarnation."""
        if self.up:
            raise IsisError(f"site {self.site_id} is already up")
        self.incarnations_total += 1
        self.incarnation = (self.incarnation + 1) & 0xFF
        self.processes = {}
        self._next_local_id = KERNEL_LOCAL_ID + 1
        self.transport = self._open_wire()
        self.transport.on_raw = self._on_transport_raw
        self.up = True
        self.sim.trace.log("site.boot", (self.site_id, self.incarnation))
        for hook in self._boot_hooks:
            hook(self)

    def crash(self) -> None:
        """Fail-stop the whole site: all processes die, the NIC goes dark."""
        if not self.up:
            return
        self.up = False
        self.sim.trace.log("site.crash", (self.site_id, self.incarnation))
        for process in list(self.processes.values()):
            process.kill()
        self.processes = {}
        self.transport.shutdown()
        self.transport = None
        self._close_wire()
        self._message_handler = None
        self._raw_handler = None
        self._bulk_handler = None
        self.stable.note_crash()
        for hook in self._crash_hooks:
            hook(self)

    # -- processes ----------------------------------------------------------
    def spawn_process(self, name: str, local_id: Optional[int] = None) -> IsisProcess:
        """Create a process at this site."""
        if not self.up:
            raise SiteDown(f"site {self.site_id} is down")
        if local_id is None:
            local_id = self._next_local_id
            self._next_local_id += 1
        if local_id in self.processes:
            raise IsisError(f"local id {local_id} in use at site {self.site_id}")
        process = IsisProcess(self, local_id, name)
        self.processes[local_id] = process
        process.watch_death(self._process_died)
        return process

    def _process_died(self, process: IsisProcess) -> None:
        self.processes.pop(process.local_id, None)

    def process_by_id(self, local_id: int) -> Optional[IsisProcess]:
        return self.processes.get(local_id)

    def run_program(self, program: str, *args: Any, **kwargs: Any) -> IsisProcess:
        """Instantiate a registered program as a new process (rexec)."""
        factory = self.cluster.programs.lookup(program)
        process = self.spawn_process(name=program)
        factory(process, *args, **kwargs)
        return process

    # -- inbound handler plumbing -------------------------------------------
    def set_message_handler(self, handler: Callable[[int, bytes], None]) -> None:
        """Install the kernel's handler for inbound transport messages."""
        self._message_handler = handler

    def set_raw_handler(self, handler: Callable[[int, bytes], None]) -> None:
        """Install the kernel's handler for inbound raw datagrams."""
        self._raw_handler = handler

    def set_bulk_handler(self, handler: Callable[[int, bytes], None]) -> None:
        """Install the kernel's handler for inbound bulk blobs."""
        self._bulk_handler = handler

    def _on_transport_message(self, src_site: int, data: bytes) -> None:
        if self._message_handler is not None:
            self._message_handler(src_site, data)
        else:
            self.sim.trace.bump("site.dropped.nokernel")

    def _on_transport_raw(self, src_site: int, payload: bytes) -> None:
        if self._raw_handler is not None:
            self._raw_handler(src_site, payload)

    def deliver_bulk(self, src_site: int, data: bytes) -> None:
        """A completed bulk transfer arrived (driver-internal use)."""
        if self._bulk_handler is not None:
            self._bulk_handler(src_site, data)

    # -- outbound -----------------------------------------------------------
    def send_bytes(self, dst_site: int, data: bytes):
        """Reliable FIFO send to another site (kernel use)."""
        if not self.up:
            raise SiteDown(f"site {self.site_id} is down")
        return self.transport.send(dst_site, data)

    def send_raw(self, dst_site: int, payload: bytes) -> None:
        """Fire-and-forget datagram (heartbeats); silent no-op when down."""
        if self.up:
            self.transport.send_raw(dst_site, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return (f"<{type(self).__name__} {self.site_id} "
                f"inc={self.incarnation} {state}>")


class Site(BaseSite):
    """A simulated site: modeled CPU, a NIC on the simulated LAN."""

    def __init__(self, cluster: "Cluster", site_id: int):
        super().__init__(site_id)
        self.cluster = cluster
        self.local_hop_delay = INTRA_SITE_DELAY
        self.sim: Simulator = cluster.sim
        self.cpu = Cpu(self.sim, name=f"cpu{site_id}")
        self.stable = cluster.stable_store(site_id)

    def _open_wire(self) -> Transport:
        return Transport(
            self.sim,
            self.cluster.lan,
            self.site_id,
            epoch=self.incarnation,
            cpu=self.cpu,
            on_message=self._on_transport_message,
        )

    def open_bulk_stream(self, dst_site: int) -> Optional[BulkStream]:
        """Open a persistent bulk connection (chunked state transfer).

        Returns ``None`` when the destination is unreachable.  Chunk
        sends resolve once the receiver's bulk handler has consumed the
        chunk; after ``close()``, in-flight chunks are dropped without
        delivery (connection reset semantics).
        """
        dst = self.cluster.sites.get(dst_site)
        if dst is None or not dst.up:
            return None
        return self.cluster.bulk.stream(
            self.site_id, dst_site, self.cpu, dst.cpu, dst.deliver_bulk)


class Cluster:
    """The whole simulated distributed system."""

    def __init__(
        self,
        sim: Simulator,
        n_sites: int = 4,
        loss_rate: float = 0.0,
        storage_faults: Optional[StorageFaults] = None,
    ):
        self.sim = sim
        self.lan = Lan(sim, loss_rate)
        self.bulk = BulkChannel(sim, self.lan)
        self.programs = ProgramRegistry()
        self.storage_faults = storage_faults
        self._stores: Dict[int, StableStore] = {}
        self.sites: Dict[int, Site] = {}
        for site_id in range(n_sites):
            self.sites[site_id] = Site(self, site_id)

    def stable_store(self, site_id: int) -> StableStore:
        """The durable disk for ``site_id`` (shared across incarnations)."""
        store = self._stores.get(site_id)
        if store is None:
            store = StableStore(self.sim, site_id,
                                faults=self.storage_faults)
            self._stores[site_id] = store
        return store

    def site(self, site_id: int) -> Site:
        return self.sites[site_id]

    def boot_all(self) -> None:
        for site in self.sites.values():
            if not site.up:
                site.boot()

    def up_sites(self) -> List[int]:
        return sorted(s.site_id for s in self.sites.values() if s.up)
