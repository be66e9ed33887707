"""Cluster bootstrap: wire kernels to sites and install the genesis view.

ISIS was started from a configuration file naming the participating
sites; :class:`Deployment` plays that role, once, for both drivers.  It
attaches a protocols process to every site boot, installs the initial
site view and holds the helpers a workload drives a deployment through
(``site`` / ``kernel`` / ``spawn`` / ``crash_site`` / ``restart_site``).
Sites that boot *later* (recoveries) join the running system through the
site-view join protocol instead.

A subclass builds the sites and runs its clock: :class:`IsisCluster`
the simulator, the LAN and simulated sites;
:class:`repro.runtime.asyncio_driver.AsyncioCluster` an event loop and
sites on real sockets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..net.bulk import BulkConfig
from ..net.lan import LanConfig
from ..runtime.driver import Scheduler
from ..runtime.process import IsisProcess
from ..runtime.site import BaseSite, Cluster
from ..runtime.stable import StorageFaults
from ..sim.core import Simulator
from .groups import Isis
from .kernel import IsisConfig, ProtocolsProcess


class Deployment:
    """``n_sites`` configured sites, of which ``sites`` are hosted here."""

    def __init__(self, sim: Scheduler, sites: Dict[int, BaseSite],
                 n_sites: int, isis_config: Optional[IsisConfig] = None,
                 boot: bool = True):
        self.sim = sim
        self.sites = sites
        self.config = isis_config or IsisConfig()
        self._genesis_done = False
        self._all_sites = list(range(n_sites))
        for site in sites.values():
            site.on_boot(self._boot_kernel)
        if boot:
            self.boot()

    def _boot_kernel(self, site: BaseSite) -> None:
        ProtocolsProcess(
            site,
            all_sites=self._all_sites,
            config=self.config,
            join_existing=self._genesis_done,
        )

    def boot(self, genesis_members: Optional[List[Tuple[int, int]]] = None
             ) -> None:
        """Boot the hosted sites and install the genesis site view.

        A process-per-site launcher hosts one site per process but must
        install a genesis naming *all* sites; it passes
        ``genesis_members=[(i, 0) for i in range(n)]`` explicitly.
        """
        for site in self.sites.values():
            if not site.up:
                site.boot()
        members = genesis_members if genesis_members is not None else [
            (site.site_id, site.incarnation) for site in self.sites.values()]
        for site in self.sites.values():
            site.kernel.agent.genesis(members)
        self._genesis_done = True

    # -- access helpers --------------------------------------------------
    def site(self, site_id: int) -> BaseSite:
        return self.sites[site_id]

    def kernel(self, site_id: int) -> ProtocolsProcess:
        kernel = self.sites[site_id].kernel
        if kernel is None:
            raise RuntimeError(f"site {site_id} has no kernel (down?)")
        return kernel

    def spawn(self, site_id: int, name: str) -> Tuple[IsisProcess, Isis]:
        """Create an application process and its toolkit handle."""
        process = self.sites[site_id].spawn_process(name)
        return process, Isis(process)

    def crash_site(self, site_id: int) -> None:
        self.sites[site_id].crash()

    def restart_site(self, site_id: int) -> None:
        self.sites[site_id].boot()

    @property
    def now(self) -> float:
        return self.sim.now


class IsisCluster(Deployment):
    """A ready-to-use simulated ISIS deployment."""

    sim: Simulator

    def __init__(
        self,
        n_sites: int = 4,
        seed: int = 0,
        lan_config: Optional[LanConfig] = None,
        bulk_config: Optional[BulkConfig] = None,
        isis_config: Optional[IsisConfig] = None,
        boot: bool = True,
        storage_faults: Optional[StorageFaults] = None,
    ):
        sim = Simulator(seed=seed)
        self.cluster = Cluster(sim, n_sites=n_sites,
                               lan_config=lan_config,
                               bulk_config=bulk_config,
                               storage_faults=storage_faults)
        super().__init__(sim, self.cluster.sites, n_sites, isis_config, boot)

    # -- simulation control ----------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        return self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: float) -> int:
        return self.sim.run(until=self.sim.now + duration)
