"""Remote execution service (§4: "the remote execution service").

A tiny per-site service that instantiates registered programs on request
from other sites.  The §5 twenty-questions service uses it for *step 3 —
automatic member restart*: the oldest member asks an operational site to
spawn a replacement when membership drops below target.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.kernel import ProtocolsProcess
from ..msg.message import Message


def install_rexec(system) -> None:
    """Attach the remote-execution service to every site's kernel."""

    def attach(site) -> None:
        kernel: ProtocolsProcess = site.kernel

        def spawn(src_site: int, record: tuple) -> None:
            _, program, args = record
            if program not in site.cluster.programs:
                return
            kernel.sim.trace.bump("tool.rexec_spawns")
            site.run_program(program, *(args or ()))

        kernel.attach("rx.spawn", spawn)

    for site in system.cluster.sites.values():
        site.on_boot(attach)
        if site.up and getattr(site, "kernel", None) is not None:
            attach(site)


def remote_spawn(kernel: ProtocolsProcess, site_id: int, program: str,
                 *args: Any) -> None:
    """Ask ``site_id`` to instantiate ``program(*args)``."""
    kernel.send_to_site(site_id, Message(
        _proto="rx.spawn", program=program, args=list(args)))
