"""isis-vs — a reproduction of "Exploiting Virtual Synchrony in
Distributed Systems" (Birman & Joseph, SOSP 1987).

Quick start::

    from repro import IsisCluster, ALL

    system = IsisCluster(n_sites=4, seed=1)
    server, isis = system.spawn(0, "server")
    # ... bind entries, create groups, multicast; see examples/.
    system.run_for(10.0)

The public surface mirrors the ISIS toolkit: process groups with
age-ranked views, CBCAST / ABCAST / GBCAST multicast primitives, group
RPC with reply collection, and the §3 tools (coordinator-cohort,
replicated data, semaphores, configuration, state transfer, recovery,
news, protection) in :mod:`repro.tools`.
"""

from .core import (
    ALL,
    ABCAST,
    CBCAST,
    GBCAST,
    Isis,
    IsisCluster,
    IsisConfig,
    View,
    toolkit,
)
from .errors import (
    BroadcastFailed,
    GroupError,
    IsisError,
    JoinRefused,
    NoSuchGroup,
    ProtectionError,
    RecoveryError,
    SemaphoreError,
    SiteDown,
    StateTransferError,
)
from .msg import Address, Message
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "IsisCluster",
    "IsisConfig",
    "Isis",
    "toolkit",
    "View",
    "ALL",
    "CBCAST",
    "ABCAST",
    "GBCAST",
    "Address",
    "Message",
    "Simulator",
    "IsisError",
    "GroupError",
    "NoSuchGroup",
    "JoinRefused",
    "BroadcastFailed",
    "SiteDown",
    "StateTransferError",
    "RecoveryError",
    "ProtectionError",
    "SemaphoreError",
    "__version__",
]
