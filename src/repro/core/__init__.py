"""Virtual synchrony core: groups, views, CBCAST/ABCAST/GBCAST, flush."""

from .bootstrap import IsisCluster
from .cbcast import CausalReceiver
from .engine import ABCAST, CBCAST, GroupEngine
from .flush import FlushCoordinator, FlushReason
from .groups import GBCAST, Isis, toolkit
from .kernel import KILL_ENTRY, IsisConfig, ProtocolsProcess
from .namespace import Namespace
from .rpc import ALL, CC_REPLY_ENTRY, Session, SessionTable
from .store import MessageStore
from .view import View

__all__ = [
    "IsisCluster",
    "Isis",
    "toolkit",
    "IsisConfig",
    "ProtocolsProcess",
    "GroupEngine",
    "View",
    "MessageStore",
    "CausalReceiver",
    "FlushCoordinator",
    "FlushReason",
    "Namespace",
    "SessionTable",
    "Session",
    "ALL",
    "CBCAST",
    "ABCAST",
    "GBCAST",
    "KILL_ENTRY",
    "CC_REPLY_ENTRY",
]
