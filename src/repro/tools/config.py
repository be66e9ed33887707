"""Configuration tool (§3.3).

*"This tool allows a process group to maintain a configuration data
structure, much like the one that lists membership ... it will appear
that configuration changes occur when no multicasts to the group are
pending, hence all recipients of a message will see the same group
configuration when a message arrives."*

Updates travel as GBCASTs (Table I: ``conf_update`` = 1 GBCAST), so they
are ordered relative to every other multicast and membership change;
reads are local (Table I: ``conf_read`` = no cost).  The configuration is
a state-transfer segment, so joiners arrive with the current values.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.groups import Isis
from ..msg.address import Address
from ..msg.message import Message
from ..sim.tasks import Promise
from .entries import CONFIG_ENTRY
from .transfer import register_state


class ConfigTool:
    """One member's replica of the group configuration."""

    def __init__(self, isis: Isis, gid: Address):
        self.isis = isis
        self.gid = gid
        self._config: Dict[str, Any] = {}
        self._version = 0
        self._watchers: List[Callable[[str, Any], None]] = []
        isis.process.bind(CONFIG_ENTRY, self._on_update)
        register_state(isis, f"config:{gid}", self._state, self._restore)

    # -- API ----------------------------------------------------------------
    def update(self, item: str, value: Any, nwant: int = 0) -> Promise:
        """conf_update: propagate an item change to every member."""
        self.isis.sim.trace.bump("tool.conf_update")
        return self.isis.gbcast(self.gid, CONFIG_ENTRY, nwant=nwant,
                                item=item, value=value)

    def read(self, item: str, default: Any = None) -> Any:
        """conf_read: local, no communication (Table I: 'No cost')."""
        self.isis.sim.trace.bump("tool.conf_read")
        return self._config.get(item, default)

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._config)

    @property
    def version(self) -> int:
        """Number of updates applied (same at every member per message)."""
        return self._version

    def watch(self, callback: Callable[[str, Any], None]) -> None:
        """Invoke ``callback(item, value)`` whenever an update applies."""
        self._watchers.append(callback)

    # -- delivery ----------------------------------------------------------------
    def _on_update(self, msg: Message) -> None:
        item = msg["item"]
        value = msg["value"]
        self._config[item] = value
        self._version += 1
        for watcher in self._watchers:
            watcher(item, value)

    # -- state transfer ------------------------------------------------------------
    def _state(self) -> list:
        return [self._version, self._config]

    def _restore(self, state: list) -> None:
        self._version, config = state
        self._config = dict(config)
