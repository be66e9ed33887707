"""Failure detection: adaptive heartbeats and agreed site views."""

from .heartbeat import HeartbeatMonitor
from .siteview import SiteView, SiteViewAgent

__all__ = [
    "HeartbeatMonitor",
    "SiteView",
    "SiteViewAgent",
]
