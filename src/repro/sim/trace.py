"""Counters and an optional event log shared by every layer.

Two facilities:

* **Counters** — cheap named integers (``trace.bump("abcast.sent")``).
  The Table I benchmark audits *logical multicast counts* per toolkit
  routine through these.  :meth:`Trace.child` gives one site its own
  set: a bump there counts for the site and for the cluster, once.
* **Event log** — optional append-only list of ``(time, kind, detail)``
  records, enabled per-kind, used by the Figure 3 breakdown bench and by
  the determinism tests (same seed ⇒ same trace hash).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

TraceRecord = Tuple[float, str, Any]


class SiteCounters:
    """One site's counters; every bump also counts cluster-wide.

    The cluster's book is the sum of the sites' by construction, so a
    per-site reader (``ProtocolsProcess.stats()``) and a cluster-wide
    one (``Trace.value``) can never disagree about an event.
    """

    __slots__ = ("counters", "_cluster")

    def __init__(self, cluster: Counter):
        self.counters: Counter = Counter()
        self._cluster = cluster

    def bump(self, name: str, amount: float = 1) -> None:
        """Increment ``name`` here and in the cluster's counters."""
        self.counters[name] += amount
        self._cluster[name] += amount

    def value(self, name: str) -> float:
        """This site's value of ``name`` (0 if never bumped)."""
        return self.counters.get(name, 0)


class Trace:
    """Per-cluster metrics hub: one per simulator or asyncio scheduler."""

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self.counters: Counter = Counter()
        self.records: List[TraceRecord] = []
        self._enabled_kinds: set[str] = set()
        self._log_all = False

    # -- counters ------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self.counters.get(name, 0)

    def child(self) -> SiteCounters:
        """A site-scoped counter set feeding these cluster counters."""
        return SiteCounters(self.counters)

    def snapshot(self, prefix: str = "") -> Dict[str, int]:
        """Copy of all counters whose name starts with ``prefix``."""
        return {
            name: count
            for name, count in self.counters.items()
            if name.startswith(prefix)
        }

    def delta(self, before: Dict[str, int], prefix: str = "") -> Dict[str, int]:
        """Counter changes since ``before`` (a previous :meth:`snapshot`)."""
        out: Dict[str, int] = {}
        for name, count in self.snapshot(prefix).items():
            diff = count - before.get(name, 0)
            if diff:
                out[name] = diff
        return out

    # -- event log -----------------------------------------------------
    def enable(self, *kinds: str) -> None:
        """Start recording events of the given kinds ('*' = everything)."""
        if "*" in kinds:
            self._log_all = True
        self._enabled_kinds.update(kinds)

    def disable(self, *kinds: str) -> None:
        """Stop recording the given kinds."""
        for kind in kinds:
            self._enabled_kinds.discard(kind)
            if kind == "*":
                self._log_all = False

    def log(self, kind: str, detail: Any = None) -> None:
        """Append a record if ``kind`` is enabled."""
        if self._log_all or kind in self._enabled_kinds:
            self.records.append((self._sim.now, kind, detail))

    def events(self, kind: str) -> Iterable[TraceRecord]:
        """All recorded events of one kind."""
        return [r for r in self.records if r[1] == kind]

    def digest(self) -> str:
        """Stable hash of the event log — the determinism oracle."""
        hasher = hashlib.sha256()
        for time, kind, detail in self.records:
            hasher.update(f"{time:.9f}|{kind}|{detail!r}\n".encode("utf-8"))
        return hasher.hexdigest()

    def clear(self) -> None:
        """Drop all counters and records."""
        self.counters.clear()
        self.records.clear()
