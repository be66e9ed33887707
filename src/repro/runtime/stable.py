"""Simulated stable storage: per-site disks that survive crashes.

§2.2 "Stable storage": *"If processes need to recover their state after a
failure, a mechanism is needed for creating periodic checkpoints or logs
that can be replayed on recovery."*

A :class:`StableStore` belongs to the *site*, not to any process or
incarnation: crashing and restarting the site leaves its contents intact,
which is what lets the recovery manager replay logs after even a total
failure.  Writes pay a (simulated) disk latency; reads are free, as the
paper's tools only read during recovery.

Crash honesty is configurable via :class:`StorageFaults`.  The default
(``faults=None``) keeps the historical model — a write accepted before
the crash still lands, as if the OS flushed it on the way down — which
existing tools depend on.  With faults enabled the store models a real
disk: a crash drops every write whose latency had not yet elapsed
(``lose_unsynced``), and the write the disk head was in the middle of may
survive only as a *torn* byte-prefix (``torn_tail_prob``), which is why
the WAL layer checksums its records (:mod:`repro.core.wal`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.core import Simulator
from ..sim.tasks import Promise

#: The simulated disk's latency for one write or append.
WRITE_LATENCY = 0.020


@dataclass
class StorageFaults:
    """How dishonest the disk is allowed to be about crashes."""

    #: Crash drops writes/appends whose disk latency had not elapsed.
    lose_unsynced: bool = True
    #: Probability that the append in flight at crash time survives as a
    #: torn byte-prefix instead of vanishing entirely (requires
    #: ``lose_unsynced``; replay must detect and discard the tail).
    torn_tail_prob: float = 0.0
    #: Extra per-operation latency modelling an explicit fsync.
    fsync_latency: float = 0.0
    #: Deterministic fault schedule (mixed with the site id).
    seed: int = 0


class _Pending:
    """One unsynced operation: its commit closure checks ``lost``."""

    __slots__ = ("kind", "target", "data", "lost")

    def __init__(self, kind: str, target: str, data: bytes):
        self.kind = kind
        self.target = target
        self.data = data
        self.lost = False


class StableStore:
    """Keyed blobs plus append-only logs, durable across site restarts."""

    def __init__(self, sim: Simulator, site_id: int,
                 faults: Optional[StorageFaults] = None):
        self.sim = sim
        self.site_id = site_id
        self.faults = faults
        self._blobs: Dict[str, bytes] = {}
        self._logs: Dict[str, List[bytes]] = {}
        self._pending: List[_Pending] = []
        self._rng = random.Random(
            ((faults.seed if faults else 0) << 8) ^ (site_id * 7919))

    def _latency(self) -> float:
        extra = self.faults.fsync_latency if self.faults else 0.0
        return WRITE_LATENCY + extra

    # -- keyed blobs (checkpoints, registrations) ------------------------
    def write(self, key: str, data: bytes) -> Promise:
        """Durably store ``data`` under ``key``; resolves after disk latency."""
        promise = Promise(label=f"disk{self.site_id}.write({key})")
        op = _Pending("write", key, bytes(data))
        self._pending.append(op)

        def commit() -> None:
            if op in self._pending:
                self._pending.remove(op)
            if op.lost:
                return  # crashed before the flush reached the platter
            self._blobs[op.target] = op.data
            self.sim.trace.bump("stable.writes")
            promise.resolve(None)

        self.sim.post(self._latency(), commit)
        return promise

    def read(self, key: str) -> Optional[bytes]:
        """Latest durable value for ``key`` (None if never written)."""
        return self._blobs.get(key)

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._blobs if k.startswith(prefix))

    # -- append-only logs ----------------------------------------------------
    def append(self, log: str, record: bytes) -> Promise:
        """Append ``record`` to ``log``; resolves after disk latency."""
        promise = Promise(label=f"disk{self.site_id}.append({log})")
        op = _Pending("append", log, bytes(record))
        self._pending.append(op)

        def commit() -> None:
            if op in self._pending:
                self._pending.remove(op)
            if op.lost:
                return
            self._logs.setdefault(op.target, []).append(op.data)
            self.sim.trace.bump("stable.appends")
            promise.resolve(None)

        self.sim.post(self._latency(), commit)
        return promise

    def read_log(self, log: str) -> List[bytes]:
        """All records of ``log`` in append order."""
        return list(self._logs.get(log, ()))

    def log_names(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._logs if k.startswith(prefix))

    def truncate_log(self, log: str, keep_from: int = 0) -> None:
        """Drop records before index ``keep_from`` (after a checkpoint)."""
        records = self._logs.get(log)
        if records is not None:
            self._logs[log] = records[keep_from:]

    def replace_log(self, log: str, records: List[bytes]) -> None:
        """Rewrite a log in place (boot-time repair after a torn tail)."""
        if records:
            self._logs[log] = [bytes(r) for r in records]
        else:
            self._logs.pop(log, None)

    def delete_log(self, log: str) -> None:
        self._logs.pop(log, None)

    # -- crash semantics -----------------------------------------------------
    def note_crash(self) -> None:
        """The owning site crashed: settle the fate of unsynced writes.

        Without a fault model this is a no-op (writes in flight still
        commit — the historical behavior).  With ``lose_unsynced`` every
        pending operation vanishes, except that the *oldest* pending
        append — the one the disk head was plausibly in the middle of —
        may land as a torn byte-prefix with ``torn_tail_prob``.
        """
        faults = self.faults
        if faults is None or not faults.lose_unsynced:
            return
        pending, self._pending = self._pending, []
        if not pending:
            return
        head = pending[0]
        if (head.kind == "append" and len(head.data) > 1
                and self._rng.random() < faults.torn_tail_prob):
            cut = self._rng.randrange(1, len(head.data))
            self._logs.setdefault(head.target, []).append(head.data[:cut])
            self.sim.trace.bump("stable.torn_tails")
        for op in pending:
            op.lost = True
        self.sim.trace.bump("stable.lost_unsynced", len(pending))
