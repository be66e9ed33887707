"""Transactional facility (§3.11 — designed in the paper, built here).

*"We have also designed a transactional facility, providing a simple
subroutine interface implementing the nested transaction constructs
begin, commit, and abort [Moss], which the user simply includes in his
or her code.  Transactional access to stable storage and 2-phase locks
will be provided, using the algorithms (and much of the code!) reported
in [Joseph] [Birman-b]."*

This is the paper's *future work* item, implemented as an extension:

* **2-phase locking** via the replicated semaphore tool — one exclusive
  lock per item, acquired on first touch, all released at top-level
  commit/abort (strict 2PL);
* **updates** applied through the replicated data tool with ABCAST
  ordering, so committed writes are totally ordered across transactions;
* **nesting** in the [Moss] style: a child's writes and locks are
  inherited by its parent on commit, discarded on abort;
* **stable storage**: run with ``IsisConfig.durability`` and committed
  writes survive total failures — the kernel's write-ahead log holds
  every update the data tool delivered, and the recovery manager
  replays it.

All methods that can block are generators: ``yield from txn.read(k)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..errors import TransactionAborted
from ..core.groups import Isis
from .replication import ReplicatedData
from .semaphore import SemaphoreClient

_ACTIVE = "active"
_COMMITTED = "committed"
_ABORTED = "aborted"


class Transaction:
    """One (possibly nested) transaction."""

    def __init__(self, tool: "TransactionTool",
                 parent: Optional["Transaction"] = None):
        self.tool = tool
        self.parent = parent
        self.state = _ACTIVE
        self._writes: Dict[str, Any] = {}
        self._locks: Set[str] = set()

    # -- helpers -----------------------------------------------------------
    def _check_active(self) -> None:
        if self.state != _ACTIVE:
            raise TransactionAborted(f"transaction is {self.state}")

    def _holds(self, key: str) -> bool:
        txn: Optional[Transaction] = self
        while txn is not None:
            if key in txn._locks:
                return True
            txn = txn.parent
        return False

    def _lookup_write(self, key: str):
        txn: Optional[Transaction] = self
        while txn is not None:
            if key in txn._writes:
                return True, txn._writes[key]
            txn = txn.parent
        return False, None

    def _acquire(self, key: str):
        if not self._holds(key):
            try:
                yield self.tool.locks.p(f"txn:{key}")
            except Exception:
                yield from self.abort()
                raise
            self._locks.add(key)

    # -- operations ---------------------------------------------------------
    def read(self, key: str):
        """2PL read: lock, then see our own (or an ancestor's) writes."""
        self._check_active()
        yield from self._acquire(key)
        hit, value = self._lookup_write(key)
        if hit:
            return value
        return self.tool.data.read(key)

    def write(self, key: str, value: Any):
        """2PL write: lock, then buffer until commit."""
        self._check_active()
        yield from self._acquire(key)
        self._writes[key] = value

    def commit(self):
        """Make writes durable (top level) or merge into the parent."""
        self._check_active()
        self.state = _COMMITTED
        if self.parent is not None:
            # [Moss]: the parent inherits the child's writes and locks.
            self.parent._writes.update(self._writes)
            self.parent._locks |= self._locks
            self._locks = set()
            return
        for key, value in self._writes.items():
            yield self.tool.data.update(key, nwant=1, value=value)
        yield from self._release_all()
        self.tool.isis.sim.trace.bump("tool.txn_commits")

    def abort(self):
        """Discard writes; release only locks acquired at this level."""
        if self.state != _ACTIVE:
            return
        self.state = _ABORTED
        self._writes.clear()
        yield from self._release_all()
        self.tool.isis.sim.trace.bump("tool.txn_aborts")

    def _release_all(self):
        locks, self._locks = self._locks, set()
        for key in sorted(locks):
            yield self.tool.locks.v(f"txn:{key}")


class TransactionTool:
    """Factory for transactions over a replicated, lockable store."""

    def __init__(self, isis: Isis, data: ReplicatedData,
                 locks: SemaphoreClient):
        self.isis = isis
        self.data = data
        self.locks = locks

    def begin(self, parent: Optional[Transaction] = None) -> Transaction:
        """Start a transaction (pass ``parent`` for a nested one)."""
        self.isis.sim.trace.bump("tool.txn_begins")
        if parent is not None:
            parent._check_active()
        return Transaction(self, parent)
