"""The kernel's cross-group causal wait index.

A CBCAST blocked on another group's progress must be found again when
that progress happens, without scanning every group's pending buffer on
every delivery.  :class:`WaitIndex` holds one slot per blocked message,
keyed by the *watched* group, so register, advance and view event touch
only that group's dictionaries however many groups the kernel hosts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..msg.address import Address

#: A blocked CBCAST is identified kernel-wide by the group it is pending
#: in plus its (sender, seq) key within that group's causal receiver.
WaiterKey = Tuple[Address, Tuple[Address, int]]


class WaitIndex:
    """Cross-group causal wait thresholds, kernel-wide.

    A CBCAST whose causal context is unsatisfied registers here against
    the *first* threshold its context fails: either a delivery counter
    ``(gid, member, needed_seq)`` — woken the moment that group's
    delivered vector reaches ``needed_seq`` for ``member`` — or a view
    threshold on ``gid`` — woken when that group installs any newer view
    (vectors reset per view, so any view event can only satisfy waits).
    Each waiter holds at most one slot; on wake it re-evaluates its full
    context and either delivers or re-registers on the next failing
    threshold.
    """

    __slots__ = ("_counter_waits", "_view_waits", "_slots", "_by_engine",
                 "peak_size")

    def __init__(self) -> None:
        #: gid -> (member, needed_seq) -> ordered waiters (dict-as-set).
        self._counter_waits: Dict[
            Address, Dict[Tuple[Address, int], Dict[WaiterKey, None]]] = {}
        #: gid -> ordered waiters blocked on a future view of gid.
        self._view_waits: Dict[Address, Dict[WaiterKey, None]] = {}
        #: waiter -> (gid, bucket key or None-for-view) reverse map.
        self._slots: Dict[WaiterKey, Tuple[Address,
                                           Optional[Tuple[Address, int]]]] = {}
        #: waiters registered by each engine (purged at its view changes).
        self._by_engine: Dict[Address, Set[WaiterKey]] = {}
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._slots)

    def register_counter(self, gid: Address, member: Address, needed: int,
                         waiter: WaiterKey) -> None:
        """Wake ``waiter`` when gid's delivered[member] reaches ``needed``."""
        self.remove(waiter)
        bucket_key = (member.process(), needed)
        self._counter_waits.setdefault(gid, {}).setdefault(
            bucket_key, {})[waiter] = None
        self._slots[waiter] = (gid, bucket_key)
        self._by_engine.setdefault(waiter[0], set()).add(waiter)
        if len(self._slots) > self.peak_size:
            self.peak_size = len(self._slots)

    def register_view(self, gid: Address, waiter: WaiterKey) -> None:
        """Wake ``waiter`` when ``gid`` installs a newer view."""
        self.remove(waiter)
        self._view_waits.setdefault(gid, {})[waiter] = None
        self._slots[waiter] = (gid, None)
        self._by_engine.setdefault(waiter[0], set()).add(waiter)
        if len(self._slots) > self.peak_size:
            self.peak_size = len(self._slots)

    def remove(self, waiter: WaiterKey) -> None:
        """Drop a waiter's slot (delivered, re-registering, or discarded)."""
        slot = self._slots.get(waiter)
        if slot is None:
            return
        gid, bucket_key = slot
        if bucket_key is None:
            bucket = self._view_waits.get(gid)
            if bucket is not None:
                bucket.pop(waiter, None)
                if not bucket:
                    del self._view_waits[gid]
        else:
            buckets = self._counter_waits.get(gid)
            if buckets is not None:
                bucket = buckets.get(bucket_key)
                if bucket is not None:
                    bucket.pop(waiter, None)
                    if not bucket:
                        del buckets[bucket_key]
                if not buckets:
                    del self._counter_waits[gid]
        self._discard_slot(waiter)

    def on_advance(self, gid: Address, member: Address,
                   seq: int) -> List[WaiterKey]:
        """Group ``gid`` delivered ``member``'s message ``seq``."""
        buckets = self._counter_waits.get(gid)
        if buckets is None:
            return []
        bucket = buckets.pop((member.process(), seq), None)
        if bucket is None:
            return []
        if not buckets:
            del self._counter_waits[gid]
        woken = list(bucket)
        for waiter in woken:
            self._discard_slot(waiter)
        return woken

    def on_view_event(self, gid: Address) -> List[WaiterKey]:
        """Group ``gid`` installed a new view (or was retired)."""
        woken: List[WaiterKey] = []
        buckets = self._counter_waits.pop(gid, None)
        if buckets is not None:
            for bucket in buckets.values():
                woken.extend(bucket)
        view_bucket = self._view_waits.pop(gid, None)
        if view_bucket is not None:
            woken.extend(view_bucket)
        for waiter in woken:
            self._discard_slot(waiter)
        return woken

    def purge_engine(self, engine_gid: Address) -> None:
        """An engine's pending buffer reset: drop its registrations."""
        for waiter in list(self._by_engine.get(engine_gid, ())):
            self.remove(waiter)

    def _discard_slot(self, waiter: WaiterKey) -> None:
        """Bookkeeping removal after a bucket was already popped."""
        self._slots.pop(waiter, None)
        engine_waiters = self._by_engine.get(waiter[0])
        if engine_waiters is not None:
            engine_waiters.discard(waiter)
            if not engine_waiters:
                del self._by_engine[waiter[0]]
