"""The kernel's cross-group causal wait index.

A CBCAST blocked on another group's progress must be found again when
that progress happens, without scanning every group's pending buffer on
every delivery.  :class:`WaitIndex` holds one slot per blocked message,
keyed by the *watched* group, so register, advance and view event touch
only that group's dictionaries however many groups the kernel hosts.

The index compares keys and nothing else: the kernel hands it groups and
members packed, as a ``cb_ctx`` names them, and a waiter as the key of
the receiver it is pending in.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

#: A blocked CBCAST is identified kernel-wide by the group it is pending
#: in plus its (sender, seq) key within that group's causal receiver.
WaiterKey = Tuple[Hashable, Tuple[bytes, int]]


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

    __slots__ = ("_counter_waits", "_view_waits", "_slots", "peak_size")

    def __init__(self) -> None:
        #: gid -> (member, needed_seq) -> ordered waiters (dict-as-set).
        self._counter_waits: Dict[
            bytes, Dict[Tuple[bytes, int], Dict[WaiterKey, None]]] = {}
        #: gid -> ordered waiters blocked on a future view of gid.
        self._view_waits: Dict[bytes, Dict[WaiterKey, None]] = {}
        #: waiter -> (gid, bucket key or None-for-view) reverse map.
        self._slots: Dict[WaiterKey, Tuple[bytes,
                                           Optional[Tuple[bytes, int]]]] = {}
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._slots)

    def register_counter(self, gid: bytes, member: bytes, needed: int,
                         waiter: WaiterKey) -> None:
        """Wake ``waiter`` when gid's delivered[member] reaches ``needed``."""
        self.remove(waiter)
        bucket_key = (member, needed)
        self._counter_waits.setdefault(gid, {}).setdefault(
            bucket_key, {})[waiter] = None
        self._hold(waiter, gid, bucket_key)

    def register_view(self, gid: bytes, waiter: WaiterKey) -> None:
        """Wake ``waiter`` when ``gid`` installs a newer view."""
        self.remove(waiter)
        self._view_waits.setdefault(gid, {})[waiter] = None
        self._hold(waiter, gid, None)

    def _hold(self, waiter: WaiterKey, gid: bytes,
              bucket_key: Optional[Tuple[bytes, int]]) -> None:
        self._slots[waiter] = (gid, bucket_key)
        if len(self._slots) > self.peak_size:
            self.peak_size = len(self._slots)

    def remove(self, waiter: WaiterKey) -> None:
        """Drop a waiter's slot (delivered, re-registering, or discarded)."""
        slot = self._slots.pop(waiter, None)
        if slot is None:
            return
        gid, bucket_key = slot
        if bucket_key is None:
            bucket = self._view_waits[gid]
            del bucket[waiter]
            if not bucket:
                del self._view_waits[gid]
        else:
            buckets = self._counter_waits[gid]
            bucket = buckets[bucket_key]
            del bucket[waiter]
            if not bucket:
                del buckets[bucket_key]
                if not buckets:
                    del self._counter_waits[gid]

    def on_advance(self, gid: bytes, member: bytes,
                   seq: int) -> List[WaiterKey]:
        """Group ``gid`` delivered ``member``'s message ``seq``."""
        buckets = self._counter_waits.get(gid)
        if buckets is None:
            return []
        bucket = buckets.pop((member, seq), None)
        if bucket is None:
            return []
        if not buckets:
            del self._counter_waits[gid]
        return self._release(bucket)

    def on_view_event(self, gid: bytes) -> List[WaiterKey]:
        """Group ``gid`` installed a new view (or was retired)."""
        woken: List[WaiterKey] = []
        for bucket in self._counter_waits.pop(gid, {}).values():
            woken += self._release(bucket)
        return woken + self._release(self._view_waits.pop(gid, {}))

    def purge_engine(self, engine_gid: Hashable) -> None:
        """An engine's pending buffer reset: drop its registrations."""
        for waiter in [w for w in self._slots if w[0] == engine_gid]:
            self.remove(waiter)

    def _release(self, bucket: Dict[WaiterKey, None]) -> List[WaiterKey]:
        """A popped bucket's waiters, their slots gone."""
        for waiter in bucket:
            del self._slots[waiter]
        return list(bucket)
