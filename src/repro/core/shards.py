"""The kernel's cross-group causal check and its wait index.

A CBCAST blocked on another group's progress must be found again when
that progress happens, without scanning every group's pending buffer on
every delivery.  :class:`WaitIndex` holds one slot per blocked message,
keyed by the *watched* group, so register, advance and view event touch
only that group's dictionaries however many groups the kernel hosts.

The index compares keys and nothing else: the kernel hands it groups and
members packed, as a ``cb_ctx`` names them, and a waiter as the key of
the receiver it is pending in.  :class:`CausalCheck` is the kernel's
side: it tests a ``cb_ctx`` against the groups hosted here, files a
failed test in the index, and drains the groups a wake marked.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence,
                    Set, Tuple)

from .cbcast import SenderChain
from .vectorclock import (ChainContext, ContextDelta, apply_context_delta,
                          first_in_walk_order)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..msg.address import Address
    from .engine import GroupEngine
    from .kernel import ProtocolsProcess

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


def _shortfall(engine: Optional["GroupEngine"], view_id: int,
               members: Sequence[bytes],
               counts: Sequence[int]) -> Optional[tuple]:
    """One named causal-context entry (a whole vector of view ``view_id``)
    against ``engine``, its group here: ``()`` if satisfied — not
    installed here (cannot, and need not, wait) or a newer view (the old
    one was flushed) satisfies —, None if our view is older, else the
    first ``(member, count)`` we are short of."""
    if engine is None or not engine.installed:
        return ()
    view = engine.view
    if view is None or view.view_id > view_id:
        return ()
    if view.view_id < view_id:
        return None
    have = engine.causal.delivered
    for member, count in zip(members, counts):
        if have.get(member, 0) < count:
            return member, count
    return ()


class CausalCheck:
    """Cross-group causal delivery at one kernel.

    Owns the :class:`WaitIndex`, the *wake set* (groups a wake marked
    candidates in, owed a drain) and the count of groups installed here
    since boot.  The kernel's group table it reads and does not own: it
    is told when that table changes (:meth:`engines_changed`,
    :meth:`retire`).
    """

    def __init__(self, kernel: "ProtocolsProcess"):
        self.kernel = kernel
        self.counters = kernel.counters
        #: Cross-group causal wait thresholds.
        self.wait_index = WaitIndex()
        #: Groups owed a candidate drain (a wake marked candidates there).
        self.wakes: Set["Address"] = set()
        #: Groups that became installed here since boot.  A sender chain
        #: checked before the latest install may hold an entry that was
        #: skipped as "not a member" and is testable now.
        self.installs = 0
        #: ``kernel.engines`` keyed by packed gid, in packed order — how
        #: a ``cb_ctx`` names and orders groups; rebuilt when the group
        #: table changes.
        self._packed: Optional[Dict[bytes, "GroupEngine"]] = None
        #: :meth:`groups`, rebuilt when the group table changes, a group
        #: installs here or installs a view (a new view id and vector).
        self._groups: Optional[
            Dict[bytes, Tuple[int, Dict[bytes, int]]]] = None

    def engines_changed(self) -> None:
        """The kernel's group table gained or lost a group."""
        self._packed = self._groups = None

    def note_install(self) -> None:
        """A group became installed here."""
        self.installs += 1
        self._groups = None

    def _packed_engines(self) -> Dict[bytes, "GroupEngine"]:
        table = self._packed
        if table is None:
            table = self._packed = dict(sorted(
                (gid.pack(), engine)
                for gid, engine in self.kernel.engines.items()))
        return table

    def groups(self) -> Dict[bytes, Tuple[int, Dict[bytes, int]]]:
        """Our installed groups' *live* delivered counts, as ``packed
        gid -> (view id, packed member -> count)`` in gid order: what a
        :class:`~repro.core.vectorclock.ContextEncoder` diffs.  One
        table, reused until the set of groups or a view changes: the
        vectors in it are the live ones."""
        table = self._groups
        if table is None:
            table = self._groups = {
                gid: (engine.view.view_id, engine.causal.delivered)
                for gid, engine in self._packed_engines().items()
                if engine.installed and engine.view is not None}
        return table

    def check_delta_and_register(self, chain: SenderChain,
                                 delta: ContextDelta,
                                 waiter: WaiterKey) -> bool:
        """Is the causal context ``chain.context`` advanced by ``delta``
        satisfied at our kernel?

        On failure the waiter is registered in the :class:`WaitIndex`
        against the first unsatisfied threshold, so the matching advance
        (or view event) re-marks it as a delivery candidate; any stale
        slot from a previous evaluation is dropped first.

        The message is a candidate, so its predecessor passed this check
        here.  An entry the delta does not name was satisfied then and
        still is: delivered vectors only grow within a view, and a newer
        local view (or a retired group) satisfies by rule.  So only the
        delta's entries are tested.  The one exception is an entry
        skipped then because the group was not installed here: if any
        group was installed since, the same test runs over a copy of the
        advanced context taken as a chain head, which names every entry.
        """
        self.wait_index.remove(waiter)
        if delta.full or chain.installs == self.installs:
            self.counters.bump("causal.ctx_delta_entries",
                               len(delta.named) + len(delta.moved))
            satisfied = self._check_delta(chain.context, delta, waiter)
        else:
            self.counters.bump("causal.ctx_full_walks")
            context = chain.context.copy()
            apply_context_delta(context, delta)
            satisfied = self._check_delta(
                context, ContextDelta(True, context.entries(), [], []), waiter)
        if satisfied:
            chain.installs = self.installs
        return satisfied

    def _check_delta(self, base: ChainContext, delta: ContextDelta,
                     waiter: WaiterKey) -> bool:
        """The context check restricted to the delta's entries.

        On failure the waiter goes on the threshold a walk of ``base``
        advanced by ``delta`` would meet first: the chain's order, which
        a moved entry's counters are already in.
        """
        engines = self._packed_engines()
        #: gid -> the first (member, count) we are short of; None for a
        #: view threshold.
        failed: Dict[bytes, Optional[tuple]] = {}
        for gid, view_id, members, counts in delta.named:
            short = _shortfall(engines.get(gid), view_id, members, counts)
            if short is None or short:
                failed[gid] = short
        # What the delta names by position: the group, its view and the
        # members are the chain's.  Tested in line — the steady path.
        gids, views, held = base.gids, base.views, base.members
        for gpos, counters, gained in delta.moved:
            gid = gids[gpos]
            engine = engines.get(gid)
            if engine is None or not engine.installed:
                continue
            view = engine.view
            if view is None or view.view_id > views[gpos]:
                continue
            if view.view_id < views[gpos]:
                failed[gid] = None
                continue
            have = engine.causal.delivered
            members = held[gpos]
            for mpos, count in counters:
                if have.get(members[mpos], 0) < count:
                    failed[gid] = (members[mpos], count)
                    break
            else:
                for member, count in gained:
                    if have.get(member, 0) < count:
                        failed[gid] = (member, count)
                        break
        if not failed:
            return True
        gid = first_in_walk_order(list(failed), () if delta.full else gids)
        short = failed[gid]
        if short is None:
            self.wait_index.register_view(gid, waiter)
        else:
            self.wait_index.register_counter(gid, *short, waiter)
        return False

    def note_advance(self, gid: bytes, sender: bytes, seq: int) -> None:
        """Group ``gid`` (packed) delivered (sender, seq): wake threshold
        waiters."""
        self._wake_waiters(self.wait_index.on_advance(gid, sender, seq))

    def note_view_event(self, gid: "Address") -> None:
        """Group ``gid`` installed a view (or retired) here: the waits
        its pending messages held are gone with its buffer, and the
        thresholds others wait on in it are all satisfied now — wake
        everything keyed on it."""
        key = gid.process()
        self._groups = None
        self.wait_index.purge_engine(key)
        self._wake_waiters(self.wait_index.on_view_event(key.pack()))

    def retire(self, key: "Address") -> None:
        """Group ``key`` left the kernel's table: its pending buffer is
        gone, and contexts naming it are now trivially satisfied ("not a
        member: cannot wait")."""
        self.engines_changed()
        self.wakes.discard(key)
        self.note_view_event(key)

    def _wake_waiters(self, waiters: List[WaiterKey]) -> None:
        engines = self.kernel.engines
        for engine_gid, key in waiters:
            engine = engines.get(engine_gid)
            if engine is not None and engine.causal.mark_candidate(key):
                self.wakes.add(engine_gid)

    def recheck(self, exclude: Optional["Address"] = None) -> None:
        """A group advanced: unblock cross-group causal waits elsewhere.

        Drains only groups whose WaitIndex thresholds were actually
        crossed (candidate marks), visiting them in engine order — O(1)
        when nothing woke.
        """
        wakes = self.wakes
        if not wakes:
            return
        exclude_key = exclude.process() if exclude is not None else None
        order = self.kernel.engine_order
        engines = self.kernel.engines
        # One pass in engine-creation order over the *live* wake set
        # (never the whole engines dict): a group woken mid-pass at a
        # later rank is drained this pass, one at an earlier rank waits
        # for the next trigger — the semantics of one pass over the
        # engines dict, at O(woken groups) per call.
        last_rank = -1
        while True:
            best = None
            best_rank = -1
            for gid in wakes:
                if gid == exclude_key:
                    continue
                rank = order.get(gid, -1)
                if rank > last_rank and (best is None or rank < best_rank):
                    best, best_rank = gid, rank
            if best is None:
                break
            last_rank = best_rank
            wakes.discard(best)
            engine = engines.get(best)
            if engine is None:
                continue
            for ready in engine.causal.recheck():
                engine.deliver_env(ready)
