"""Replicated semaphores (§3.5).

*"ISIS provides replicated semaphores, using a fair (FIFO) request
queueing method.  If desired, a semaphore will automatically be released
when the holder fails."*

A group of manager processes replicates the semaphore state.  Per
Table I: **P** (obtain mutual exclusion) costs 1 ABCAST with all replies;
**V** (release) costs 1 async CBCAST.  Because P-requests arrive in the
same total order at every manager, the FIFO queues are identical
everywhere and grant decisions need no extra agreement: the oldest
manager sends the grant reply on every copy's behalf.

Deadlock detection (§2.2): the managers share identical wait-for state,
so any one of them can detect a cycle; the designated manager replies
``deadlock`` to the request that would close a cycle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.groups import Isis
from ..errors import DeadlockDetected, SemaphoreError
from ..msg.address import Address
from ..msg.message import Message
from ..sim.tasks import Promise
from ..core.view import View
from .entries import SEM_ENTRY
from .transfer import register_state


class _SemState:
    __slots__ = ("holder", "queue")

    def __init__(self) -> None:
        #: (requester, request): the requester is the request's sender.
        self.holder: Optional[Tuple[Address, Message]] = None
        self.queue: List[Tuple[Address, Message]] = []


class SemaphoreManager:
    """One manager's replica of the semaphore table."""

    def __init__(self, isis: Isis, gid: Address):
        self.isis = isis
        self.gid = gid
        self._sems: Dict[str, _SemState] = {}
        #: requester -> semaphores currently held (for deadlock graph).
        self._held_by: Dict[Address, Set[str]] = {}
        self._monitoring = False
        isis.process.bind(SEM_ENTRY, self._on_op)
        register_state(isis, f"sem:{gid}", self._snapshot, self._restore)
        kernel = getattr(isis.process.site, "kernel", None)
        if kernel is not None:
            kernel.site_view_hooks.append(self._on_site_view)

    # ------------------------------------------------------------------
    # Delivery (identical at every manager: ABCAST total order)
    # ------------------------------------------------------------------
    def _on_op(self, msg: Message) -> None:
        self._ensure_monitor()
        op = msg["op"]
        name = msg["name"]
        state = self._sems.setdefault(name, _SemState())
        requester = msg.sender
        if op == "P":
            self._on_p(state, name, requester, msg)
        elif op == "V":
            self._on_v(state, name, requester)
        else:
            raise SemaphoreError(f"unknown semaphore op {op!r}")

    def _on_p(self, state: _SemState, name: str, requester: Address,
              msg: Message) -> None:
        if self._would_deadlock(name, requester):
            self.isis.sim.trace.bump("tool.sem_deadlocks")
            if self._i_answer():
                self.isis.process.spawn(
                    self._send_grant(msg, granted=False, deadlock=True),
                    "sem.deadlock")
            return
        entry = (requester, msg)
        if state.holder is None:
            state.holder = entry
            self._held_by.setdefault(requester, set()).add(name)
            if self._i_answer():
                self.isis.process.spawn(
                    self._send_grant(msg, granted=True), "sem.grant")
        else:
            state.queue.append(entry)

    def _on_v(self, state: _SemState, name: str,
              requester: Address) -> None:
        if state.holder is None or state.holder[0] != requester:
            # V by a non-holder: ignored (misuse is the caller's problem,
            # but replicas must stay identical, so no exception here).
            self.isis.sim.trace.bump("tool.sem_bad_v")
            return
        self._release(state, name)

    def _release(self, state: _SemState, name: str) -> None:
        holder_key = state.holder[0]
        held = self._held_by.get(holder_key)
        if held is not None:
            held.discard(name)
            if not held:
                del self._held_by[holder_key]
        state.holder = None
        if state.queue:
            state.holder = state.queue.pop(0)
            requester, msg = state.holder
            self._held_by.setdefault(requester, set()).add(name)
            if self._i_answer():
                self.isis.process.spawn(
                    self._send_grant(msg, granted=True), "sem.grant")

    def _send_grant(self, msg: Message, granted: bool,
                    deadlock: bool = False):
        yield self.isis.reply(msg, granted=granted, deadlock=deadlock)

    def _i_answer(self) -> bool:
        """Only the oldest manager replies (consistent at all copies)."""
        kernel = getattr(self.isis.process.site, "kernel", None)
        if kernel is None:
            return False
        view = kernel.current_view(self.gid)
        return view is not None and view.rank_of(self.isis.process.address) == 0

    # ------------------------------------------------------------------
    # Deadlock detection: wait-for cycle over identical replicated state
    # ------------------------------------------------------------------
    def _would_deadlock(self, wanted: str, requester: Address) -> bool:
        """Does requester → wanted close a cycle in the wait-for graph?"""
        visited: Set[str] = set()
        frontier = [wanted]
        while frontier:
            sem = frontier.pop()
            if sem in visited:
                continue
            visited.add(sem)
            state = self._sems.get(sem)
            if state is None or state.holder is None:
                continue
            holder = state.holder[0]
            if holder == requester:
                return True
            # What is that holder itself waiting for?
            for other_name, other in self._sems.items():
                if any(k == holder for k, _ in other.queue):
                    frontier.append(other_name)
        return False

    # ------------------------------------------------------------------
    # Manager failover: the new oldest manager re-sends grants
    # ------------------------------------------------------------------
    def _ensure_monitor(self) -> None:
        if self._monitoring:
            return
        self._monitoring = True

        def register():
            yield self.isis.pg_monitor(self.gid, self._on_group_view)

        self.isis.process.spawn(register(), "sem.monitor")

    def _on_group_view(self, view: View) -> None:
        """The answering manager may have died: re-send current grants.

        Duplicate grants are harmless — the caller's session was already
        resolved and discards late replies silently (§3.2).
        """
        if view.rank_of(self.isis.process.address) != 0:
            return
        for state in self._sems.values():
            if state.holder is None:
                continue
            _, msg = state.holder
            if "_session" in msg:
                self.isis.process.spawn(
                    self._send_grant(msg, granted=True), "sem.regrant")

    # ------------------------------------------------------------------
    # Release on failure (§3.5)
    # ------------------------------------------------------------------
    def _on_site_view(self, view, departed: Set[int], joined: Set[int]) -> None:
        if not departed:
            return
        for name, state in self._sems.items():
            state.queue = [
                (k, m) for (k, m) in state.queue
                if k.site not in departed
            ]
        for name, state in list(self._sems.items()):
            if state.holder is None:
                continue
            if state.holder[0].site in departed:
                self.isis.sim.trace.bump("tool.sem_auto_release")
                self._release(state, name)

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, list]:
        """Each semaphore as ``[holder's request or None, [queued
        requests]]``: the requests themselves, so a joiner that becomes
        the oldest manager can still grant them."""
        return {name: [state.holder[1] if state.holder else None,
                       [msg for _, msg in state.queue]]
                for name, state in self._sems.items()}

    def _restore(self, sems: Dict[str, list]) -> None:
        self._sems = {}
        self._held_by = {}
        for name, (holder, queue) in sems.items():
            state = self._sems[name] = _SemState()
            if holder is not None:
                state.holder = (holder.sender, holder)
                self._held_by.setdefault(holder.sender, set()).add(name)
            state.queue = [(msg.sender, msg) for msg in queue]

    def holder_of(self, name: str) -> Optional[Address]:
        state = self._sems.get(name)
        return state.holder[0] if state is not None and state.holder else None

    def queue_length(self, name: str) -> int:
        state = self._sems.get(name)
        return len(state.queue) if state is not None else 0


class SemaphoreClient:
    """Client-side P/V stubs (any process, member or not)."""

    def __init__(self, isis: Isis, gid: Address):
        self.isis = isis
        self.gid = gid

    def p(self, name: str) -> Promise:
        """Obtain mutual exclusion: 1 ABCAST, all replies (Table I).

        Resolves when the grant arrives (FIFO order); rejects with
        :class:`DeadlockDetected` if the request would close a cycle.
        """
        self.isis.sim.trace.bump("tool.sem_p")
        out = Promise(label=f"sem.P({name})")

        def done(p: Promise) -> None:
            if p.rejected:
                out.reject(p.exception)
                return
            replies = p._value
            if replies and replies[0].get("deadlock"):
                out.reject(DeadlockDetected(f"P({name}) closes a cycle"))
            else:
                out.resolve(None)

        self.isis.abcast(self.gid, SEM_ENTRY, nwant=1, op="P", name=name) \
            .add_done_callback(done)
        return out

    def v(self, name: str) -> Promise:
        """Release mutual exclusion: 1 async CBCAST (Table I)."""
        self.isis.sim.trace.bump("tool.sem_v")
        return self.isis.cbcast(self.gid, SEM_ENTRY, nwant=0, op="V",
                                name=name)
