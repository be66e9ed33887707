"""Replicated symbolic-name registry (name → group address).

§4.1: *"a way to map symbolic names to group addresses is provided."*

Every kernel holds a replica.  Updates are serialized by the **site-view
coordinator** (the oldest operational site): a registration is sent to
the coordinator, which assigns it a sequence number and broadcasts it to
every site in the site view; replicas apply updates in sequence order.
A site joining the site view receives a snapshot.  A new coordinator
(after the old one dies) numbers on from the sequence it has applied
itself and sends its snapshot to every site; a replica already past
that sequence keeps its own state.

A register, unregister or query is kept until it is answered.  When the
site it went to leaves the site view it is sent again, to the new
coordinator; a site that receives a register or unregister before it
becomes the coordinator holds it until then.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Simulator
from ..sim.tasks import Promise


class Namespace:
    """One kernel's replica (plus coordinator duties when elected)."""

    def __init__(self, sim: Simulator, site_id: int,
                 send: Callable[[int, Message], None]):
        self.sim = sim
        self.site_id = site_id
        self.send = send
        self._names: Dict[str, Address] = {}
        self._contacts: Dict[str, int] = {}
        self._applied_seq = 0
        #: Out-of-order updates: seq -> (seq, op, name, gid, contact).
        self._pending: Dict[int, tuple] = {}
        self._waiting_reg: Dict[Tuple[str, str], List[Promise]] = {}
        self._queries: Dict[int, Promise] = {}
        self._next_query = 1
        #: Requests sent and not yet answered: key -> (site, request).
        self._asked: Dict[Hashable, Tuple[int, Message]] = {}
        #: Registers and unregisters that came before this site became
        #: the coordinator: (op, name) -> fields.
        self._held: Dict[Tuple[str, str], dict] = {}
        # Coordinator-only state.
        self._is_coordinator = False
        self._next_seq = 1
        self._sites: List[int] = []

    # ------------------------------------------------------------------
    # Replica API (used by the kernel)
    # ------------------------------------------------------------------
    def lookup(self, name: str) -> Optional[Address]:
        return self._names.get(name)

    def contact_hint(self, name: str) -> Optional[int]:
        return self._contacts.get(name)

    def entries(self) -> Dict[str, Address]:
        return dict(self._names)

    def register(self, name: str, gid: Address, contact: int,
                 coordinator_site: int) -> Promise:
        """Ask the coordinator to register; resolves when applied locally."""
        promise = Promise(label=f"ns.register({name})")
        self._waiting_reg.setdefault(("reg", name), []).append(promise)
        self._ask(("reg", name), Message(
            _proto="ns.reg", name=name, gid=gid, contact=contact),
            coordinator_site)
        return promise

    def unregister(self, name: str, coordinator_site: int) -> None:
        self._ask(("unreg", name), Message(_proto="ns.unreg", name=name),
                  coordinator_site)

    def query(self, name: str, coordinator_site: int) -> Promise:
        """Ask the coordinator directly (cache miss)."""
        local = self._names.get(name)
        promise = Promise(label=f"ns.query({name})")
        if local is not None:
            promise.resolve(local)
            return promise
        query_id = self._next_query
        self._next_query += 1
        self._queries[query_id] = promise
        self._ask(("q", query_id), Message(_proto="ns.q", name=name,
                                           q=query_id), coordinator_site)
        return promise

    def _ask(self, key: Hashable, request: Message, site: int) -> None:
        """Send ``request`` to the coordinator at ``site`` and keep it
        until answered, or take it here when this site coordinates."""
        self._asked.pop(key, None)
        if site != self.site_id:
            self._asked[key] = (site, request)
            self.send(site, request)
        elif key[0] == "q":
            self._queries.pop(key[1]).resolve(self._names.get(request["name"]))
        else:
            fields = request.fields()
            del fields["_proto"]
            self._serialize(key[0], fields.pop("name"), **fields)

    # ------------------------------------------------------------------
    # Coordinator election / site-view changes
    # ------------------------------------------------------------------
    def set_role(self, is_coordinator: bool, sites: List[int]) -> None:
        """Called on every site-view change; ``sites`` in the view's
        order, its coordinator first."""
        became = is_coordinator and not self._is_coordinator
        self._is_coordinator = is_coordinator
        self._sites = list(sites)
        if became:
            # Number on from what this replica applied; replicas behind
            # it catch up from its snapshot.
            self._next_seq = self._applied_seq + 1
            self._broadcast_snapshot(self._sites)
            held, self._held = self._held, {}
            for (op, name), fields in held.items():
                self._serialize(op, name, **fields)
        for key, (site, request) in list(self._asked.items()):
            if site not in self._sites:
                self._ask(key, request, self._sites[0])

    def snapshot_to(self, sites: List[int]) -> None:
        if self._is_coordinator:
            self._broadcast_snapshot(sites)

    def _broadcast_snapshot(self, sites: List[int]) -> None:
        snap = Message(
            _proto="ns.snap",
            seq=self._applied_seq,
            entries=[[n, a, self._contacts.get(n, a.site)]
                     for n, a in sorted(self._names.items())],
        )
        for site in sites:
            if site != self.site_id:
                self.send(site, snap)

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------
    def _on_reg(self, src_site: int, record: tuple) -> None:
        _, name, gid, contact = record
        self._serialize("reg", name, gid=gid, contact=contact)

    def _on_unreg(self, src_site: int, record: tuple) -> None:
        self._serialize("unreg", record[1])

    def _serialize(self, op: str, name: str, **fields) -> None:
        """Coordinator: number an update and send it to every replica."""
        if not self._is_coordinator:
            self._held[(op, name)] = fields
            return
        update = Message(_proto="ns.upd", seq=self._next_seq, op=op,
                         name=name, **fields)
        self._next_seq += 1
        for site in self._sites:
            if site != self.site_id:
                self.send(site, update)
        self._offer_update(
            (self._next_seq - 1, op, name, fields.get("gid"),
             fields.get("contact")))

    def _on_update(self, src_site: int, record: tuple) -> None:
        self._offer_update(record[1:])

    def _on_query(self, src_site: int, record: tuple) -> None:
        _, name, query = record
        self.send(src_site, Message(_proto="ns.qr", q=query,
                                    gid=self._names.get(name)))

    def _on_answer(self, src_site: int, record: tuple) -> None:
        _, query, gid = record
        self._asked.pop(("q", query), None)
        promise = self._queries.pop(query, None)
        if promise is not None:
            promise.resolve(gid)

    def _offer_update(self, update: tuple) -> None:
        """``(seq, op, name, gid, contact)`` of one ``ns.upd``."""
        seq = update[0]
        if seq <= self._applied_seq:
            return
        self._pending[seq] = update
        while self._applied_seq + 1 in self._pending:
            self._apply(self._pending.pop(self._applied_seq + 1))

    def _apply(self, update: tuple) -> None:
        self._applied_seq, op, name, gid, contact = update
        if op == "reg":
            self._names[name] = gid
            self._contacts[name] = contact
        else:
            self._names.pop(name, None)
            self._contacts.pop(name, None)
        self._asked.pop((op, name), None)
        for promise in self._waiting_reg.pop(("reg", name), []):
            promise.resolve(self._names.get(name))

    def _on_snapshot(self, src_site: int, record: tuple) -> None:
        _, seq, entries = record
        if seq < self._applied_seq:
            return
        self._names = {}
        self._contacts = {}
        for name, gid, contact in entries:
            self._names[name] = gid
            self._contacts[name] = contact
        self._applied_seq = max(self._applied_seq, seq)
        self._pending = {s: u for s, u in self._pending.items()
                         if s > self._applied_seq}
        for op, name in [key for key in self._asked if key[0] != "q"]:
            if (name in self._names) == (op == "reg"):
                del self._asked[(op, name)]
        for (kind, name), promises in list(self._waiting_reg.items()):
            if name in self._names:
                for promise in promises:
                    promise.resolve(self._names[name])
                del self._waiting_reg[(kind, name)]
