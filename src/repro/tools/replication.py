"""Replicated data tool (§3.6).

*"This tool provides a simple way to replicate data, reducing access time
in read-intensive settings and achieving low-overhead fault-tolerance."*

Each managing process supplies ``update`` (and optionally ``read``)
routines; arguments are passed through uninterpreted.  If the data
structure needs a globally consistent request ordering (the FIFO-queue
case of §2.4/§3.1) the tool transmits with **ABCAST**; if updates are
asynchronous or the caller holds mutual exclusion, **CBCAST** is used —
Table I: update = "1 async CBCAST or 1 ABCAST"; read-only access by the
manager costs nothing; reads by other clients cost a CBCAST + 1 reply.

The paper's **logging mode** (§3.6/§5 step 6) is the kernel's write-ahead
log (``IsisConfig.durability``): it logs every update the group delivers
and checkpoints the replica's transfer segment, and the recovery manager
replays both into a restarted manager after a total failure.  A replayed
update is applied and never answered.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..core.engine import ABCAST, CBCAST
from ..core.groups import Isis
from ..errors import IsisError
from ..msg.address import Address
from ..msg.message import Message
from ..sim.tasks import Promise
from .entries import REPL_READ_ENTRY, REPL_UPDATE_ENTRY
from .transfer import register_state


class ReplicatedData:
    """One manager's replica of a named replicated data item set."""

    def __init__(
        self,
        isis: Isis,
        gid: Address,
        name: str = "data",
        ordering: str = CBCAST,
        apply_update: Optional[Callable[[Dict[str, Any], Message], None]] = None,
        read_item: Optional[Callable[[Dict[str, Any], Message], Any]] = None,
    ):
        if ordering not in (CBCAST, ABCAST):
            raise IsisError(f"ordering must be cbcast or abcast, got {ordering}")
        self.isis = isis
        self.gid = gid
        self.name = name
        self.ordering = ordering
        self.items: Dict[str, Any] = {}
        self._apply_update = apply_update or self._default_apply
        self._read_item = read_item or self._default_read
        self._next_uid = 1
        self._early_applied: set = set()
        isis.process.bind(REPL_UPDATE_ENTRY, self._on_update)
        isis.process.bind(REPL_READ_ENTRY, self._on_read)
        register_state(isis, f"repl:{name}", lambda: self.items,
                       self._restore)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def update(self, item: str, nwant: int = 0, **args: Any) -> Promise:
        """Propagate an update to every copy.

        Asynchronous by default (``nwant=0``): the caller continues
        immediately and may *pretend the update has already been applied
        everywhere* (§3.4) — no later read anywhere can return the prior
        value once this copy has applied it, because reads at other
        copies are ordered behind the update by the delivery discipline.

        With ``nwant > 0`` the managers acknowledge after applying (used
        by the transactional tool); the async path sends no replies, so
        the Table I cost (1 multicast) is preserved.
        """
        self.isis.sim.trace.bump("tool.repl_update")
        uid = None
        if self.ordering == CBCAST:
            # §3.4: the caller "can pretend that the message was delivered
            # ... at the moment the CBCAST was issued".  A manager applies
            # its own update to the local copy immediately, so no local
            # read can ever return the prior value; the loopback delivery
            # is deduplicated by uid.  (ABCAST mode must wait for the
            # total order.)
            kernel = getattr(self.isis.process.site, "kernel", None)
            view = kernel.current_view(self.gid) if kernel else None
            if view is not None and view.contains(self.isis.process.address):
                uid = f"{self.isis.process.address.pack().hex()}:{self._next_uid}"
                self._next_uid += 1
                self._early_applied.add(uid)
                early = Message(item=item, args=args)
                self._apply_update(self.items, early)
        return self.isis.bcast(self.gid, REPL_UPDATE_ENTRY, nwant=nwant,
                               kind=self.ordering, item=item, args=args,
                               ack=nwant > 0, uid=uid)

    def read(self, item: str, default: Any = None) -> Any:
        """Read-only access by a manager: local, no cost (Table I)."""
        self.isis.sim.trace.bump("tool.repl_read_local")
        query = Message(item=item)
        value = self._read_item(self.items, query)
        return default if value is None else value

    def remote_read(self, item: str) -> Promise:
        """Read by a non-manager client: CBCAST + 1 reply (Table I).

        With ABCAST ordering the read travels with the same protocol as
        updates, so it observes the totally ordered state.
        """
        self.isis.sim.trace.bump("tool.repl_read_remote")
        return self._first_reply(
            self.isis.bcast(self.gid, REPL_READ_ENTRY, nwant=1,
                            kind=self.ordering, item=item))

    @staticmethod
    def _first_reply(promise: Promise) -> Promise:
        out = Promise(label="repl.read")

        def done(p: Promise) -> None:
            if p.rejected:
                out.reject(p.exception)
            else:
                replies = p._value
                out.resolve(replies[0]["value"] if replies else None)

        promise.add_done_callback(done)
        return out

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _on_update(self, msg: Message) -> None:
        uid = msg.get("uid")
        if uid is not None and uid in self._early_applied:
            self._early_applied.discard(uid)  # applied at send time
        else:
            self._apply_update(self.items, msg)
        if msg.get("ack") and not msg.get("_replay"):
            self.isis.process.spawn(self._ack_update(msg), "repl.ack")

    def _ack_update(self, msg: Message):
        view = yield self.isis.pg_view(self.gid)
        if view is not None and self._is_designated_reader(view):
            yield self.isis.reply(msg, ok=True)
        else:
            yield self.isis.null_reply(msg)

    def _on_read(self, msg: Message) -> None:
        """Remote read: only the lowest-ranked local manager replies."""
        if msg.get("_replay"):
            return  # its caller was answered before the restart
        value = self._read_item(self.items, msg)
        self.isis.process.spawn(self._answer_read(msg, value), "repl.read")

    def _answer_read(self, msg: Message, value: Any):
        view = yield self.isis.pg_view(self.gid)
        if view is not None and self._is_designated_reader(view):
            yield self.isis.reply(msg, value=value)
        else:
            yield self.isis.null_reply(msg)

    def _is_designated_reader(self, view) -> bool:
        """Oldest member answers reads (consistent at every copy)."""
        return view.rank_of(self.isis.process.address) == 0

    @staticmethod
    def _default_apply(items: Dict[str, Any], msg: Message) -> None:
        args = msg.get("args", {})
        if "value" in args:
            items[msg["item"]] = args["value"]
        elif "delta" in args:
            items[msg["item"]] = items.get(msg["item"], 0) + args["delta"]
        elif args.get("delete"):
            items.pop(msg["item"], None)
        else:
            raise IsisError(f"unintelligible update args {args!r}")

    @staticmethod
    def _default_read(items: Dict[str, Any], msg: Message) -> Any:
        return items.get(msg["item"])

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def _restore(self, items: Dict[str, Any]) -> None:
        self.items = dict(items)
