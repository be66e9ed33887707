"""The toolkit stubs: what application code links against.

§4: *"Client programs are linked directly to whatever tools they
employ"* — an application process gets an :class:`Isis` handle and calls
these routines from its tasks.  Every call crosses the intra-site hop
(10 ms, Figure 3) into the site's protocols process, which runs the
actual protocol; results come back as promises the task can ``yield``.

Naming follows Table I: ``pg_create``, ``pg_lookup``, ``pg_join``,
``pg_leave``, ``pg_monitor``, ``pg_kill``, ``bcast`` (with ``nwant``
replies), ``reply`` / ``reply_cc`` / null replies, and ``flush``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from ..errors import IsisError, SiteDown
from ..msg.address import Address
from ..msg.message import Message
from ..runtime.process import IsisProcess
from ..sim.tasks import Promise
from .engine import ABCAST, CBCAST
from .kernel import KILL_ENTRY, ProtocolsProcess
from .rpc import ALL
from .view import View

GBCAST = "gbcast"
#: CPU charged for marshalling a call into the protocols process.
_STUB_CPU = 0.0005


class Isis:
    """Toolkit handle bound to one application process."""

    def __init__(self, process: IsisProcess):
        self.process = process
        self.sim = process.sim

    # ------------------------------------------------------------------
    # The intra-site hop into the protocols process
    # ------------------------------------------------------------------
    def _kernel(self) -> ProtocolsProcess:
        kernel = getattr(self.process.site, "kernel", None)
        if kernel is None or not kernel.alive:
            raise SiteDown(f"site {self.process.site.site_id} has no kernel")
        return kernel

    def _hop(self, op: Callable[[ProtocolsProcess], Any]) -> Promise:
        """Charge the local hop, then run ``op(kernel)``; chain results."""
        out = Promise(label="isis.call")
        site = self.process.site

        def run() -> None:
            try:
                kernel = self._kernel()
                result = op(kernel)
            except IsisError as err:
                out.reject(err)
                return
            if isinstance(result, Promise):
                result.add_done_callback(
                    lambda p: out.reject(p.exception) if p.rejected
                    else out.resolve(p._value))
            else:
                out.resolve(result)

        site.cpu.submit(_STUB_CPU, self.sim.post, site.local_hop_delay, run)
        return out

    # ------------------------------------------------------------------
    # Process groups
    # ------------------------------------------------------------------
    def pg_create(self, name: str) -> Promise:
        """Create a process group; resolves with its group address."""
        return self._hop(lambda k: k.create_group(self.process, name))

    def pg_lookup(self, name: str) -> Promise:
        """Resolve a symbolic name to a group address (Table I: pg_lookup)."""
        return self._hop(lambda k: k.lookup_name(name))

    def pg_join(self, gid: Address, credentials: Any = None) -> Promise:
        """Join a group; resolves with the first view containing us,
        after any state transfer has completed (§3.8)."""
        return self._hop(
            lambda k: k.joins.join_group(self.process, gid, credentials))

    def pg_join_by_name(self, name: str, credentials: Any = None) -> Promise:
        """pg_lookup + pg_join in one call (the §5 join-and-xfer idiom)."""
        out = Promise(label="pg_join_by_name")

        def after_lookup(p: Promise) -> None:
            if p.rejected:
                out.reject(p.exception)
                return
            self.pg_join(p._value, credentials).add_done_callback(
                lambda q: out.reject(q.exception) if q.rejected
                else out.resolve(q._value))

        self.pg_lookup(name).add_done_callback(after_lookup)
        return out

    def pg_leave(self, gid: Address) -> Promise:
        """Leave a group (resolves once the view excluding us installs)."""
        return self._hop(lambda k: k.joins.leave_group(self.process, gid))

    def pg_monitor(self, gid: Address,
                   routine: Callable[[View], None]) -> Promise:
        """Invoke ``routine(view)`` on every membership change (§3.2)."""
        return self._hop(
            lambda k: k.rpc.monitor_group(self.process, gid, routine))

    def pg_kill(self, gid: Address) -> Promise:
        """Send a kill signal to every member (Table I: 1 ABCAST)."""
        def op(kernel: ProtocolsProcess) -> Promise:
            kernel.sim.trace.bump("tool.pg_kill")
            return kernel.rpc.group_mcast(
                self.process, gid, ABCAST, Message(), KILL_ENTRY, nwant=0)
        return self._hop(op)

    def pg_join_verify(self, gid: Address,
                       routine: Callable[[Address, Any], bool]) -> Promise:
        """Register a join-validation routine (protection tool, §3.10)."""
        return self._hop(
            lambda k: k.joins.register_join_validator(gid, routine))

    # ------------------------------------------------------------------
    # Multicast / group RPC
    # ------------------------------------------------------------------
    def bcast(self, gid: Address, entry: int, nwant: int = 0,
              kind: str = CBCAST, **fields: Any) -> Promise:
        """Multicast to a group, collecting ``nwant`` replies.

        ``nwant=0`` returns immediately (asynchronous use); ``nwant=k``
        resolves with the first k replies; ``nwant=ALL`` waits for every
        member to reply, null-reply, or fail.
        """
        user = Message(**fields)

        def op(kernel: ProtocolsProcess) -> Promise:
            if kind == GBCAST:
                return kernel.rpc.group_gbcast(
                    self.process, gid, user, entry, nwant)
            return kernel.rpc.group_mcast(
                self.process, gid, kind, user, entry, nwant)

        return self._hop(op)

    def cbcast(self, gid: Address, entry: int, nwant: int = 0,
               **fields: Any) -> Promise:
        """Causally ordered multicast (cheap, fully asynchronous)."""
        return self.bcast(gid, entry, nwant, kind=CBCAST, **fields)

    def abcast(self, gid: Address, entry: int, nwant: int = 0,
               **fields: Any) -> Promise:
        """Totally ordered (atomic) multicast."""
        return self.bcast(gid, entry, nwant, kind=ABCAST, **fields)

    def gbcast(self, gid: Address, entry: int, nwant: int = 0,
               **fields: Any) -> Promise:
        """Multicast ordered relative to *everything*, incl. failures."""
        return self.bcast(gid, entry, nwant, kind=GBCAST, **fields)

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def reply(self, request: Message, **fields: Any) -> Promise:
        """Answer a group RPC (1 async CBCAST per Table I)."""
        answer = Message(**fields)
        return self._hop(
            lambda k: k.rpc.send_reply(self.process, request, answer,
                                       null=False))

    def null_reply(self, request: Message) -> Promise:
        """Decline to answer; releases the caller's wait for us (§3.2)."""
        return self._hop(
            lambda k: k.rpc.send_reply(self.process, request, Message(),
                                       null=True))

    def reply_cc(self, request: Message, cc_gid: Address,
                 **fields: Any) -> Promise:
        """Reply, with copies to the group at GENERIC_CC_REPLY (§6)."""
        answer = Message(**fields)
        return self._hop(
            lambda k: k.rpc.send_reply(self.process, request, answer,
                                       null=False, cc_gid=cc_gid))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def flush(self) -> Promise:
        """Block until our asynchronous multicasts are stable (§3.2 note)."""
        return self._hop(lambda k: k.flush_sends(self.process))

    def pg_view(self, gid: Address) -> Promise:
        """Current local view of a group (None when not a member here)."""
        return self._hop(lambda k: k.current_view(gid))

    def register_transfer(self, segment: str,
                          encoder: Callable[[], Iterable[bytes]],
                          decoder: Callable[[List[bytes]], None]) -> None:
        """Register a state-transfer segment (tools do this automatically)."""
        self.process.xfer_segments[segment] = (encoder, decoder)


def toolkit(process: IsisProcess) -> Isis:
    """Convenience constructor mirroring 'linking against the toolkit'."""
    return Isis(process)
