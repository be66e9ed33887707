"""Per-group protocol engine at one member site's kernel.

One :class:`GroupEngine` exists per (process group × member site).  It
owns the *membership* side of a group's life — view installation,
coordinator duties, local delivery — and drives the multicast data path
through the layered :class:`~repro.core.pipeline.DeliveryPipeline`
(dissemination → ordering → stability stages):

* **dissemination** — CBCAST/ABCAST envelopes fan out to every member
  site over the reliable transport, coalesced into ``g.batch`` wire
  messages when ``IsisConfig.batch_window > 0``; local members receive
  deliveries through the kernel's intra-site hop;
* **ordering** — causal (vector clocks) and total (two-phase priority
  or sequencer-stamp) delivery queues, both dependency-indexed — a
  delivery wakes exactly the messages it unblocks (FIFO successors and
  the threshold waiters of :class:`~repro.core.cbcast.WaitIndex`)
  instead of re-scanning buffers;
* **stability** — every message is buffered until known everywhere, so a
  flush can refill any member that missed something (``core/stability.py``);
* **the flush** — the one view-change protocol, ``engine.flush``
  (:class:`~repro.core.flush.GroupFlush`): wedging, union cut, refill,
  agreed ABCAST order.  It wedges the engine (:meth:`GroupEngine._wedge`)
  and hands each commit to :meth:`GroupEngine.apply_commit`, which
  applies its event (view change / user GBCAST / config update);
* **coordinator duties** — the oldest member's site batches flush
  reasons (joins, removals, GBCASTs), runs the flush, answers join
  requests, and pushes view updates to watcher sites (client kernels
  with sessions or monitors on the group).

Wire protocol (each message's fields: its row in ``msg/wire.py``; the
flush's ``g.fl.*`` are in ``core/flush.py``, stability's ``g.stab.*`` in
``core/stability.py``):

======================= ======================================================
``g.cb`` / ``g.ab``     data envelope; ``g.batch`` packs several
``g.abp`` / ``g.abf``   ABCAST proposal / final priority
``g.abs``               sequencer mode: order stamps from the token site
``g.tr``                tree mode: relayed wrapper around a pipeline message
======================= ======================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..msg.address import Address
from ..msg.message import Message
from .flush import FlushId, GroupFlush
from .pipeline import DeliveryPipeline
from .store import MessageStore
from .view import View

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import ProtocolsProcess

CBCAST = "cbcast"
ABCAST = "abcast"


def _request_id(user: Message) -> Tuple[Tuple[int, int], int]:
    """A forwarded multicast's or GBCAST's id: caller, session."""
    sender = user["_sender"]
    return (sender.site, sender.incarnation), user["_session"]


class GroupEngine:
    """All protocol state for one group at one member site."""

    def __init__(self, kernel: "ProtocolsProcess", gid: Address, name: str = ""):
        self.kernel = kernel
        self.sim = kernel.sim
        self.gid = gid
        self.name = name
        self.site_id = kernel.site_id
        self.view: Optional[View] = None
        self.installed = False
        self.store = MessageStore()
        #: The layered data path (dissemination → ordering → stability).
        self.pipeline = DeliveryPipeline(self)
        # The ordering state the flush protocol reports and force-orders.
        self.causal = self.pipeline.causal.receiver
        self.total = self.pipeline.total
        #: The view-change protocol, both sides (``core/flush.py``).
        self.flush = GroupFlush(self)
        self.wedged = False
        self._outbox: List[Callable[[], None]] = []
        #: When the wedge in progress began (``flush.wedged_seconds``).
        self._wedged_at: Optional[float] = None
        #: Client kernels to push view updates to.
        self.watcher_sites: Set[int] = set()
        #: Local pg_monitor callbacks: callback(view).
        self.monitors: List[Callable[[View], None]] = []
        #: The forwarded multicasts and GBCASTs delivered here: caller
        #: (site, incarnation) -> its sessions at or above its floor.
        self.committed: Dict[Tuple[int, int], Set[int]] = {}

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def acting_coordinator(self) -> Optional[Address]:
        """The oldest member whose site is still in the site view.

        Normally the view's first member; when the coordinator's site has
        failed (but the group view has not yet been updated), the next
        oldest member on a live site acts in its place to run the flush.
        """
        if not self.installed or self.view is None:
            return None
        alive = self.kernel.alive_sites()
        for member in self.view.members:
            if member.site in alive:
                return member
        return None

    def is_coordinator_site(self) -> bool:
        """Is this site hosting the group's acting coordinator member?"""
        acting = self.acting_coordinator()
        return acting is not None and acting.site == self.site_id

    def local_members(self) -> List[Address]:
        if self.view is None:
            return []
        return self.view.members_at(self.site_id)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def create(self, creator: Address) -> View:
        """Initialize as a brand-new single-member group."""
        self.view = View(gid=self.gid, view_id=1, members=(creator.process(),))
        self.installed = True
        self.sim.trace.log("group.create", (str(self.gid), str(creator)))
        return self.view

    def install_from_welcome(self, view: View) -> None:
        """Joiner side: adopt the view the coordinator committed."""
        self.view = view
        self.installed = True
        self._reset_for_new_view()
        self.pipeline.drain_pre_view()

    # ------------------------------------------------------------------
    # The committed-request record (``core/rpc.py`` states the rule)
    # ------------------------------------------------------------------
    def is_committed(self, user: Message) -> bool:
        caller, session = _request_id(user)
        return session in self.committed.get(caller, ())

    def commit_request(self, user: Message) -> bool:
        """Record the request ``user`` at its delivery, forgetting its
        caller's sessions below the floor it carries; False (and
        counted) if it was recorded already."""
        caller, session = _request_id(user)
        sessions = self.committed.setdefault(caller, set())
        if session in sessions:
            self.kernel.counters.bump("request.duplicates")
            return False
        floor = user["_floor"]
        sessions.difference_update([s for s in sessions if s < floor])
        sessions.add(session)
        return True

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def mcast(
        self,
        kind: str,
        sender: Address,
        user_msg: Message,
        entry: int,
        on_dispatched: Optional[Callable[[View], None]] = None,
        audited: bool = True,
        request: bool = False,
    ) -> None:
        """Multicast ``user_msg`` to the group (CBCAST or ABCAST).

        If the group is wedged (flush in progress) the send is queued and
        re-executed in the successor view — exactly the "messages are
        delivered in the view in which they were sent" rule.  ``sender``
        need not be a member: one is chosen here.

        ``audited=False`` suppresses the logical-multicast counter: used
        when this dissemination is part of an operation already counted
        (e.g. the group copy of a ``reply_cc``, which Table I costs as a
        single CBCAST with multiple destinations).

        ``request`` marks a forwarded request: one this group delivered
        already is answered (``on_dispatched``), not sent again.
        """
        if not self.installed or self.wedged:
            self._outbox.append(
                lambda: self.mcast(kind, sender, user_msg, entry,
                                   on_dispatched, audited, request))
            return
        assert self.view is not None
        # It goes out under a member of the view, the identity a vector
        # has a rank for: a process outside the group sends as a member
        # at its site, and so does a send queued while wedged by a member
        # the flush then removed.
        sender = sender.process()
        if sender not in self.view.members:
            local = self.local_members()
            if local:
                sender = local[0]
        if request and self.is_committed(user_msg):
            self.kernel.counters.bump("request.duplicates")
            assert on_dispatched is not None
            on_dispatched(self.view)
            return
        if audited:
            self.sim.trace.bump(f"mcast.{kind}")
        env = Message(
            _proto="g.cb" if kind == CBCAST else "g.ab",
            gid=self.gid,
            view=self.view.view_id,
            origin=self.site_id,
            gseq=self.pipeline.dissemination.next_gseq(),
            m=user_msg,
            entry=entry,
        )
        self.pipeline.submit(env, sender)
        if on_dispatched is not None:
            # Dispatch completes once the site CPU has accepted the
            # fan-out: asynchronous callers are flow-controlled by their
            # own protocols process, never outrunning the network path.
            view_snapshot = self.view
            self.kernel.site.cpu.submit(0.0, on_dispatched, view_snapshot)
        # Our own copy goes through the same ordering stages.
        self.pipeline.process(env)

    # ------------------------------------------------------------------
    # Delivery to local members
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Disarm the flush's timers and the pipeline's."""
        self.flush.shutdown()
        self.pipeline.shutdown()

    def deliver_env(self, env: Message) -> None:
        user = env["m"].copy()
        if "_floor" in user and not self.commit_request(user):
            return
        if "_sender" not in user:
            # Member sends stamp the true originator before dissemination;
            # if absent, the disseminating member is the sender.
            user["_sender"] = env.get("cb_sender") or env.get("ab_sender")
        user["_group"] = self.gid
        user["_view_id"] = env["view"]
        user["_entry"] = env["entry"]
        self.sim.trace.bump("deliver.group")
        if self.kernel.wal is not None:
            self.kernel.wal.note_deliver(self, env, user)
        self.kernel.deliver_to_local_members(self, user)
        if self.kernel.wal is not None:
            # After the dispatch: a periodic-checkpoint snapshot must
            # queue behind the delivery its position already counts.
            self.kernel.wal.maybe_checkpoint(self)

    # ------------------------------------------------------------------
    # The flush's calls into the engine: wedge, apply a commit
    # ------------------------------------------------------------------
    def maybe_start_flush(self) -> None:
        # A relay only because bench/trace.py wraps this name.
        self.flush.maybe_start()

    def _wedge(self, fid: FlushId) -> None:
        """Stop initiating multicasts: the flush ``fid`` collects this
        site's report."""
        if not self.wedged:
            self._wedged_at = self.sim.now
        self.wedged = True
        self.flush.on_wedge(fid)
        # Push coalescing buffers out now: what peers receive before
        # their reports shrinks the refill the coordinator must arrange.
        self.pipeline.on_wedge()

    def apply_commit(self, ab_order: List, event: tuple) -> None:
        """Deliver what is left of the view, apply a ``g.fl.commit``'s
        event (as ``msg/wire.py`` parses it) and install its view."""
        new_view, payloads = event[0], event[1]
        old_view = self.view
        # 1. Deliver the remaining causal messages of the old view.
        for ready in self.causal.recheck():
            self.deliver_env(ready)
        for leftover in self.causal.pending_messages():
            # Cross-group context gaps are overridden at the cut (see
            # DESIGN.md): the set, not the interleaving, is what view
            # synchrony fixes.
            self.deliver_env(leftover)
        # 2. Deliver the agreed ABCAST cut.
        for ready in self.total.force_order(ab_order):
            self.deliver_env(ready)
        # 3. Deliver GBCAST / configuration payloads.
        for idx, (kind, payload, entry) in enumerate(payloads or ()):
            if "_floor" in payload and not self.commit_request(payload):
                continue
            user = payload.copy()
            user["_group"] = self.gid
            user["_view_id"] = new_view.view_id
            user["_entry"] = entry
            user["_gb_kind"] = kind
            self.sim.trace.bump("deliver.gbcast")
            if self.kernel.wal is not None:
                self.kernel.wal.note_gbcast(self, new_view.view_id, idx, user)
            self.kernel.deliver_to_local_members(self, user)
        # 4. Install the new view.
        self.view = new_view
        self._reset_for_new_view()
        self.sim.trace.bump("group.views_installed")
        self.sim.trace.log("group.view", (str(self.gid), new_view.view_id,
                                          tuple(str(m) for m in new_view.members)))
        still_member = bool(new_view.members_at(self.site_id))
        self.kernel.on_view_installed(self, old_view, new_view, event)
        for monitor in list(self.monitors):
            if old_view.members != new_view.members:
                monitor(new_view)
        # 5. Resume.
        self.wedged = False
        if self._wedged_at is not None:
            self.kernel.counters.bump("flush.wedged_seconds",
                                      self.sim.now - self._wedged_at)
            self._wedged_at = None
        outbox, self._outbox = self._outbox, []
        if still_member:
            for resend in outbox:
                resend()
            self.pipeline.drain_pre_view()
        else:
            self.kernel.retire_engine(self)
        # 6. The view install can satisfy cross-group causal waits
        # elsewhere (per-view vectors reset, so old-view thresholds are
        # void): drain them now rather than at the next unrelated
        # arrival.
        self.kernel.causal_check.recheck()

    def _reset_for_new_view(self) -> None:
        self.store.reset()
        self.pipeline.on_new_view()
        self.flush.on_new_view()

    # ------------------------------------------------------------------
    # Failure events
    # ------------------------------------------------------------------
    def on_sites_died(self, dead_sites: Set[int]) -> None:
        """Site view removed sites: forget the record of their requests;
        the flush drops their members."""
        for caller in [c for c in self.committed if c[0] in dead_sites]:
            del self.committed[caller]
        self.flush.on_sites_died(dead_sites)
