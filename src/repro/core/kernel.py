"""The per-site *protocols process* (Figure 1 of the paper).

One :class:`ProtocolsProcess` runs at every operational site.  It

* implements the multicast primitives and handles all inter-site
  communication (every other process talks to it over the intra-site
  hop);
* maintains process-group views, *"using a cache for groups not resident
  at the site"* (``contact_cache`` + watcher subscriptions);
* runs the failure detector (heartbeats) and participates in the
  site-view membership protocol;
* hosts the replicated namespace and the group-RPC session table;
* orchestrates joins, leaves, state transfer and recovery hand-off.

Client processes never touch the network directly: the toolkit stubs in
:mod:`repro.core.groups` cross the 10 ms intra-site hop into this kernel,
exactly as ISIS clients called into their local protocols process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..errors import (
    CodecError,
    JoinRefused,
    NoSuchGroup,
    SiteDown,
)
from ..fd.heartbeat import HeartbeatConfig, HeartbeatMonitor
from ..fd.membership import make_membership_policy
from ..fd.siteview import SiteView, SiteViewAgent, SiteViewConfig
from ..msg.address import Address, make_group_address
from ..msg.message import Message
from ..msg.wire import PIPELINE, protocols
from ..runtime.process import IsisProcess
from ..runtime.site import KERNEL_LOCAL_ID, Site
from ..sim.core import Timer
from ..sim.tasks import Promise, all_of
from .cbcast import SenderChain
from .engine import ABCAST, CBCAST, GroupEngine
from .flush import FlushReason
from .namespace import Namespace
from .pipeline import STABILITY_INTERVAL
from .rpc import SessionTable
from .shards import WaiterKey, WaitIndex
from .vectorclock import (
    ChainContext,
    ContextDelta,
    apply_context_delta,
    first_in_walk_order,
    parse_context_delta,
)
from .view import View
from .wal import WalManager

#: Entry number reserved for pg_kill (the "send UNIX signal" of Table I).
KILL_ENTRY = 255
#: Entry number for coordinator-cohort reply copies (GENERIC_CC_REPLY, §6).
CC_REPLY_ENTRY = 3

_HEARTBEAT_PAYLOAD = b"hb"

#: CPU charged per hand-off to a local process: a delivery, or a state
#: capture queued behind them (:meth:`ProtocolsProcess.after_local_hop`).
LOCAL_DELIVERY_CPU = 0.0005

#: Joiner state (snapshot or WAL suffix) up to this size rides one
#: ordered message; above it, an ``st.chunk`` stream on the bulk channel.
BULK_THRESHOLD = 32768
#: Size of one ``st.chunk``: small enough that neither endpoint's CPU
#: nor the wire is held by a snapshot-sized block.
TRANSFER_CHUNK_BYTES = 65536
#: A joiner re-sends ``g.join`` at this cadence until welcomed, and a
#: welcomed but still gated joiner re-requests its state at the second.
JOIN_RETRY = 2.0
TRANSFER_RETRY = 4.0
#: A client's forwarded multicast is re-forwarded if no dispatch notice
#: is heard within the timeout, at most this many times.
FWD_RETRIES = 5
FWD_TIMEOUT = 5.0

#: Every event :meth:`ProtocolsProcess.stats` reports: stats key ->
#: counter name.  Such an event is bumped on ``kernel.counters`` and
#: nowhere else, which feeds both this site's ``stats()`` and the
#: cluster's ``sim.trace.value(name)``.  Five keys predate their
#: counter's name and keep their spelling; the rest are the name.
KERNEL_COUNTERS: Dict[str, str] = {
    "trimmed_messages": "stability.trimmed",
    "batches_sent": "batch.sent",
    "envelopes_batched": "batch.envelopes",
    "flush.rounds": "flush.runs",
    "flush.fast_path_hits": "flush.fast_path",
    **{name: name for name in (
        "abcast.proposals", "abcast.finals", "abcast.seq_stamps",
        "abcast.token_handoffs",
        "causal.ctx_delta_entries", "causal.ctx_full_walks",
        "flush.fast_path_misses", "flush.refill_bytes",
        "flush.wedged_seconds",     # the one float; completed wedges only
        "state_transfer.chunks", "state_transfer.stream_bytes",
        "state_transfer.streams_aborted",
        "stab.idle_skipped", "stab.up_sent", "stab.dn_sent",
        "tree.relayed", "tree.dup_drops", "tree.flat_fallbacks",
        "wal.appends", "wal.bytes", "wal.truncations", "wal.replayed",
        "checkpoint.writes", "checkpoint.bytes",
        "recovery.torn_tails", "recovery.rejoins", "recovery.total_restarts",
        "transfer.log_assisted_bytes_saved",
    )},
}


@dataclass
class IsisConfig:
    """Kernel tunables."""

    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)
    siteview: SiteViewConfig = field(default_factory=SiteViewConfig)
    #: Batch concurrent GBCAST payloads into one flush; turn off to
    #: reproduce the paper's per-update GBCAST costs.
    gbcast_batching: bool = True
    #: Envelope batching: data envelopes bound for the same (group,
    #: site) coalesce into one ``g.batch`` wire message, flushed after
    #: this window (seconds) or at ``pipeline.BATCH_MAX_BYTES``.  ``0``
    #: disables batching: every envelope is its own wire message.
    batch_window: float = 0.0
    #: Piggyback the ``stab`` blob (have-vector, delivery floor) on
    #: outgoing data envelopes and batches so buffer GC advances
    #: continuously; the coordinator's round then only runs for idle
    #: groups.  Off, the round is the only collector.
    piggyback_stability: bool = True
    #: Total-order engine.  ``"two_phase"`` (default) is the paper's
    #: ABCAST: every receiver proposes a priority, the sender unions and
    #: rebroadcasts the final — ~2 wire rounds and O(n) protocol messages
    #: per multicast.  ``"sequencer"`` routes ordering through a single
    #: token site (the view's lowest-ranked member's site), which
    #: broadcasts batched ``g.abs`` order stamps: one phase, O(1) extra
    #: messages per ABCAST in steady state.  Token handoff rides the
    #: flush, preserving virtual synchrony across view changes.
    abcast_mode: str = "two_phase"
    #: Partition policy for site-view membership (see fd/membership.py).
    #: ``"primary"`` (default) is the paper's rule: a component may
    #: install the next view iff it holds at least half of the *previous
    #: view*; the losing side stalls until the winner's commit excludes
    #: it (§2.1/§3.7).
    #: ``"quorum"`` requires a strict weighted majority of the *static
    #: deployment*: the majority component keeps installing views and
    #: committing group events through a partition, every minority
    #: component wedges (site layer stalled + group flushes gated), and
    #: healed minority sites rejoin via the ordinary state-transfer
    #: path.  With ``durability`` on, votes are weighed by WAL position
    #: (a site whose log holds data counts double).
    membership: str = "primary"
    #: Dissemination topology.  ``"flat"`` (default) fans every multicast
    #: out to all member sites directly.  ``"tree"`` relays envelopes,
    #: sequencer stamps and stability traffic along a deterministic k-ary
    #: spanning tree computed from the view (each origin roots its own
    #: rotation of the same tree), cutting per-site wire cost from O(n)
    #: to O(fanout) per multicast; stability likewise aggregates up the
    #: token site's tree instead of every site telling every other.  Flushes
    #: always fall back to flat sends (commits must not depend on
    #: relays), so virtual synchrony guarantees are unchanged — a dead
    #: relay's subtree hole is repaired by the very view-change flush
    #: that removes it.  Cluster-wide setting: all kernels must agree.
    dissemination: str = "flat"
    #: Branching factor of the dissemination/aggregation spanning tree.
    tree_fanout: int = 4
    #: Write-ahead delivery logging (§5 recovery).  Off by default: the
    #: hot path has no disk events.  On, every group delivery and installed
    #: view appends a checksummed record to the site's stable store, so
    #: a restarted site can rejoin with log-assisted state transfer and
    #: a total failure can be recovered from the best surviving log.
    durability: bool = False
    #: Checkpoint a group after this many logged deliveries since the
    #: last checkpoint (0 disables the count trigger; stability trims
    #: still drive checkpoints via ``wal_trim_min``).
    wal_checkpoint_every: int = 200
    #: Minimum deliveries since the last checkpoint before a stability
    #: trim opportunistically checkpoints too.
    wal_trim_min: int = 16


def _shortfall(engine: Optional[GroupEngine], view_id: int,
               members: Sequence[bytes],
               by_position: Iterable[Tuple[int, int]],
               by_address: Iterable[Tuple[bytes, int]],
               ) -> Optional[Sequence[Tuple[bytes, int]]]:
    """One causal-context entry of view ``view_id`` (counters by position
    in ``members`` and by address) against ``engine``, its group here:
    the ``(member, count)``s we are short of, in order, or None if our
    view is older.  Not installed here (cannot, and need not, wait) or a
    newer view (the old one was flushed) satisfies."""
    if engine is None or not engine.installed:
        return ()
    view = engine.view
    if view is None or view.view_id > view_id:
        return ()
    if view.view_id < view_id:
        return None
    have = engine.causal.delivered
    short = [(members[mpos], count) for mpos, count in by_position
             if have.get(members[mpos], 0) < count]
    if by_address:
        short += [mc for mc in by_address if have.get(mc[0], 0) < mc[1]]
    return short


class _JoinState:
    __slots__ = ("process", "gid", "credentials", "promise", "timer",
                 "welcomed", "transfer_timer", "tried", "stream_xid",
                 "stream_buf", "hint")

    def __init__(self, process: IsisProcess, gid: Address, credentials: Any,
                 promise: Promise):
        self.process = process
        self.gid = gid
        self.credentials = credentials
        self.promise = promise
        self.timer: Optional[Timer] = None
        self.transfer_timer: Optional[Timer] = None
        self.welcomed = False
        #: Contact sites already tried (rotate when the contact is dead).
        self.tried: Set[int] = set()
        #: Streaming state transfer reassembly.
        self.stream_xid: Optional[int] = None
        self.stream_buf: List[bytes] = []
        #: Rejoin position from our replayed WAL: (view, delivered enc).
        self.hint: Optional[Tuple[int, bytes]] = None

    def disarm(self) -> None:
        """Cancel the request-retry and the transfer-retry timer."""
        for timer in (self.timer, self.transfer_timer):
            if timer is not None:
                timer.cancel()
        self.timer = self.transfer_timer = None


class ProtocolsProcess:
    """The kernel at one site."""

    def __init__(self, site: Site, all_sites: List[int],
                 config: Optional[IsisConfig] = None,
                 join_existing: bool = False):
        self.site = site
        self.sim = site.sim
        self.site_id = site.site_id
        self.config = config or IsisConfig()
        self.alive = True
        #: This kernel's events (:data:`KERNEL_COUNTERS`), also counted
        #: cluster-wide.  Made before the WAL, which counts its replay.
        self.counters = self.sim.trace.child()
        #: Sites named in the deployment configuration (the kernel's
        #: pre-genesis world view; the site view replaces it after
        #: genesis).  Stored here so the kernel never needs to reach
        #: into driver internals to enumerate the cluster.
        self._all_sites = list(all_sites)
        self.process = site.spawn_process("protocols", local_id=KERNEL_LOCAL_ID)
        site.kernel = self
        site.set_message_handler(self._on_transport_message)
        site.set_raw_handler(self._on_raw)
        site.set_bulk_handler(self._on_transport_message)
        site.on_crash(lambda _site: self.shutdown())
        # Failure detection + site views.
        self.heartbeat = HeartbeatMonitor(
            self.sim, self.site_id,
            send_probe=self._send_heartbeat,
            on_suspect=self._on_suspect,
            config=self.config.heartbeat,
        )
        self.membership_policy = make_membership_policy(
            self.config.membership, all_sites, own_weight=self._vote_weight)
        self.agent = SiteViewAgent(
            self.sim, self.site_id, site.incarnation, all_sites,
            send=self.send_to_site,
            on_view=self._on_site_view,
            self_destruct=self._self_destruct,
            config=self.config.siteview,
            policy=self.membership_policy,
        )
        # Namespace + RPC.
        self.namespace = Namespace(self.sim, self.site_id, self.send_to_site)
        self.sessions = SessionTable(
            self.sim, resolve_delay=site.local_hop_delay)
        # Groups.
        self.engines: Dict[Address, GroupEngine] = {}
        #: Groups needing attention at the next stability tick, so the
        #: tick touches only those.
        self._stab_dirty: Set[Address] = set()
        #: Most groups hosted at once (``kernel.peak_groups_per_shard``).
        self._peak_groups = 0
        #: Cross-group causal wait thresholds.
        self.wait_index = WaitIndex()
        #: Groups owed a candidate drain (a wake marked candidates there).
        self._causal_wakes: Set[Address] = set()
        #: gid -> creation rank; recheck passes visit woken groups in
        #: this order (the ``engines`` dict's).
        self._engine_order: Dict[Address, int] = {}
        self._next_engine_rank = 0
        #: Groups that became installed here since boot.  A sender chain
        #: checked before the latest install may hold an entry that was
        #: skipped as "not a member" and is testable now.
        self._group_installs = 0
        #: ``engines`` keyed by packed gid, in packed order — how a
        #: ``cb_ctx`` names and orders groups; rebuilt when the group
        #: table changes.
        self._engines_packed: Optional[Dict[bytes, GroupEngine]] = None
        #: Pending-depth high-water mark of engines retired since boot
        #: (a peak is not an event, so ``counters`` cannot hold it).
        self._retired_peak_pending = 0
        self.contact_cache: Dict[Address, int] = {}
        self._next_group_no = 1
        self._joins: Dict[Address, _JoinState] = {}
        self._leave_waiters: Dict[Tuple[Address, Address], Promise] = {}
        self._awaiting_state: Dict[Address, List[Message]] = {}
        self._join_validators: Dict[Address, List[Callable]] = {}
        self._watched_procs: Set[int] = set()
        self._client_monitors: Dict[Address, List[Callable[[View], None]]] = {}
        self._watched_views: Dict[Address, Set[Address]] = {}
        self._fwd_attempts: Dict[int, int] = {}
        self._fwd_tried: Dict[int, Set[int]] = {}
        #: Forwarded multicasts not yet acknowledged by a dispatcher.
        #: Needed for nwant=0 sends whose session resolves immediately:
        #: the fire-and-forget message must still reach a live member.
        self._fwd_unacked: Set[int] = set()
        self._outstanding_sends: Dict[Address, List[Promise]] = {}
        #: Outgoing join-snapshot streams: (gid, joiner process) -> state.
        self._out_streams: Dict[Tuple[Address, Address], Dict[str, Any]] = {}
        self._next_xfer_id = 1
        # Extension hooks for the tools layer.
        self.view_hooks: List[Callable] = []
        self.site_view_hooks: List[Callable] = []
        self._services: Dict[str, Callable[[int, Message], None]] = {}
        #: Write-ahead delivery log; ``None`` keeps every hot-path hook
        #: a no-op so default trajectories match the crash-stop system.
        self.wal: Optional[WalManager] = (
            WalManager(self) if self.config.durability else None)
        #: Rejoin positions piggybacked on ``g.join``, held at the
        #: coordinator/source site until the admitting flush ships state.
        self._join_hints: Dict[Tuple[Address, Address],
                               Tuple[int, bytes]] = {}
        self._stability_timer: Optional[Timer] = None
        self._schedule_stability()
        self.heartbeat.start()
        if join_existing:
            self.agent.request_join()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.heartbeat.stop()
        self.agent.stop()
        if self._stability_timer is not None:
            self._stability_timer.cancel()
            self._stability_timer = None
        for engine in self.engines.values():
            engine.shutdown()
        self.engines.clear()
        # Join attempts in flight: their retry/transfer timers would
        # otherwise fire into a dead kernel.
        for state in self._joins.values():
            state.disarm()
            if not state.promise.done:
                state.promise.reject(
                    SiteDown(f"site {self.site_id} is down"))
        self._joins.clear()
        # Outbound state-transfer streams: close the bulk connections so
        # receivers see a reset instead of a silent stall.
        for stream in self._out_streams.values():
            stream["conn"].close()
        self._out_streams.clear()

    def _self_destruct(self) -> None:
        """We were excluded from the site view while alive (§3.7)."""
        self.sim.trace.log("kernel.self_destruct", self.site_id)
        self.site.crash()

    def genesis(self, members: List[Tuple[int, int]]) -> None:
        """Install the initial site view (cluster bootstrap)."""
        self.agent.genesis(members)

    @property
    def site_view(self) -> Optional[SiteView]:
        return self.agent.view

    def alive_sites(self) -> Set[int]:
        """Sites in the current site view (everyone, before genesis)."""
        view = self.agent.view
        if view is None:
            return set(self._all_sites)
        return set(view.sites())

    def _vote_weight(self) -> int:
        """This site's membership vote weight (quorum mode only).

        With durability on, a site whose WAL holds any logged data
        counts double — the analogue of the §5 recovery poll's log
        ranking, so a thin majority of blank restarts cannot outvote
        the component that actually holds the committed prefix.
        """
        if self.wal is not None:
            for gw in self.wal.groups.values():
                view_id, delivered = gw.position()
                if delivered > 0 or view_id > 1:
                    return 2
        return 1

    def membership_may_commit(self) -> bool:
        """May group flushes on this kernel commit right now?

        Primary-partition mode always says yes — the site-view install
        rule is the only gate, exactly the pre-seam behaviour.  Quorum
        mode additionally requires the sites this kernel currently
        believes alive (current view minus heartbeat suspects) to hold
        a weighted majority of the static deployment: without this, a
        group wholly contained in the minority component would keep
        committing GBCASTs even though the site layer is stalled.
        """
        view = self.agent.view
        if view is None:
            return True
        return self.membership_policy.group_commit_allowed(
            self.agent.unsuspected_members(), view.members)

    # ------------------------------------------------------------------
    # Transport plumbing
    # ------------------------------------------------------------------
    def send_to_site(self, dst_site: int, msg: Message) -> Promise:
        """Reliable FIFO send of a control/data message to a site kernel."""
        if dst_site == self.site_id:
            promise = Promise(label="loopback")
            data = msg.encode()  # loopbacks still pay encoding fidelity
            self.sim.call_soon(self._dispatch, self.site_id, Message.decode(data))
            promise.resolve(None)
            return promise
        try:
            return self.site.send_bytes(dst_site, msg.encode())
        except SiteDown:
            promise = Promise(label="send-to-down-site")
            promise.reject(SiteDown(f"site {dst_site} down"))
            return promise

    def _on_transport_message(self, src_site: int, data: bytes) -> None:
        """A message or a bulk chunk landed: decode and dispatch it."""
        if not self.alive:
            return
        try:
            msg = Message.decode(data)
        except CodecError:
            self.sim.trace.bump("kernel.undecodable")
            return
        self._dispatch(src_site, msg)

    def _on_raw(self, src_site: int, payload: bytes) -> None:
        if self.alive and payload == _HEARTBEAT_PAYLOAD:
            self.heartbeat.note_heartbeat(src_site)

    def _send_heartbeat(self, dst_site: int) -> None:
        if self.alive:
            self.site.send_raw(dst_site, _HEARTBEAT_PAYLOAD)

    def _on_suspect(self, site_id: int) -> None:
        self.agent.suspect(site_id)
        # Unblock waiting callers immediately: a suspected site's members
        # count as failed respondents (§2.2 — "the caller should be
        # informed if all members fail"; detection is by timeout, §2.1).
        # If the suspicion was false the site recovers anyway (§3.7), so
        # treating its replies as lost is sound.
        self.sessions_note_sites_failed({site_id})

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, src_site: int, msg: Message) -> None:
        """Route one message off the wire (or a loopback).

        Every routed protocol is declared in ``msg/wire.py``: the message
        is parsed against its row before any handler runs, and the
        handler gets the record.  A wrong shape is refused here, and only
        here: counted (``kernel.bad_message``) and dropped whole.
        """
        if not self.alive:
            return
        proto = msg.get("_proto", "")
        route = _ROUTES.get(proto)
        if route is not None:
            read, deliver = route
            try:
                deliver(self, src_site, proto, read(msg))
            except CodecError:
                self.sim.trace.bump("kernel.bad_message")
            return
        for prefix, handler in self._services.items():
            if proto.startswith(prefix):
                handler(src_site, msg)
                return
        self.sim.trace.bump("kernel.unknown_proto")

    def register_service(self, prefix: str,
                         handler: Callable[[int, Message], None]) -> None:
        """Attach a site service (recovery manager, news routing, ...)."""
        self._services[prefix] = handler

    def _engine_for(self, gid: Optional[Address],
                    create: bool = False) -> Optional[GroupEngine]:
        if gid is None:
            return None
        key = gid.process()
        engine = self.engines.get(key)
        if engine is None and create:
            engine = GroupEngine(self, key)
            self.engines[key] = engine
            self._note_engine(key)
        return engine

    def _coordinating_engine(self, gid: Address,
                             msg: Message) -> Optional[GroupEngine]:
        """The engine of group ``gid`` a coordinator-bound request is
        for, if we are to act on it: not when the group is not installed
        here (dropped) or its coordinator is at another site (``msg``
        relayed there)."""
        engine = self.engines.get(gid.process())
        if engine is None or not engine.installed or engine.view is None:
            return None
        if not engine.is_coordinator_site():
            self.send_to_site(engine.view.coordinator().site, msg)
            return None
        return engine

    def _note_engine(self, key: Address) -> None:
        """Record a group's creation rank (recheck pass ordering)."""
        if key not in self._engine_order:
            self._engine_order[key] = self._next_engine_rank
            self._next_engine_rank += 1
        self._peak_groups = max(self._peak_groups, len(self.engines))
        self._engines_packed = None

    def note_group_dirty(self, key: Address) -> None:
        """Mark a group as needing the next stability tick.

        Called when a group buffers a message, advances its delivery
        floor, or receives tree-aggregation traffic — anything the
        periodic stability pass must look at.  Groups never marked are
        skipped entirely (``stab.idle_skipped``).
        """
        self._stab_dirty.add(key)

    # ------------------------------------------------------------------
    # Services used by GroupEngine
    # ------------------------------------------------------------------
    def _packed_engines(self) -> Dict[bytes, GroupEngine]:
        table = self._engines_packed
        if table is None:
            table = self._engines_packed = dict(sorted(
                (gid.pack(), engine) for gid, engine in self.engines.items()))
        return table

    def causal_groups(self) -> Dict[bytes, Tuple[int, Dict[bytes, int]]]:
        """Our installed groups' *live* delivered counts, as ``packed
        gid -> (view id, packed member -> count)`` in gid order: what a
        :class:`~repro.core.vectorclock.ContextEncoder` diffs."""
        return {gid: (engine.view.view_id, engine.causal.delivered)
                for gid, engine in self._packed_engines().items()
                if engine.installed and engine.view is not None}

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
        if delta.full or chain.installs == self._group_installs:
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
            chain.installs = self._group_installs
        return satisfied

    def _check_delta(self, base: ChainContext, delta: ContextDelta,
                     waiter: WaiterKey) -> bool:
        """The context check restricted to the delta's entries.

        On failure the waiter goes on the threshold a walk of ``base``
        advanced by ``delta`` would meet first: the chain's order, which
        a moved entry's counters are already in.
        """
        engines = self._packed_engines()
        #: gid -> the (member, count)s we are short of; None for a view
        #: threshold.
        failed: Dict[bytes, Optional[Sequence[Tuple[bytes, int]]]] = {}
        for gid, view_id, members, counts in delta.named:
            short = _shortfall(engines.get(gid), view_id, (), (),
                               zip(members, counts))
            if short is None or short:
                failed[gid] = short
        # What the delta names by position: the group, its view and the
        # members are the chain's.
        gids, views, held = base.gids, base.views, base.members
        for gpos, counters, gained in delta.moved:
            gid = gids[gpos]
            short = _shortfall(engines.get(gid), views[gpos], held[gpos],
                               counters, gained)
            if short is None or short:
                failed[gid] = short
        if not failed:
            return True
        gid = first_in_walk_order(list(failed), () if delta.full else gids)
        short = failed[gid]
        if short is None:
            self.wait_index.register_view(gid, waiter)
        else:
            member, count = short[0]
            self.wait_index.register_counter(gid, member, count, waiter)
        return False

    def note_causal_advance(self, gid: bytes, sender: bytes,
                            seq: int) -> None:
        """Group ``gid`` (packed) delivered (sender, seq): wake threshold
        waiters."""
        self._wake_waiters(self.wait_index.on_advance(gid, sender, seq))

    def note_group_view_event(self, gid: Address) -> None:
        """Group ``gid`` installed a view (or retired) here: the waits
        its pending messages held are gone with its buffer, and the
        thresholds others wait on in it are all satisfied now — wake
        everything keyed on it."""
        key = gid.process()
        self.wait_index.purge_engine(key)
        self._wake_waiters(self.wait_index.on_view_event(key.pack()))

    def _wake_waiters(self, waiters: List[WaiterKey]) -> None:
        for engine_gid, key in waiters:
            engine = self.engines.get(engine_gid)
            if engine is not None and engine.causal.mark_candidate(key):
                self._causal_wakes.add(engine_gid)

    def recheck_causal(self, exclude: Optional[Address] = None) -> None:
        """A group advanced: unblock cross-group causal waits elsewhere.

        Drains only groups whose WaitIndex thresholds were actually
        crossed (candidate marks), visiting them in engine order — O(1)
        when nothing woke.
        """
        if not self._causal_wakes:
            return
        exclude_key = exclude.process() if exclude is not None else None
        # One pass in engine-creation order over the *live* wake set
        # (never the whole engines dict): a group woken mid-pass at a
        # later rank is drained this pass, one at an earlier rank waits
        # for the next trigger — the semantics of one pass over the
        # engines dict, at O(woken groups) per call.
        last_rank = -1
        while True:
            best = None
            best_rank = -1
            for gid in self._causal_wakes:
                if gid == exclude_key:
                    continue
                rank = self._engine_order.get(gid, -1)
                if rank > last_rank and (best is None or rank < best_rank):
                    best, best_rank = gid, rank
            if best is None:
                break
            last_rank = best_rank
            self._causal_wakes.discard(best)
            engine = self.engines.get(best)
            if engine is None:
                continue
            for ready in engine.causal.recheck():
                engine.deliver_env(ready)

    def deliver_to_local_members(self, engine: GroupEngine,
                                 user: Message) -> None:
        """Hand a delivered group message to every local member process."""
        if user.entry == KILL_ENTRY:
            for member in engine.local_members():
                process = self.site.process_by_id(member.local_id)
                if process is not None and process.alive:
                    self.sim.trace.bump("pg_kill.signals")
                    process.kill()
            return
        for member in engine.local_members():
            copy = user.copy()
            if member.process() in self._awaiting_state:
                self._awaiting_state[member.process()].append(copy)
                continue
            process = self.site.process_by_id(member.local_id)
            if process is None or not process.alive:
                continue
            self.after_local_hop(process.deliver, copy)

    def after_local_hop(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` one kernel-to-process hop from now: behind
        every hand-off already queued on the CPU, ahead of any later one."""
        self.site.cpu.submit(
            LOCAL_DELIVERY_CPU,
            self.sim.call_after, self.site.local_hop_delay, fn, *args)

    def on_view_installed(self, engine: GroupEngine, old_view: View,
                          new_view: View, event: tuple) -> None:
        """Every member site runs this when a flush commit installs;
        ``event`` is the commit's, parsed (``msg/wire.py``)."""
        _view, payloads, joiners, transfer, source = event
        joiners = joiners or []
        gid = engine.gid
        if new_view.members:
            self.contact_cache[gid] = new_view.coordinator().site
        removed = [m for m in old_view.members if not new_view.contains(m)]
        if removed:
            self.sessions.note_members_failed(removed)
        # Resolve local leave waiters.
        for member in removed:
            waiter = self._leave_waiters.pop((gid, member.process()), None)
            if waiter is not None and not waiter.done:
                waiter.resolve(None)
        # Watch local member processes for death (local failure detection).
        for member in new_view.members_at(self.site_id):
            self._watch_member(engine, member)
        # State transfer: the designated source ships state to every
        # joiner this flush admitted (one shared snapshot encode).
        if (joiners and transfer and source is not None
                and source.site == self.site_id):
            self._send_state(engine, source, joiners)
        # Stale rejoin hints (transfer-less admission, or a source at
        # another site consumed its own copy) must not leak.
        if self._join_hints:
            for joiner in joiners:
                self._join_hints.pop((gid, joiner.process()), None)
        # A member removed in this view dies with its snapshot stream.
        for member in removed:
            self._abort_state_stream(engine.gid, member.process())
        # GBCAST payload sessions: the caller learns the delivery view.
        for _kind, m, _entry in payloads or ():
            session = m.get("_session")
            reply_to = m.get("_reply_to")
            if session is not None and reply_to is not None \
                    and reply_to.site == self.site_id:
                self.sessions.on_dispatched(session, list(new_view.members))
        # The WAL's view record goes in *after* _send_state built any
        # log suffix: the suffix cut then ends exactly at the V/V+1
        # boundary the joiner resumes from.
        if self.wal is not None:
            self.wal.note_view(engine, new_view)
        for hook in self.view_hooks:
            hook(engine, old_view, new_view, event)

    def on_flush_committed(self, engine: GroupEngine, new_view: View,
                           joiners: List[Address], transfer: bool) -> None:
        """Coordinator-only duties at commit time."""
        for joiner in joiners:
            welcome = Message(
                _proto="g.welcome", gid=engine.gid,
                view=new_view.to_value(), transfer=transfer,
            )
            self.send_to_site(joiner.site, welcome)
        update = Message(_proto="g.view_update", gid=engine.gid,
                         view=new_view.to_value())
        for watcher in set(engine.watcher_sites):
            if watcher != self.site_id:
                self.send_to_site(watcher, update)

    def retire_engine(self, engine: GroupEngine) -> None:
        """No local members remain in the group's current view."""
        key = engine.gid.process()
        self.engines.pop(key, None)
        self._engines_packed = None
        self._causal_wakes.discard(key)
        self._engine_order.pop(key, None)
        self._stab_dirty.discard(key)
        self._retired_peak_pending = max(self._retired_peak_pending,
                                         engine.causal.peak_pending)
        # Its pending buffer is gone, and contexts naming it are now
        # trivially satisfied ("not a member: cannot wait").
        self.note_group_view_event(key)

    def _watch_member(self, engine: GroupEngine, member: Address) -> None:
        if member.local_id in self._watched_procs:
            return
        process = self.site.process_by_id(member.local_id)
        if process is None:
            return
        self._watched_procs.add(member.local_id)

        def died(proc: IsisProcess) -> None:
            self._watched_procs.discard(proc.local_id)
            if not self.alive:
                return
            # A joiner that dies mid state-transfer: drop its gated
            # traffic and pending join bookkeeping cleanly.
            self._awaiting_state.pop(proc.address.process(), None)
            for gid, join_state in list(self._joins.items()):
                if join_state.process is proc:
                    join_state.disarm()
                    del self._joins[gid]
            for eng in list(self.engines.values()):
                if eng.view is not None and eng.view.contains(proc.address):
                    eng.on_local_member_died(proc.address)

        process.watch_death(died)

    # ------------------------------------------------------------------
    # Site-view reactions
    # ------------------------------------------------------------------
    def _on_site_view(self, view: SiteView, departed: Set[int],
                      joined: Set[int]) -> None:
        self.heartbeat.set_peers(view.sites())
        is_ns_coordinator = view.coordinator_site() == self.site_id
        self.namespace.set_role(is_ns_coordinator, list(view.sites()))
        if is_ns_coordinator and joined:
            self.namespace.snapshot_to(sorted(joined))
        if departed and self.site.transport is not None:
            for site in departed:
                self.site.transport.reset_channel(site)
            for key, stream in list(self._out_streams.items()):
                if stream["site"] in departed:
                    self._abort_state_stream(key[0], key[1])
            self.sessions_note_sites_failed(departed)
            for engine in list(self.engines.values()):
                engine.on_sites_died(departed)
        if self.config.membership != "primary":
            # Quorum mode: a view install clears suspicions, which may
            # restore commit rights a gated flush was waiting on.
            for engine in list(self.engines.values()):
                engine.maybe_start_flush()
        for hook in self.site_view_hooks:
            hook(view, departed, joined)

    def sessions_note_sites_failed(self, sites: Set[int]) -> None:
        from ..errors import BroadcastFailed
        for session in list(self.sessions._sessions.values()):
            if session.via_site is not None and session.via_site in sites \
                    and session.via_site != self.site_id:
                # The site that disseminated for us died: the multicast
                # may have been dropped atomically.  Error code → reissue.
                self.sessions.note_session_failed(
                    session.id,
                    BroadcastFailed(
                        f"session {session.id}: disseminating site "
                        f"{session.via_site} failed", session.replies))
                continue
            if session.expected is None:
                continue
            dead = [m for m in session.expected if m.site in sites]
            if dead:
                self.sessions.note_members_failed(dead)

    # ------------------------------------------------------------------
    # Group operations (called by the toolkit stubs)
    # ------------------------------------------------------------------
    def create_group(self, process: IsisProcess, name: str) -> Promise:
        """Mint a group with this process as sole (oldest) member."""
        self.sim.trace.bump("tool.pg_create")
        gid = make_group_address(self.site_id, self._next_group_no)
        gid = Address(site=gid.site, incarnation=self.site.incarnation,
                      local_id=gid.local_id, is_group=True)
        self._next_group_no += 1
        engine = GroupEngine(self, gid, name)
        self.engines[gid] = engine
        self._note_engine(gid)
        self._group_installs += 1
        view = engine.create(process.address)
        if self.wal is not None:
            self.wal.arm_create(engine, process, name)
        self.contact_cache[gid] = self.site_id
        self._watch_member(engine, process.address)
        sv = self.site_view
        coordinator = sv.coordinator_site() if sv is not None else self.site_id
        out = Promise(label=f"pg_create({name})")
        self.namespace.register(name, gid, self.site_id, coordinator) \
            .add_done_callback(lambda p: out.resolve(gid))
        return out

    def lookup_name(self, name: str) -> Promise:
        """Resolve a symbolic group name (Table I: pg_lookup)."""
        self.sim.trace.bump("tool.pg_lookup")
        sv = self.site_view
        coordinator = sv.coordinator_site() if sv is not None else self.site_id
        out = Promise(label=f"pg_lookup({name})")

        def finish(p: Promise) -> None:
            gid = p.value if not p.rejected else None
            if gid is None:
                out.reject(NoSuchGroup(f"no group named {name!r}"))
            else:
                hint = self.namespace.contact_hint(name)
                if hint is not None and gid not in self.contact_cache:
                    self.contact_cache[gid.process()] = hint
                out.resolve(gid)

        self.namespace.query(name, coordinator).add_done_callback(finish)
        return out

    def join_group(self, process: IsisProcess, gid: Address,
                   credentials: Any = None) -> Promise:
        """Request membership; resolves with the first view we appear in."""
        self.sim.trace.bump("tool.pg_join")
        key = gid.process()
        promise = Promise(label=f"pg_join({gid})")
        state = _JoinState(process, key, credentials, promise)
        if self.wal is not None and key not in self.engines:
            # A true rejoin (no live engine here): offer our replayed
            # log position so the source can ship just the suffix.
            state.hint = self.wal.rejoin_hint(key)
        self._joins[key] = state
        # Gate deliveries to the joiner until its state arrives.
        self._awaiting_state.setdefault(process.address.process(), [])
        self._send_join_request(state)
        return promise

    def _send_join_request(self, state: _JoinState) -> None:
        if state.promise.done or not self.alive:
            return
        # Any member site forwards the request to the acting coordinator.
        contact = self._pick_contact(state.tried, state.gid)
        request = Message(
            _proto="g.join", gid=state.gid,
            joiner=state.process.address.process(),
            cred=state.credentials,
        )
        if state.hint is not None:
            request["wal_view"] = state.hint[0]
            request["wal_dlv"] = state.hint[1]
        self.send_to_site(contact, request)
        state.timer = self.sim.call_after(
            JOIN_RETRY, self._send_join_request, state)

    def _on_join_request(self, src_site: int, record: tuple) -> None:
        msg, gid, joiner, cred, wal_view, wal_dlv = record
        engine = self._coordinating_engine(gid, msg)
        if engine is None:
            if self.current_view(gid) is None:   # not relayed: no group here
                self.send_to_site(joiner.site, Message(
                    _proto="g.fwd.nak", gid=gid, session=-1,
                    hint=self.contact_cache.get(gid.process()),
                ))
            return
        if engine.view.contains(joiner):
            # Already a member (duplicate request): re-welcome.
            self.send_to_site(joiner.site, Message(
                _proto="g.welcome", gid=gid,
                view=engine.view.to_value(), transfer=False,
            ))
            return
        for validator in self._join_validators.get(gid.process(), []):
            if not validator(joiner, cred):
                self.sim.trace.bump("protection.joins_refused")
                self.send_to_site(joiner.site, Message(
                    _proto="g.join.refused", gid=gid, joiner=joiner))
                return
        if self.wal is not None and wal_dlv is not None:
            self._join_hints[(gid.process(), joiner.process())] = (
                wal_view or 0, wal_dlv)
        engine.enqueue_reason(FlushReason(kind="join", joiner=joiner))

    def _on_join_refused(self, src_site: int, record: tuple) -> None:
        _, gid, _joiner = record
        state = self._joins.pop(gid.process(), None)
        if state is not None:
            state.disarm()
            self._release_gate(state.process.address, deliver=False)
            state.promise.reject(JoinRefused(f"join to {gid} refused"))

    def _on_welcome(self, src_site: int, record: tuple) -> None:
        _, gid, view, transfer = record
        engine = self._engine_for(gid, create=True)
        assert engine is not None
        if not engine.installed:
            # Counted first: installing drains held envelopes, whose
            # deliveries re-evaluate contexts in other groups.
            self._group_installs += 1
            engine.install_from_welcome(view)
        self.contact_cache[gid.process()] = view.coordinator().site
        state = self._joins.get(gid.process())
        if state is None:
            return
        state.welcomed = True
        state.disarm()
        for member in view.members_at(self.site_id):
            self._watch_member(engine, member)
        if transfer:
            state.transfer_timer = self.sim.call_after(
                TRANSFER_RETRY, self._rerequest_state, state)
        else:
            self._finish_join(state, view)

    def _finish_join(self, state: _JoinState, view: View) -> None:
        self._joins.pop(state.gid, None)
        state.disarm()
        if self.wal is not None:
            # Arm before the gate opens: the checkpoint written here
            # captures exactly the transferred state, and the gated
            # deliveries (already buffered as pending records) land in
            # the log after it — replay order matches delivery order.
            engine = self.engines.get(state.gid)
            if engine is not None:
                self.wal.arm_member(engine, state.process)
        self._release_gate(state.process.address, deliver=True)
        self.sim.call_after(self.site.local_hop_delay,
                            state.promise.resolve, view)

    def _release_gate(self, member: Address, deliver: bool) -> None:
        queued = self._awaiting_state.pop(member.process(), [])
        if not deliver:
            return
        process = self.site.process_by_id(member.local_id)
        if process is None or not process.alive:
            return
        for msg in queued:
            self.after_local_hop(process.deliver, msg)

    # -- state transfer -----------------------------------------------------
    def _send_state(self, engine: GroupEngine, source: Address,
                    joiners: List[Address]) -> None:
        process = self.site.process_by_id(source.local_id)
        if process is None or not process.alive:
            return  # the flush removing us will trigger a re-request
        # Log-assisted sends cut *now*: the WAL advances synchronously
        # with engine dispatch, so at view install it sits exactly on
        # the V/V+1 boundary (note_view runs right after us, and no
        # post-view delivery has dispatched yet).
        pending: List[Address] = []
        suffix_sizes: List[int] = []
        for joiner in joiners:
            self.sim.trace.bump("state_transfer.sent")
            sent = self._send_log_suffix(engine, joiner)
            if sent is None:
                pending.append(joiner)
            else:
                suffix_sizes.append(sent)
        if not pending and not suffix_sizes:
            return
        # The application applies a dispatched delivery only after the
        # intra-site hand-off, so a snapshot encoded synchronously here
        # would miss deliveries the flush cut already counted as
        # pre-view.  Route the encode through the same cpu-submit +
        # intra-delay path as the deliveries themselves: everything
        # dispatched before this install is ahead of us in the queue
        # (lands in the snapshot), everything after is behind (reaches
        # the joiner directly in the new view).
        self.after_local_hop(self._encode_and_send_snapshot, engine, process,
                             pending, suffix_sizes)

    def _encode_and_send_snapshot(self, engine: GroupEngine,
                                  process: IsisProcess,
                                  joiners: List[Address],
                                  suffix_sizes: List[int]) -> None:
        if not self.alive or not process.alive:
            return  # the flush removing us will trigger a re-request
        if self.engines.get(engine.gid.process()) is not engine:
            return
        segments = {}
        for name, (encoder, _decoder) in getattr(
                process, "xfer_segments", {}).items():
            segments[name] = list(encoder())
        payload = Message(_proto="st.data", gid=engine.gid, segments=segments)
        if self.wal is not None:
            # Byte-saving stats for the suffix-served joiners, now that
            # the snapshot they avoided has a size.
            for suffix_bytes in suffix_sizes:
                saved = max(0, payload.size_bytes - suffix_bytes)
                self.counters.bump(
                    "transfer.log_assisted_bytes_saved", saved)
                self.sim.trace.bump(
                    "transfer.snapshot_bytes", payload.size_bytes)
        for joiner in joiners:
            self._ship_state(joiner, payload)

    def _send_log_suffix(self, engine: GroupEngine,
                         joiner: Address) -> Optional[int]:
        """Log-assisted transfer: ship only the records the rejoining
        site is missing, when its piggybacked position is still covered
        by our own log.  Returns the suffix payload size, or ``None``
        to fall back to the snapshot (durability off, no hint, or our
        checkpoint already truncated past the joiner's position)."""
        if self.wal is None:
            return None
        hint = self._join_hints.pop(
            (engine.gid.process(), joiner.process()), None)
        if hint is None:
            return None
        suffix = self.wal.build_suffix(engine.gid, hint[0], hint[1])
        if suffix is None:
            return None
        payload = Message(_proto="st.data", gid=engine.gid,
                          wal_suffix=[bytes(r) for r in suffix])
        self.sim.trace.bump("transfer.log_assisted")
        self.sim.trace.bump("transfer.suffix_bytes", payload.size_bytes)
        self._ship_state(joiner, payload)
        return payload.size_bytes

    def _ship_state(self, joiner: Address, payload: Message) -> None:
        """Send one ``st.data`` (snapshot or WAL suffix) to a joiner.

        Large state goes chunked over the bulk channel: the group
        committed the new view already, and neither the source CPU nor
        the wire is occupied by one state-sized block, so a concurrent
        flush never stalls behind the transfer.  Concurrent joiners
        share one encode (``Message.encode`` caches its bytes).
        """
        if payload.size_bytes > BULK_THRESHOLD:
            self._start_state_stream(payload["gid"], joiner, payload.encode())
        else:
            self.send_to_site(joiner.site, payload)

    def _start_state_stream(self, gid: Address, joiner: Address,
                            data: bytes) -> None:
        key = (gid.process(), joiner.process())
        previous = self._out_streams.get(key)
        if previous is not None:
            # A restarted stream abandons the old connection; its
            # in-flight chunks must not be delivered (connection reset).
            previous["conn"].close()
        conn = self.site.open_bulk_stream(joiner.site)
        if conn is None:
            return
        xid = self._next_xfer_id
        self._next_xfer_id += 1
        chunks = [data[i:i + TRANSFER_CHUNK_BYTES]
                  for i in range(0, len(data), TRANSFER_CHUNK_BYTES)]
        self._out_streams[key] = {
            "xid": xid, "chunks": chunks, "idx": 0, "site": joiner.site,
            "conn": conn,
        }
        self.sim.trace.bump("state_transfer.streams")
        self._send_next_chunk(key, xid)

    def _send_next_chunk(self, key: Tuple[Address, Address],
                         xid: int) -> None:
        stream = self._out_streams.get(key)
        if stream is None or stream["xid"] != xid or not self.alive:
            return
        idx = stream["idx"]
        chunks = stream["chunks"]
        note = Message(_proto="st.chunk", gid=key[0], xid=xid,
                       idx=idx, n=len(chunks), data=chunks[idx])
        self.counters.bump("state_transfer.chunks")
        self.counters.bump("state_transfer.stream_bytes", len(chunks[idx]))
        promise = stream["conn"].send(note.encode())

        def sent(p: Promise) -> None:
            stream_now = self._out_streams.get(key)
            if stream_now is None or stream_now["xid"] != xid:
                return  # aborted or restarted meanwhile
            if p.rejected:
                self._abort_state_stream(key[0], key[1])
                return
            stream_now["idx"] += 1
            if stream_now["idx"] >= len(stream_now["chunks"]):
                self._out_streams.pop(key, None)
            else:
                self._send_next_chunk(key, xid)

        promise.add_done_callback(sent)

    def _abort_state_stream(self, gid: Address, joiner: Address) -> None:
        """Joiner died or left mid-stream: stop shipping its snapshot."""
        stream = self._out_streams.pop((gid.process(), joiner.process()),
                                       None)
        if stream is not None:
            stream["conn"].close()
            self.counters.bump("state_transfer.streams_aborted")

    def _on_state_chunk(self, src_site: int, record: tuple) -> None:
        _, gid, xid, idx, n, data = record
        state = self._joins.get(gid.process())
        if state is None:
            return  # join finished or abandoned; drop the orphan chunk
        if state.stream_xid != xid:
            # A restarted stream (source death + re-request): reset.
            state.stream_xid = xid
            state.stream_buf = []
        if idx != len(state.stream_buf):
            # Bulk chunks are chained sequentially, so a gap means the
            # stream restarted out from under us: wait for the retry.
            state.stream_buf = []
            state.stream_xid = None
            return
        state.stream_buf.append(data)
        # Chunk progress counts as transfer progress: re-arm the
        # re-request timer so a slow large snapshot is not re-requested
        # (and re-sent in full) mid-stream.
        if state.transfer_timer is not None:
            state.transfer_timer.cancel()
            state.transfer_timer = self.sim.call_after(
                TRANSFER_RETRY, self._rerequest_state, state)
        if idx + 1 < n:
            return
        blob = b"".join(state.stream_buf)
        state.stream_buf = []
        state.stream_xid = None
        try:
            payload = Message.decode(blob)
        except CodecError:
            self.sim.trace.bump("state_transfer.bad_stream")
            return  # the re-request loop will restart the stream
        self._on_state_data(src_site, PROTOCOLS["st.data"].read(payload))

    def _on_state_data(self, src_site: int, record: tuple) -> None:
        _, gid, segments, records = record
        state = self._joins.get(gid.process())
        # A log suffix answers a join that offered a log position, which
        # only a kernel with a WAL does.
        if state is None or (records is not None and self.wal is None):
            return
        process = state.process
        if records is not None:
            # Log-assisted rejoin: rebuild the pre-crash state from our
            # own checkpoint + replayed log, then apply the records the
            # source says we missed.  Both replays run synchronously so
            # the arm-time checkpoint in _finish_join sees the result.
            self.wal.replay_to(gid, process)
            self.wal.absorb_suffix(gid, records, process)
            self.counters.bump("recovery.rejoins")
        else:
            decoders = getattr(process, "xfer_segments", {})
            for name, blocks in segments.items():
                entry = decoders.get(name)
                if entry is not None:
                    entry[1](blocks)
        engine = self.engines.get(gid.process())
        view = engine.view if engine is not None else None
        if view is not None:
            self._finish_join(state, view)

    def _rerequest_state(self, state: _JoinState) -> None:
        """The transfer source may have died: ask the coordinator again."""
        if state.promise.done or not self.alive:
            return
        contact = self.contact_cache.get(state.gid, state.gid.site)
        self.send_to_site(contact, Message(
            _proto="st.req", gid=state.gid,
            joiner=state.process.address.process(),
        ))
        state.transfer_timer = self.sim.call_after(
            TRANSFER_RETRY, self._rerequest_state, state)

    def _on_state_rerequest(self, src_site: int, record: tuple) -> None:
        msg, gid, joiner = record
        engine = self._coordinating_engine(gid, msg)
        if engine is None:
            return
        source = engine.view.coordinator()
        order = Message(_proto="st.send", gid=gid, joiner=joiner,
                        source=source)
        self.send_to_site(source.site, order)

    def _on_state_send_order(self, src_site: int, record: tuple) -> None:
        _, gid, joiner, source = record
        engine = self.engines.get(gid.process())
        if engine is not None:
            self._send_state(engine, source, [joiner])

    # -- total-failure recovery (paper §5) ----------------------------------
    def restore_from_wal(self, process: IsisProcess,
                         group_name: str) -> Optional[int]:
        """Rebuild ``process`` from this site's checkpoint + log for the
        named group, after a *total* failure (no live member anywhere to
        transfer state from).  Returns the number of replayed
        deliveries, or ``None`` when this site holds no log for the
        name.  The caller then re-creates the group under the same name;
        sites with staler logs rejoin it through the normal join path.
        """
        if self.wal is None:
            return None
        return self.wal.restore(process, group_name)

    def wal_position(self, group_name: str) -> Optional[Tuple[int, int]]:
        """This site's logged ``(view, deliveries)`` for a named group,
        or ``None`` when it never logged the group — the explicit
        no-log marker the recovery poll needs (a site that never hosted
        the group must not win the restart election with a zero)."""
        if self.wal is None:
            return None
        return self.wal.logged_position(group_name)

    # -- leave / kill ------------------------------------------------------------
    def leave_group(self, process: IsisProcess, gid: Address) -> Promise:
        self.sim.trace.bump("tool.pg_leave")
        key = gid.process()
        member = process.address.process()
        promise = Promise(label=f"pg_leave({gid})")
        engine = self.engines.get(key)
        if engine is None or engine.view is None or not engine.view.contains(member):
            promise.resolve(None)
            return promise
        self._leave_waiters[(key, member)] = promise
        if engine.is_coordinator_site():
            engine.enqueue_reason(FlushReason(kind="remove",
                                              removals=(member,)))
        else:
            self.send_to_site(engine.view.coordinator().site, Message(
                _proto="g.leave", gid=key, member=member))
        return promise

    def _on_leave_request(self, src_site: int, record: tuple) -> None:
        msg, gid, member = record
        engine = self._coordinating_engine(gid, msg)
        if engine is not None:
            engine.enqueue_reason(FlushReason(kind="remove",
                                              removals=(member,)))

    def _on_member_dead_notice(self, src_site: int, record: tuple) -> None:
        _, gid, member = record
        engine = self.engines.get(gid.process())
        if engine is not None and engine.is_coordinator_site():
            engine.enqueue_reason(FlushReason(kind="remove",
                                              removals=(member,)))

    # -- multicast -------------------------------------------------------------
    def group_mcast(self, process: IsisProcess, gid: Address, kind: str,
                    user: Message, entry: int, nwant: int) -> Promise:
        """CBCAST/ABCAST to a group, collecting ``nwant`` replies."""
        caller = process.address.process()
        session = self.sessions.create(caller, nwant)
        user["_sender"] = caller
        user["_session"] = session.id
        user["_reply_to"] = caller
        engine = self.engines.get(gid.process())
        if engine is not None and engine.installed:
            def dispatched(view: View) -> None:
                self.sessions.on_dispatched(session.id, list(view.members))
            engine.mcast(kind, self._disseminator(engine, process), user,
                         entry, on_dispatched=dispatched)
        else:
            self._forward_mcast(session.id, gid, kind, user, entry, nwant)
        return session.promise

    def _disseminator(self, engine: GroupEngine,
                      process: IsisProcess) -> Address:
        """The member identity under which we disseminate (VC dimension)."""
        addr = process.address.process()
        if engine.view is not None and engine.view.contains(addr):
            return addr
        local = engine.local_members()
        if local:
            return local[0]
        return addr

    def _forward_mcast(self, session_id: int, gid: Address, kind: str,
                       user: Message, entry: int, nwant: int) -> None:
        attempts = self._fwd_attempts.get(session_id, 0)
        if attempts >= FWD_RETRIES:
            self._fwd_attempts.pop(session_id, None)
            self.sessions.note_session_failed(
                session_id, NoSuchGroup(f"cannot reach group {gid}"))
            return
        self._fwd_attempts[session_id] = attempts + 1
        self._fwd_unacked.add(session_id)
        contact = self._pick_contact(
            self._fwd_tried.setdefault(session_id, set()), gid)
        self.send_to_site(contact, Message(
            _proto="g.fwd", gid=gid.process(), kind=kind, m=user,
            entry=entry, session=session_id, caller_site=self.site_id,
            nwant=nwant,
        ))
        if nwant == 0:
            # Fire-and-forget for the *caller* — but the message must
            # still reach a live dispatcher, so the retry loop runs on.
            self.sessions.on_dispatched(session_id, [])
        # The contact may be down or stale: re-forward until the dispatch
        # notice arrives (the attempt counter bounds this, after which
        # a waiting caller gets its error code).
        self.sim.call_after(
            FWD_TIMEOUT,
            self._refwd_if_undispatched, session_id, gid, kind, user,
            entry, nwant)

    def _pick_contact(self, tried: Set[int], gid: Address) -> int:
        """Best site to reach ``gid`` through: the cache, then alive
        sites not in ``tried`` (this attempt is added to it).

        A dead or stale contact is marked tried and the next attempt
        rotates to another operational site — any member site dispatches
        or forwards, non-members nak with a hint.
        """
        cached = self.contact_cache.get(gid.process(), gid.site)
        candidates = [cached] + sorted(self.alive_sites())
        for site in candidates:
            if site not in tried:
                tried.add(site)
                return site
        tried.clear()  # second sweep
        tried.add(cached)
        return cached

    def _refwd_if_undispatched(self, session_id: int, gid: Address,
                               kind: str, user: Message, entry: int,
                               nwant: int) -> None:
        if not self.alive:
            return
        session = self.sessions.get(session_id)
        if session is not None:
            acked = session.dispatched and nwant != 0
        else:
            acked = session_id not in self._fwd_unacked
        if acked or session_id not in self._fwd_unacked:
            self._fwd_attempts.pop(session_id, None)
            self._fwd_tried.pop(session_id, None)
            self._fwd_unacked.discard(session_id)
            return
        self._forward_mcast(session_id, gid, kind, user, entry, nwant)

    def _on_forwarded_mcast(self, src_site: int, record: tuple) -> None:
        _, gid, kind, user, entry, session_id, caller_site, _nwant = record
        engine = self.engines.get(gid.process())
        if engine is None or not engine.installed or engine.view is None:
            self.send_to_site(src_site, Message(
                _proto="g.fwd.nak", gid=gid, session=session_id,
                hint=self.contact_cache.get(gid.process()),
            ))
            return
        local = engine.local_members()
        disseminator = local[0] if local else engine.view.coordinator()

        def dispatched(view: View) -> None:
            engine.watcher_sites.add(caller_site)
            if caller_site == self.site_id:
                self.sessions.on_dispatched(session_id, list(view.members),
                                            via_site=self.site_id)
            else:
                self.send_to_site(caller_site, Message(
                    _proto="rpc.dispatched", session=session_id,
                    members=list(view.members), via=self.site_id,
                ))

        engine.mcast(kind, disseminator, user, entry,
                     on_dispatched=dispatched)

    def _on_forward_nak(self, src_site: int, record: tuple) -> None:
        _, gid, session_id, hint = record
        if session_id < 0:
            return  # join-request nak: the join retry loop handles it
        if hint is not None:
            self.contact_cache[gid.process()] = hint
            self._fwd_tried.get(session_id, set()).discard(hint)
        self.sim.trace.bump("fwd.naks")
        # The timeout-driven retry loop will re-forward (to the hint or
        # to the next untried site); naks alone never fail the session.

    # -- gbcast ------------------------------------------------------------------
    def group_gbcast(self, process: IsisProcess, gid: Address, user: Message,
                     entry: int, nwant: int) -> Promise:
        """GBCAST: delivered at a flush, ordered relative to everything.

        The flush itself is the multicast (counted as ``flush.runs``), so
        no separate ``mcast.gbcast`` counter is bumped here.
        """
        caller = process.address.process()
        session = self.sessions.create(caller, nwant)
        user["_sender"] = caller
        user["_session"] = session.id
        user["_reply_to"] = caller
        engine = self.engines.get(gid.process())
        reason = FlushReason(kind="gbcast", payload=user.encode(),
                             user_entry=entry)
        if engine is not None and engine.installed and engine.is_coordinator_site():
            engine.enqueue_reason(reason)
        else:
            contact = self.contact_cache.get(gid.process(), gid.site)
            self.send_to_site(contact, Message(
                _proto="g.gb", gid=gid.process(), m=user, entry=entry))
        if nwant == 0:
            self.sessions.on_dispatched(session.id, [])
        return session.promise

    def _on_gbcast_request(self, src_site: int, record: tuple) -> None:
        msg, gid, user, entry = record
        engine = self._coordinating_engine(gid, msg)
        if engine is not None:
            engine.enqueue_reason(FlushReason(
                kind="gbcast", payload=user.encode(), user_entry=entry))

    # -- replies -----------------------------------------------------------------
    def send_reply(self, process: IsisProcess, request: Message,
                   reply: Message, null: bool = False,
                   cc_gid: Optional[Address] = None) -> None:
        """Answer a group RPC (Table I: 1 async CBCAST)."""
        session = request.get("_session")
        reply_to: Optional[Address] = request.get("_reply_to")
        if session is None or reply_to is None:
            return
        # Null replies are control traffic, not logical multicasts.
        self.sim.trace.bump("mcast.null_reply" if null else "mcast.reply")
        reply = reply.copy()
        reply["_sender"] = process.address.process()
        note = Message(
            _proto="rpc.reply", session=session,
            responder=process.address.process(), null=null, m=reply,
        )
        if reply_to.site == self.site_id:
            self.sessions.on_reply(session, note["responder"], reply, null)
        else:
            self.send_to_site(reply_to.site, note)
        if cc_gid is not None and not null:
            engine = self.engines.get(cc_gid.process())
            if engine is not None and engine.installed:
                copy = reply.copy()
                copy["cc_session"] = session
                # Table I costs reply_cc as ONE async CBCAST whose
                # destination list includes the cohorts: not re-counted.
                engine.mcast(CBCAST, process.address.process(), copy,
                             CC_REPLY_ENTRY, audited=False)

    def _on_reply(self, src_site: int, record: tuple) -> None:
        _, session, responder, reply, null = record
        self.sessions.on_reply(session, responder, reply, null)

    def _on_dispatched(self, src_site: int, record: tuple) -> None:
        _, session, members, via = record
        self._fwd_unacked.discard(session)
        self.sessions.on_dispatched(session, members, via_site=via)

    # -- monitors / watchers --------------------------------------------------------
    def current_view(self, gid: Address) -> Optional[View]:
        """The local replica's view of a group (None if not a member here)."""
        engine = self.engines.get(gid.process())
        if engine is not None and engine.installed:
            return engine.view
        return None

    def monitor_group(self, process: IsisProcess, gid: Address,
                      callback: Callable[[View], None]) -> Promise:
        """pg_monitor: invoke ``callback(view)`` on membership changes."""
        self.sim.trace.bump("tool.pg_monitor")
        promise = Promise(label=f"pg_monitor({gid})")
        engine = self.engines.get(gid.process())
        if engine is not None and engine.installed:
            engine.monitors.append(callback)
            promise.resolve(engine.view)
            return promise
        self._client_monitors.setdefault(gid.process(), []).append(callback)
        contact = self.contact_cache.get(gid.process(), gid.site)
        self.send_to_site(contact, Message(_proto="g.watch", gid=gid.process()))
        promise.resolve(None)
        return promise

    def _on_watch_request(self, src_site: int, record: tuple) -> None:
        msg, gid = record
        engine = self._coordinating_engine(gid, msg)
        if engine is None:
            return
        engine.watcher_sites.add(src_site)
        self.send_to_site(src_site, Message(
            _proto="g.view_update", gid=engine.gid,
            view=engine.view.to_value(),
        ))

    def _on_view_update(self, src_site: int, record: tuple) -> None:
        _, gid, view = record
        key = gid.process()
        if view.members:
            self.contact_cache[key] = view.coordinator().site
        previous = self._watched_views.get(key, set())
        current = {m.process() for m in view.members}
        removed = previous - current
        if removed:
            self.sessions.note_members_failed(sorted(removed))
        self._watched_views[key] = current
        for callback in self._client_monitors.get(key, []):
            callback(view)

    # -- misc tools ---------------------------------------------------------------
    def register_join_validator(self, gid: Address,
                                validator: Callable) -> None:
        """pg_join_verify: user routine validating join requests (§3.10)."""
        self._join_validators.setdefault(gid.process(), []).append(validator)

    def flush_sends(self, process: IsisProcess) -> Promise:
        """The `flush` primitive: block until our async sends are stable.

        §3.2 footnote: *"flush blocks until all asynchronous broadcasts
        have been delivered"* — we wait for transport-level acks from
        every destination site of every message this kernel fanned out.
        """
        pending = [
            p for p in self._outstanding_sends.get(
                process.address.process(), []) if not p.done
        ]
        return all_of(pending, label="flush")

    def note_outstanding(self, sender: Address, promise: Promise) -> None:
        bucket = self._outstanding_sends.setdefault(sender.process(), [])
        bucket.append(promise)
        if len(bucket) > 64:
            self._outstanding_sends[sender.process()] = [
                p for p in bucket if not p.done
            ]

    # -- kernel statistics -------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """What this kernel has done and what it holds, by stable key.

        *Events* are the :data:`KERNEL_COUNTERS` keys, read from
        ``self.counters``: counted since boot, kept when a group retires
        or the kernel dies, summing over kernels to ``sim.trace.value``
        of the same counter.  The rest are *gauges*, computed here from
        live state: buffer occupancy (so tests can assert that stability
        reclaims memory), pending depths, the failure detector's and the
        transport's own ``stats()``.
        """
        out = {key: self.counters.value(name)
               for key, name in KERNEL_COUNTERS.items()}
        engines = list(self.engines.values())
        # Completed wedges are counted; these are the ones in progress.
        out["flush.wedged_seconds"] += sum(
            self.sim.now - e._wedged_at for e in engines
            if e.wedged and e._wedged_at is not None)
        out.update({
            "groups": len(engines),
            "buffered_messages": sum(e.store.buffered_count for e in engines),
            "buffered_bytes": sum(e.store.buffered_bytes for e in engines),
            "batch_pending": sum(
                e.pipeline.dissemination.pending_batched for e in engines),
            "causal.pending": sum(e.causal.pending_count for e in engines),
            "causal.peak_pending": max(
                [self._retired_peak_pending]
                + [e.causal.peak_pending for e in engines]),
            "causal.ctx_cache": sum(
                sum(e.causal.cache_sizes()) for e in engines),
            "wait_index.size": len(self.wait_index),
            "wait_index.peak": self.wait_index.peak_size,
            "state_transfer.streams_active": len(self._out_streams),
            "kernel.peak_groups_per_shard": self._peak_groups,
            "tree.fanout": self.config.tree_fanout
            if self.config.dissemination == "tree" else 0,
            "tree.depth": max(
                [e.pipeline.dissemination.tree_depth() for e in engines],
                default=0),
        })
        out.update(self.heartbeat.stats())
        if self.wal is not None:
            out["wal.groups"] = len(self.wal.groups)
        if self.site.transport is not None:
            for key, value in self.site.transport.stats().items():
                out[f"transport.{key}"] = value
        return out

    # -- periodic stability rounds -------------------------------------------------
    def _schedule_stability(self) -> None:
        if not self.alive:
            return
        self._stability_timer = self.sim.call_after(
            STABILITY_INTERVAL, self._stability_tick)

    def _stability_tick(self) -> None:
        if not self.alive:
            return
        # Walk only the dirty groups, in the order they were created
        # here (as recheck passes do): a group is marked dirty when it
        # buffers a message, advances its delivery floor, or receives
        # aggregation traffic, and re-marks itself below for as long as
        # it still holds unstable state.  Idle groups cost nothing per
        # tick, whatever their number.
        visited = 0
        dirty, self._stab_dirty = self._stab_dirty, set()
        for key in sorted(dirty,
                          key=lambda gid: self._engine_order.get(gid, -1)):
            engine = self.engines.get(key)
            if engine is None:
                continue
            visited += 1
            if engine.pipeline.stability.tick():
                self._stab_dirty.add(key)
        skipped = len(self.engines) - visited
        if skipped > 0:
            self.counters.bump("stab.idle_skipped", skipped)
        self._schedule_stability()


# ----------------------------------------------------------------------
# The routing table
# ----------------------------------------------------------------------
#: Every protocol ``_dispatch`` routes, declared (``msg/wire.py``) with
#: this package's codecs.
PROTOCOLS = protocols(context=parse_context_delta, view=View.from_wire)


#: proto -> its handler, ``handler(src_site, record)``: the kernel's
#: own, a part's (``agent.``, ``namespace.``), the group's engine's
#: (``engine.``; the engine is made here on first word of its group) or
#: the group's pipeline's one entry (``pipeline``, which takes the proto).
_HANDLERS = {
    **dict.fromkeys(("sv.join", "sv.suspect", "sv.propose", "sv.ack",
                     "sv.commit", "sv.probe"), "agent.handle"),
    "ns.reg": "namespace._on_reg", "ns.unreg": "namespace._on_unreg",
    "ns.upd": "namespace._on_update", "ns.snap": "namespace._on_snapshot",
    "ns.q": "namespace._on_query", "ns.qr": "namespace._on_answer",
    "rpc.reply": "_on_reply", "rpc.dispatched": "_on_dispatched",
    "g.join": "_on_join_request", "g.join.refused": "_on_join_refused",
    "g.welcome": "_on_welcome", "g.dead": "_on_member_dead_notice",
    "g.leave": "_on_leave_request", "g.gb": "_on_gbcast_request",
    "g.fwd": "_on_forwarded_mcast", "g.fwd.nak": "_on_forward_nak",
    "g.watch": "_on_watch_request", "g.view_update": "_on_view_update",
    "st.req": "_on_state_rerequest", "st.send": "_on_state_send_order",
    "st.data": "_on_state_data", "st.chunk": "_on_state_chunk",
    **{proto: "engine._on_flush_" + proto[5:] for proto in (
        "g.fl.begin", "g.fl.ok", "g.fl.expect", "g.fl.pull", "g.fl.data",
        "g.fl.filled", "g.fl.commit", "g.fl.okb")},
    **dict.fromkeys(PIPELINE, "pipeline"),
}


def _deliver(path: str):
    """``deliver(kernel, src_site, proto, record)`` for a handler path."""
    if path == "pipeline":
        return lambda kernel, src_site, proto, record: kernel._engine_for(
            record[1], create=True).pipeline.receive(src_site, proto, record)
    if path.startswith("engine."):
        method = getattr(GroupEngine, path[len("engine."):])
        return lambda kernel, src_site, proto, record: method(
            kernel._engine_for(record[1], create=True), src_site, record)
    handler = attrgetter(path)
    return lambda kernel, src_site, proto, record: handler(kernel)(
        src_site, record)


#: proto -> (reader, ``deliver``): the one table ``_dispatch`` routes by.
_ROUTES = {proto: (PROTOCOLS[proto].read, _deliver(path))
           for proto, path in _HANDLERS.items()}
