"""The per-site *protocols process* (Figure 1 of the paper).

One :class:`ProtocolsProcess` runs at every operational site.  It

* implements the multicast primitives and handles all inter-site
  communication (every other process talks to it over the intra-site
  hop);
* maintains process-group views, *"using a cache for groups not resident
  at the site"* (``contact_cache`` + watcher subscriptions);
* runs the failure detector (heartbeats) and participates in the
  site-view membership protocol;
* hosts the replicated namespace, group RPC (:mod:`.rpc`), joins and
  state transfer (:mod:`.join`) and the cross-group causal check
  (:mod:`.cbcast`), each a part that owns its handlers, state and timers.

Client processes never touch the network directly: the toolkit stubs in
:mod:`repro.core.groups` cross the 10 ms intra-site hop into this kernel,
exactly as ISIS clients called into their local protocols process.

Every message is routed by one table: each declared protocol
(``msg/wire.py``) to its handler, parsed first.  A toolkit service
(``tools/``) takes its declared protocols with :meth:`ProtocolsProcess.attach`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Set

from ..errors import CodecError, NoSuchGroup, SiteDown
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
from . import stability
from .cbcast import CausalCheck
from .engine import GroupEngine
from .join import Joins
from .namespace import Namespace
from .rpc import GroupRpc
from .vectorclock import parse_context_delta
from .view import View
from .wal import WalManager

#: Entry number reserved for pg_kill (the "send UNIX signal" of Table I).
KILL_ENTRY = 255

_HEARTBEAT_PAYLOAD = b"hb"

#: CPU charged per hand-off to a local process: a delivery, or a state
#: capture queued behind them (:meth:`ProtocolsProcess.after_local_hop`).
LOCAL_DELIVERY_CPU = 0.0005

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
        "request.duplicates",   # a retry answered, or a copy dropped
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
    #: Envelope batching: a group's data envelopes coalesce into one
    #: ``g.batch`` wire message, flushed after this window (seconds) or
    #: at ``pipeline.BATCH_MAX_BYTES``.  ``0`` disables batching: every
    #: envelope is its own wire message.
    batch_window: float = 0.0
    #: Piggyback the ``stab`` blob (have-vector, delivery floor) on
    #: outgoing data envelopes and batches so buffer GC advances
    #: continuously; the collection wave then only runs for idle
    #: groups.  Off, the wave is the only collector.
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
    #: still drive checkpoints, see ``wal.WAL_TRIM_MIN``).
    wal_checkpoint_every: int = 200


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
        self.namespace = Namespace(self.sim, self.site_id, self.send_to_site)
        # Groups.
        self.engines: Dict[Address, GroupEngine] = {}
        #: Groups needing attention at the next stability tick, so the
        #: tick touches only those.
        self._stab_dirty: Set[Address] = set()
        #: Most groups hosted at once (``kernel.peak_groups_per_shard``).
        self._peak_groups = 0
        #: gid -> creation rank; the causal drain and stability ticks
        #: visit groups in this order (the ``engines`` dict's).
        self.engine_order: Dict[Address, int] = {}
        self._next_engine_rank = 0
        #: Pending-depth high-water mark of engines retired since boot
        #: (a peak is not an event, so ``counters`` cannot hold it).
        self._retired_peak_pending = 0
        self.contact_cache: Dict[Address, int] = {}
        self._next_group_no = 1
        self._watched_procs: Set[int] = set()
        self._outstanding_sends: Dict[Address, List[Promise]] = {}
        # The parts: each owns its protocols' handlers, state and timers.
        self.causal_check = CausalCheck(self)
        self.rpc = GroupRpc(self)
        self.joins = Joins(self, PROTOCOLS["st.data"].read)
        #: proto -> (reader, deliver): the one table ``_dispatch`` routes
        #: by — every kernel route, and what a tool attached.
        self._routes = dict(_ROUTES)
        # Extension hook for the tools layer.
        self.site_view_hooks: List[Callable] = []
        #: Write-ahead delivery log; ``None`` keeps every hot-path hook
        #: a no-op so default trajectories match the crash-stop system.
        self.wal: Optional[WalManager] = (
            WalManager(self) if self.config.durability else None)
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
        self.joins.shutdown()
        self.rpc.shutdown()

    def _self_destruct(self) -> None:
        """We were excluded from the site view while alive (§3.7)."""
        self.sim.trace.log("kernel.self_destruct", self.site_id)
        self.site.crash()

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
        self.rpc.note_sites_failed({site_id})

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
        proto = msg.get("_proto")
        route = self._routes.get(proto) if proto.__class__ is str else None
        if route is None:
            self.sim.trace.bump("kernel.unknown_proto")
            return
        read, deliver = route
        try:
            deliver(self, src_site, proto, read(msg))
        except CodecError:
            self.sim.trace.bump("kernel.bad_message")

    def attach(self, proto: str,
               handler: Callable[[int, tuple], None]) -> None:
        """A toolkit service takes the declared protocol ``proto``:
        ``handler(src_site, record)`` gets each message of it, parsed
        against its row as every kernel handler's is."""
        self._routes[proto] = (PROTOCOLS[proto].read,
                               lambda _kernel, src_site, _proto, record:
                               handler(src_site, record))

    def engine_for(self, gid: Optional[Address],
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

    def coordinating_engine(self, gid: Address, msg: Message,
                            src_site: int) -> Optional[GroupEngine]:
        """The engine of group ``gid`` a coordinator-bound request is
        for, if we are to act on it: not when the group is not installed
        here (``src_site`` is told, ``g.fwd.nak``) or its coordinator is
        at another site (``msg`` relayed there)."""
        engine = self.engines.get(gid.process())
        if engine is None or not engine.installed or engine.view is None:
            self.send_to_site(src_site, Message(
                _proto="g.fwd.nak", gid=gid.process(),
                hint=self.contact_cache.get(gid.process())))
            return None
        if not engine.is_coordinator_site():
            self.send_to_site(engine.view.coordinator().site, msg)
            return None
        return engine

    def _note_engine(self, key: Address) -> None:
        """Record a group's creation rank (the causal drain's order)."""
        if key not in self.engine_order:
            self.engine_order[key] = self._next_engine_rank
            self._next_engine_rank += 1
        self._peak_groups = max(self._peak_groups, len(self.engines))
        self.causal_check.engines_changed()

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
        gated = self.joins.gated
        for member in engine.local_members():
            copy = user.copy()
            if member.process() in gated:
                gated[member.process()].append(copy)
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
            self.rpc.sessions.note_members_failed(removed)
        self.joins.release_leavers(gid, removed)
        # Watch local member processes for death (local failure detection).
        for member in new_view.members_at(self.site_id):
            self.watch_member(engine, member)
        self.joins.on_view_installed(engine, removed, joiners, transfer,
                                     source)
        self.rpc.on_view_installed(engine, payloads, new_view)
        # The WAL's view record goes in *after* the joins shipped any
        # log suffix: the suffix cut then ends exactly at the V/V+1
        # boundary the joiner resumes from.
        if self.wal is not None:
            self.wal.note_view(engine, new_view)

    def retire_engine(self, engine: GroupEngine) -> None:
        """No local members remain in the group's current view."""
        key = engine.gid.process()
        self.engines.pop(key, None)
        self.engine_order.pop(key, None)
        self._stab_dirty.discard(key)
        self._retired_peak_pending = max(self._retired_peak_pending,
                                         engine.causal.peak_pending)
        self.causal_check.retire(key)

    def watch_member(self, engine: GroupEngine, member: Address) -> None:
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
            self.joins.member_died(proc)
            for eng in list(self.engines.values()):
                if eng.view is not None and eng.view.contains(proc.address):
                    self.joins.request_removal(eng.gid,
                                               proc.address.process())

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
            self.joins.on_sites_departed(departed)
            self.rpc.note_sites_failed(departed)
            for engine in list(self.engines.values()):
                engine.on_sites_died(departed)
            self.rpc.resend(lambda req: req.site in departed)
        if self.config.membership != "primary":
            # Quorum mode: a view install clears suspicions, which may
            # restore commit rights a gated flush was waiting on.
            for engine in list(self.engines.values()):
                engine.maybe_start_flush()
        for hook in self.site_view_hooks:
            hook(view, departed, joined)

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
        view = engine.create(process.address)
        self.causal_check.note_install()
        if self.wal is not None:
            self.wal.arm_create(engine, process, name)
        self.contact_cache[gid] = self.site_id
        self.watch_member(engine, process.address)
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

    def current_view(self, gid: Address) -> Optional[View]:
        """The local replica's view of a group (None if not a member here)."""
        engine = self.engines.get(gid.process())
        if engine is not None and engine.installed:
            return engine.view
        return None

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
            "wait_index.size": len(self.causal_check.wait_index),
            "wait_index.peak": self.causal_check.wait_index.peak_size,
            "state_transfer.streams_active": len(self.joins.streams),
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

    # -- periodic stability ticks --------------------------------------------------
    def _schedule_stability(self) -> None:
        if not self.alive:
            return
        self._stability_timer = self.sim.call_after(
            stability.STABILITY_INTERVAL, self._stability_tick)

    def _stability_tick(self) -> None:
        if not self.alive:
            return
        # Walk only the dirty groups, in the order they were created
        # here (as the causal drain does): a group is marked dirty when it
        # buffers a message, advances its delivery floor, or receives
        # aggregation traffic, and re-marks itself below for as long as
        # it still holds unstable state.  Idle groups cost nothing per
        # tick, whatever their number.
        visited = 0
        dirty, self._stab_dirty = self._stab_dirty, set()
        for key in sorted(dirty,
                          key=lambda gid: self.engine_order.get(gid, -1)):
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
#: Every protocol ``_dispatch`` routes, the kernel's and the toolkit's,
#: declared (``msg/wire.py``) with this package's codecs.
PROTOCOLS = protocols(context=parse_context_delta, view=View.from_wire)


#: proto -> its handler, ``handler(src_site, record)``: a part's
#: (``agent.``, ``namespace.``, ``rpc.``, ``joins.``), the group's flush's
#: (``engine.flush.``, a path on the engine, which is made here on first
#: word of its group) or the group's pipeline's one entry (``pipeline``,
#: which takes the proto).  The toolkit's protocols (``wire.TOOLS``) are
#: routed to the handler a tool attaches (:meth:`ProtocolsProcess.attach`).
_HANDLERS = {
    **dict.fromkeys(("sv.join", "sv.suspect", "sv.propose", "sv.ack",
                     "sv.commit", "sv.probe"), "agent.handle"),
    "ns.reg": "namespace._on_reg", "ns.unreg": "namespace._on_unreg",
    "ns.upd": "namespace._on_update", "ns.snap": "namespace._on_snapshot",
    "ns.q": "namespace._on_query", "ns.qr": "namespace._on_answer",
    "rpc.reply": "rpc._on_reply", "rpc.dispatched": "rpc._on_dispatched",
    "g.fwd": "rpc._on_request",
    "g.fwd.nak": "rpc._on_forward_nak", "g.watch": "rpc._on_watch_request",
    "g.view_update": "rpc._on_view_update",
    "g.join": "joins._on_join_request",
    "g.join.refused": "joins._on_join_refused",
    "g.welcome": "joins._on_welcome",
    "g.leave": "joins._on_leave_request",
    "st.data": "joins._on_state_data", "st.chunk": "joins._on_state_chunk",
    **{proto: "engine.flush._on_" + proto[5:] for proto in (
        "g.fl.begin", "g.fl.ok", "g.fl.expect", "g.fl.pull", "g.fl.data",
        "g.fl.filled", "g.fl.commit", "g.fl.okb")},
    **dict.fromkeys(PIPELINE, "pipeline"),
}


def _deliver(path: str):
    """``deliver(kernel, src_site, proto, record)`` for a handler path."""
    if path == "pipeline":
        return lambda kernel, src_site, proto, record: kernel.engine_for(
            record[1], create=True).pipeline.receive(src_site, proto, record)
    if path.startswith("engine."):
        handler = attrgetter(path[len("engine."):])
        return lambda kernel, src_site, proto, record: handler(
            kernel.engine_for(record[1], create=True))(src_site, record)
    handler = attrgetter(path)
    return lambda kernel, src_site, proto, record: handler(kernel)(
        src_site, record)


#: proto -> (reader, ``deliver``): the one table ``_dispatch`` routes by.
_ROUTES = {proto: (PROTOCOLS[proto].read, _deliver(path))
           for proto, path in _HANDLERS.items()}
