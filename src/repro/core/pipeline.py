"""The layered delivery pipeline: dissemination → ordering → stability.

The multicast data path of a group at one member site is a composable
stack of three stages, driven by :class:`~repro.core.engine.GroupEngine`
through the narrow :class:`DeliveryPipeline` interface:

* :class:`DisseminationStage` — fans data envelopes out to every member
  site.  With ``IsisConfig.batch_window > 0`` it coalesces envelopes
  bound for the same site into one wire message (``g.batch``), flushed
  when the window expires or ``BATCH_MAX_BYTES`` accumulate; with a zero
  window every envelope is its own wire message, byte-for-byte what the
  unbatched system sent.
* **Ordering** — :class:`CausalOrdering` (CBCAST: vector clocks,
  per-sender FIFO) and a pluggable total-order engine decide *when* a
  buffered envelope may be handed to the engine's delivery sink.  The
  total-order engines live behind the explicit
  :class:`~repro.core.ordering.OrderingEngine` seam in
  ``core/ordering.py`` — ``abcast_mode`` selects ``two_phase`` (the
  paper's two-phase priorities) or ``sequencer`` (token-site batched
  ``g.abs`` stamps).
* :class:`StabilityStage` — tracks which messages are known received
  everywhere.  A have-vector travels one way, the ``stab`` blob of
  ``msg/fields.py`` (view id, ABCAST delivery floor, vector): on
  outgoing data envelopes and batches — never on the ordering notes an
  ABCAST waits for — so :meth:`MessageStore.trim_stable` advances
  continuously under traffic; on the ``g.stab.a`` a receive-only site
  announces every ``STAB_ANNOUNCE_EVERY`` receptions; and on the notes
  of the one collector for idle groups, the ``g.stab.up`` wave up a
  collection tree (the dissemination tree, or flat a one-level tree)
  that ends in the root's cut, ``g.stab.dn``.

The engine keeps what is *not* the data path: the flush protocol, view
installation, and local delivery.  New protocol variants (sharded
dissemination, alternative orderings) plug in behind the same stage
interfaces without touching the engine.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import GroupError, SiteDown
from ..msg.address import Address
from ..msg.fields import Stab, encode_stab
from ..msg.message import BATCH_PROTO, Message, pack_batch
from ..sim.core import Timer
from ..sim.tasks import Promise
from .cbcast import CausalFields, CausalReceiver
from .ordering import make_ordering
from .tree import SpanningTree, min_merge_have_vectors
from .vectorclock import ContextEncoder, parse_context_delta

if TYPE_CHECKING:  # pragma: no cover
    from .engine import GroupEngine
    from .view import View


#: Early-flush cap of a batch buffer (a full batch fits one 4 KB MTU frame).
BATCH_MAX_BYTES = 3072
#: A receive-only site pushes its have-vector every this many messages.
STAB_ANNOUNCE_EVERY = 32
#: Cadence of the kernel's stability tick (buffer GC); flat, a site whose
#: piggybacks trimmed within one interval skips its collection push.
STABILITY_INTERVAL = 2.0


# ----------------------------------------------------------------------
# Dissemination
# ----------------------------------------------------------------------
class _BatchBuffer:
    """Envelopes coalescing for one (group, destination site)."""

    __slots__ = ("entries", "bytes", "timer")

    def __init__(self) -> None:
        self.entries: List[Tuple[Message, Promise]] = []
        self.bytes = 0
        self.timer: Optional[Timer] = None


class DisseminationStage:
    """Fan-out of data envelopes, with optional wire-level batching.

    One batch buffer per destination key serves both topologies: a
    stage supplies only :meth:`_send_batch`, "put this batch on the wire
    for that key".  What it sends it counts on ``kernel.counters``
    (``batch.*``; the tree stage also ``tree.*``).
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        self.engine = engine
        self.pipeline = pipeline
        self.kernel = engine.kernel
        self._send_seq = 0
        #: destination site -> coalescing buffer.
        self._buffers: Dict[int, _BatchBuffer] = {}

    def next_gseq(self) -> int:
        self._send_seq += 1
        return self._send_seq

    def shutdown(self) -> None:
        """Disarm batch timers; reject envelopes still waiting in them."""
        for buf in self._buffers.values():
            if buf.timer is not None:
                buf.timer.cancel()
                buf.timer = None
            for _, promise in buf.entries:
                if not promise.done:
                    promise.reject(
                        SiteDown(f"site {self.engine.site_id} is down"))
        self._buffers.clear()

    def fan_out(self, env: Message, sender_key: Optional[Address]) -> None:
        """Send ``env`` to every remote member site of the current view."""
        view = self.engine.view
        assert view is not None
        window = self.kernel.config.batch_window
        for site in view.member_sites():
            if site == self.engine.site_id:
                continue
            if window > 0:
                promise = self._enqueue(site, env)
            else:
                promise = self.kernel.send_to_site(site, env)
            if sender_key is not None:
                self.kernel.note_outstanding(sender_key, promise)

    # -- coalescing --------------------------------------------------------
    def _enqueue(self, dst_site: int, env: Message) -> Promise:
        buf = self._buffers.get(dst_site)
        if buf is None:
            buf = _BatchBuffer()
            self._buffers[dst_site] = buf
        promise = Promise(label=f"batched:{self.engine.gid}->{dst_site}")
        buf.entries.append((env, promise))
        buf.bytes += env.size_bytes
        if buf.bytes >= BATCH_MAX_BYTES:
            self._flush(dst_site)
        elif buf.timer is None:
            buf.timer = self.engine.sim.call_after(
                self.kernel.config.batch_window, self._flush, dst_site)
        return promise

    def _flush(self, dst_site: int) -> None:
        buf = self._buffers.pop(dst_site, None)
        if buf is None or not buf.entries:
            return
        if buf.timer is not None:
            buf.timer.cancel()
        if not self.kernel.alive:
            for _, entry_promise in buf.entries:
                entry_promise.reject(
                    SiteDown(f"site {self.engine.site_id} is down"))
            return
        envelopes = [env for env, _ in buf.entries]
        self.kernel.counters.bump("batch.sent")
        self.kernel.counters.bump("batch.envelopes", len(envelopes))
        sends = self._send_batch(dst_site, envelopes)
        if not sends:
            for _, entry_promise in buf.entries:
                entry_promise.resolve(None)
            return
        state = {"left": len(sends), "failed": None}

        def settle(p: Promise) -> None:
            if p.rejected and state["failed"] is None:
                state["failed"] = p.exception
            state["left"] -= 1
            if state["left"] == 0:
                for _, entry_promise in buf.entries:
                    if state["failed"] is not None:
                        entry_promise.reject(state["failed"])
                    else:
                        entry_promise.resolve(None)

        for send in sends:
            send.add_done_callback(settle)

    def _send_batch(self, dst_site: int,
                    envelopes: List[Message]) -> List[Promise]:
        """Put one batch for ``dst_site`` on the wire: the send promises."""
        batch = pack_batch(self.engine.gid, envelopes,
                           self.pipeline.stability.piggyback())
        return [self.kernel.send_to_site(dst_site, batch)]

    def flush_all(self) -> None:
        """Drain every coalescing buffer now (wedge / urgent points)."""
        for dst_site in list(self._buffers):
            self._flush(dst_site)

    @property
    def pending_batched(self) -> int:
        return sum(len(buf.entries) for buf in self._buffers.values())

    def on_new_view(self) -> None:
        # Buffers were drained at wedge time; per-view sequence restarts.
        self._send_seq = 0

    # -- tree hooks (no-ops for the flat stage) ----------------------------
    def tree_depth(self) -> int:
        return 0

    def tree(self) -> Optional[SpanningTree]:
        return None

    def broadcast_note(self, note: Message) -> int:
        """Send a control note to every remote member site.

        Returns the number of wire sends (the tree stage overrides this
        to relay the note instead, so callers count actual sends).
        """
        view = self.engine.view
        if view is None:
            return 0
        sent = 0
        for site in view.member_sites():
            if site != self.engine.site_id:
                self.kernel.send_to_site(site, note)
                sent += 1
        return sent

    def on_relay(self, src_site: int, record: tuple) -> None:
        """A ``g.tr`` wrapper reached a flat-mode stage.

        Dissemination mode is a cluster-wide configuration, so this only
        happens under a misconfiguration; ingest the payload (parsed with
        its wrapper) without forwarding so no data is lost.
        """
        _, _, _, root, _, inner = record
        self.pipeline.receive(root, inner[0]["_proto"], inner)

    def drain_pre_view_wrappers(self) -> None:
        """Replay tree wrappers held for a view now installed (no-op)."""


#: Wire protocol tag for a tree-relayed wrapper around a pipeline message.
TREE_PROTO = "g.tr"


class TreeDissemination(DisseminationStage):
    """Hierarchical fan-out over per-origin rotated spanning trees.

    ``IsisConfig.dissemination = "tree"``: instead of the origin paying
    O(n) wire messages per multicast, it wraps the envelope (or batch,
    or token stamp note) in a ``g.tr`` wrapper and sends it only to its
    ``tree_fanout`` children in the spanning tree rooted at itself;
    interior sites relay the wrapper onward to *their* children in the
    same origin-rooted tree and ingest the payload locally.  Every site
    therefore sends at most ``fanout`` copies per multicast regardless
    of group size, at the price of ``depth`` extra hops of latency.

    Wrappers are deduplicated per ``(view, root, tid)`` — retransmits
    and rotation overlaps drop at the first repeated hop — and wrappers
    for a view not yet installed are buffered and replayed at install
    time, exactly like pre-view data envelopes (a relay cannot forward
    along a tree it cannot compute yet).

    Fallbacks keep the flush protocol sound: a *wedged* origin fans out
    flat (its envelope's fate must not depend on relays that may be
    wedged or reporting), and token stamps flushed at wedge time go flat
    so they stay ahead of the flush begin on the same FIFO channels.
    Relays keep forwarding while wedged — forwarding is stateless and
    the payload is view-gated at every hop.  A relay that dies loses its
    subtree's copies only until the failure detector fires: the view
    change's union cut and refill repair exactly that hole.
    """

    #: Pseudo-destination key for the single tree batch buffer.
    _TREE_DST = -1

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        super().__init__(engine, pipeline)
        self._tree: Optional[SpanningTree] = None
        self._tree_view = -1
        #: Wrapper id for trees rooted here (per view; dedup key).
        self._tid = 0
        #: root site -> wrapper ids already seen (current view only).
        self._seen: Dict[int, Set[int]] = {}
        self._seen_view = -1
        #: Wrappers (records, their payload parsed) for views we have not
        #: installed yet.
        self._pre_view_wrappers: List[Tuple[int, tuple]] = []

    # -- the tree ----------------------------------------------------------
    def tree(self) -> Optional[SpanningTree]:
        """The spanning tree of the current view (rebuilt per view)."""
        view = self.engine.view
        if view is None:
            return None
        if self._tree is None or self._tree_view != view.view_id:
            self._tree = SpanningTree(view.member_sites(),
                                      self.kernel.config.tree_fanout)
            self._tree_view = view.view_id
        return self._tree

    def tree_depth(self) -> int:
        tree = self.tree() if self.engine.view is not None else None
        return 0 if tree is None else tree.depth()

    def _wrap(self, inner: Message) -> Message:
        self._tid += 1
        return Message(_proto=TREE_PROTO, gid=self.engine.gid,
                       view=self.engine.view.view_id,
                       root=self.engine.site_id, tid=self._tid,
                       inner=inner.encode())

    # -- send path ---------------------------------------------------------
    def fan_out(self, env: Message, sender_key: Optional[Address]) -> None:
        view = self.engine.view
        assert view is not None
        if self.engine.wedged:
            # Wedge-safe fallback: mid-flush, relays may be wedged or
            # already reporting; flat fan-out keeps the envelope's fate
            # in the sender's own hands (and in the flush's union cut).
            self.kernel.counters.bump("tree.flat_fallbacks")
            super().fan_out(env, sender_key)
            return
        if self.kernel.config.batch_window > 0:
            promises = [self._enqueue(self._TREE_DST, env)]
        else:
            promises = self._send_down(env)
        if sender_key is not None:
            for promise in promises:
                self.kernel.note_outstanding(sender_key, promise)

    def _send_down(self, inner: Message) -> List[Promise]:
        """Wrap ``inner`` and send it to our children in our own tree."""
        tree = self.tree()
        me = self.engine.site_id
        children = [] if tree is None else tree.children(me, me)
        if not children:
            return []
        wrapped = self._wrap(inner)
        return [self.kernel.send_to_site(site, wrapped) for site in children]

    def _send_batch(self, dst_site: int,
                    envelopes: List[Message]) -> List[Promise]:
        if dst_site != self._TREE_DST:
            # A flat-fallback per-peer buffer.
            return super()._send_batch(dst_site, envelopes)
        # One batch serves every subtree destination: it carries no
        # ``stab`` (see :meth:`StabilityStage.piggyback`).
        batch = pack_batch(self.engine.gid, envelopes)
        if not self.engine.wedged:
            return self._send_down(batch)
        self.kernel.counters.bump("tree.flat_fallbacks")
        view = self.engine.view
        if view is None:
            return []
        return [self.kernel.send_to_site(site, batch)
                for site in view.member_sites()
                if site != self.engine.site_id]

    def broadcast_note(self, note: Message) -> int:
        """Relay a control note (token stamps) down our own tree."""
        if self.engine.wedged or self.engine.view is None:
            # Stamps flushed at wedge time must stay ahead of the flush
            # begin on the same FIFO channels; an interior relay hop
            # would let the begin overtake them.
            self.kernel.counters.bump("tree.flat_fallbacks")
            return super().broadcast_note(note)
        return len(self._send_down(note))

    # -- relay path --------------------------------------------------------
    def on_relay(self, src_site: int, record: tuple) -> None:
        """A ``g.tr`` wrapper arrived: dedup, forward, ingest.  Its
        payload was parsed with it, so one held for a later view is
        already known to be well formed."""
        engine = self.engine
        view = engine.view
        msg, _, view_id, root, tid, inner = record
        if not engine.installed or view is None or view_id > view.view_id:
            self._pre_view_wrappers.append((view_id, record))
            return
        if view_id < view.view_id:
            engine.sim.trace.bump("engine.stale_view_drop")
            return
        if self._seen_view != view.view_id:
            self._seen.clear()
            self._seen_view = view.view_id
        seen = self._seen.setdefault(root, set())
        if tid in seen:
            self.kernel.counters.bump("tree.dup_drops")
            return
        seen.add(tid)
        # Forward to our children in the origin-rooted tree *before*
        # local ingest: the subtree's latency must not queue behind our
        # own delivery work.  Relaying is unconditional (even wedged) —
        # the payload is view-gated at every hop.
        tree = self.tree()
        me = engine.site_id
        if tree is not None and root in tree:
            for child in tree.children(root, me):
                if child == me or child == root:
                    continue
                self.kernel.counters.bump("tree.relayed")
                self.kernel.send_to_site(child, msg)
        self.pipeline.receive(root, inner[0]["_proto"], inner)

    def drain_pre_view_wrappers(self) -> None:
        view = self.engine.view
        if view is None or not self._pre_view_wrappers:
            return
        ready = [(v, m) for v, m in self._pre_view_wrappers
                 if v <= view.view_id]
        self._pre_view_wrappers = [
            (v, m) for v, m in self._pre_view_wrappers if v > view.view_id]
        for _, record in ready:
            self.pipeline.receive(record[3], TREE_PROTO, record)

    def on_new_view(self) -> None:
        super().on_new_view()
        self._tid = 0
        self._seen.clear()
        self._seen_view = -1
        self._tree = None
        self._tree_view = -1


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
class CausalOrdering:
    """CBCAST stage: vector-clock causal delivery.

    The causal context rides as a delta-chained binary field: message
    *n* of a sender carries only the context entries that changed since
    its message *n-1*, and names what *n-1* held by its position there
    (varints; a packed address only for what *n-1* did not hold).
    Each local sender owns one :class:`~repro.core.vectorclock.
    ContextEncoder` per view, which diffs the kernel's live delivered
    vectors in place; the receiver advances one chain per sender in
    ``cb_seq`` order (see :class:`~repro.core.cbcast.CausalReceiver`),
    and counts a delta whose positions name nothing in that chain as
    ``kernel.bad_message`` when it finds out.
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        self.engine = engine
        self.pipeline = pipeline
        check = engine.kernel.causal_check
        gid = engine.gid.process()
        packed = gid.pack()
        self.receiver = CausalReceiver(
            delta_check=lambda chain, delta, key:
                check.check_delta_and_register(chain, delta, (gid, key)),
            on_advance=lambda sender, seq: check.note_advance(
                packed, sender, seq),
            on_refuse=lambda: engine.sim.trace.bump("kernel.bad_message"),
        )
        #: Per-sender CBCAST count within the current view (send side).
        self._counts: Dict[Address, int] = {}
        #: Per-sender ``cb_ctx`` delta chain of the current view.
        self._encoders: Dict[Address, ContextEncoder] = {}

    def stamp(self, env: Message, sender: Address) -> None:
        """Send side: attach causal metadata to an outgoing envelope."""
        key = sender.process()
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        env["cb_sender"] = key
        env["cb_seq"] = count
        encoder = self._encoders.get(key)
        if encoder is None:
            encoder = self._encoders[key] = ContextEncoder()
        env["cb_ctx"] = encoder.encode(
            self.engine.kernel.causal_check.groups())

    @staticmethod
    def own(env: Message) -> CausalFields:
        """The causal fields :meth:`stamp` gave our own ``env``."""
        return ((env["cb_sender"].pack(), env["cb_seq"]),
                parse_context_delta(env["cb_ctx"]))

    def ingest(self, env: Message, causal: CausalFields) -> None:
        """Receive side: queue ``env`` under its causal fields, deliver
        whatever became deliverable."""
        for ready in self.receiver.offer(env, causal):
            self.engine.deliver_env(ready)
        self.engine.kernel.causal_check.recheck(exclude=self.engine.gid)

    def on_new_view(self) -> None:
        self.receiver.on_new_view()
        self._counts.clear()
        self._encoders.clear()
        # The pending buffer just reset: registrations made by this
        # group are stale (their messages are gone), and thresholds
        # other groups registered on us are satisfied by the view
        # advance (delivered vectors reset per view).
        self.engine.kernel.causal_check.note_view_event(self.engine.gid)


# ----------------------------------------------------------------------
# Stability
# ----------------------------------------------------------------------
class StabilityStage:
    """Continuous, piggybacked stability tracking + collection for idle tails.

    Every member site buffers every data message until it is known
    received everywhere (the flush may need it for refill).  This stage
    learns peers' have-vectors from the ``stab`` blobs riding on data and
    advances the local trim floor — the pointwise minimum over all
    member sites — whenever that knowledge grows.  A site that only
    *receives* pushes its blob to the group every ``STAB_ANNOUNCE_EVERY``
    messages (``g.stab.a``).  What traffic leaves behind, one collector
    gathers: subtree minima climb the *collection tree* (``g.stab.up``)
    to its root, the lowest-ranked member's site, which sends the stable
    cut back down (``g.stab.dn``).  In tree mode that is the
    dissemination tree; flat, it is one level deep — every other member
    site is a leaf of the root.

    Every note carries one ``stab`` blob and nothing else about
    reception (``g.stab.up`` adds ``n``, the sites its minimum covers);
    :meth:`_current` is where a note's view is checked.
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        self.engine = engine
        self.pipeline = pipeline
        self.kernel = engine.kernel
        #: Peer site -> best-known have-vector (monotone max-merged).
        self._peer_have: Dict[int, Dict[int, int]] = {}
        #: Peer site -> best-known ABCAST delivery floor.
        self._peer_floor: Dict[int, Tuple[int, int]] = {}
        #: The other member sites of view ``_peers_of`` (worked out once
        #: a view, not once a trim).
        self._peers_of: Optional["View"] = None
        self._peers: Tuple[int, ...] = ()
        #: Flat: every site also tells every peer its own state — on data
        #: (with ``piggyback_stability``) and by ``g.stab.a`` — and the
        #: trim and the group floor read that; a tree has only the wave.
        self._per_peer = self.kernel.config.dissemination == "flat"
        self._piggybacking = (self._per_peer
                              and self.kernel.config.piggyback_stability)
        #: Highest own delivery floor already announced to the group.
        self._floor_announced: Tuple[int, int] = (0, 0)
        self._recv_since_announce = 0
        self._last_advance = float("-inf")
        #: child site -> (subtree min have-vector, sites covered, min floor).
        self._child_up: Dict[int, Tuple[Dict[int, int], int,
                                        Tuple[int, int]]] = {}
        #: Last state pushed to the parent / broadcast down (dedup).
        self._up_last: Optional[Tuple] = None
        self._dn_last: Optional[Tuple] = None
        #: Group-wide min delivery floor per the last cut that named one.
        self._cut_floor: Tuple[int, int] = (0, 0)

    def _peer_sites(self) -> Tuple[int, ...]:
        """The other member sites of the installed view."""
        view = self.engine.view
        if self._peers_of is not view:
            self._peers_of = view
            self._peers = tuple(site for site in view.member_sites()
                                if site != self.engine.site_id)
        return self._peers

    def _collection_tree(self) -> SpanningTree:
        """The tree the wave climbs in the installed view: the
        dissemination tree, or flat a one-level tree — every member a
        leaf of the root — built when asked for: kept, one per group and
        site, these trees raised ``sim-groups``' peak RSS by ≈ 1 MB."""
        tree = self.pipeline.dissemination.tree()
        if tree is None:
            sites = self.engine.view.member_sites()
            tree = SpanningTree(sites, fanout=len(sites))
        return tree

    # -- the blob: out -----------------------------------------------------
    def piggyback(self) -> Optional[Stab]:
        """Our reception state for an outgoing envelope or batch, if any.

        None in tree mode: one wire copy serves many destinations there,
        and stability is the aggregation wave's job.
        """
        engine = self.engine
        if not self._piggybacking or engine.view is None:
            return None
        return (engine.view.view_id, engine.delivery_floor,
                engine.store.have_vector())

    def attach(self, env: Message) -> None:
        """Piggyback our reception state on an outgoing data envelope."""
        stab = self.piggyback()
        if stab is not None:
            env["stab"] = encode_stab(*stab)

    def _note(self, proto: str, floor: Tuple[int, int],
              have: Dict[int, int], **fields) -> Message:
        """A ``g.stab.*`` note about the installed view."""
        return Message(_proto=proto, gid=self.engine.gid,
                       stab=encode_stab(self.engine.view.view_id, floor, have),
                       **fields)

    # -- the blob: in ------------------------------------------------------
    def _current(self, stab: Stab) -> bool:
        """Does a ``g.stab.*`` note's blob count the installed view?

        A note can be late: gseq counters and floors restart in every
        view, so one that counts another view says nothing about this
        one, and is refused (``stability.stale_note``).
        """
        view = self.engine.view
        if view is None or stab[0] != view.view_id:
            self.engine.sim.trace.bump("stability.stale_note")
            return False
        return True

    def merge(self, src_site: int, stab: Stab) -> None:
        """Max-merge what ``src_site`` says of itself; trim and prune.

        The floor: the pointwise minimum over all members bounds the
        prefix of the final order delivered everywhere, which lets
        :meth:`GroupEngine.prune_delivered_finals` cap flush-report
        sizes.  The vector: the minimum over all members is stable.
        Both are monotone within a view, so a lost or late blob is
        merely conservative; one of another view (a piggyback on a
        future view's data, say) is ignored.
        """
        view_id, floor, have = stab
        view = self.engine.view
        if view is None or view_id != view.view_id:
            return
        if floor > self._peer_floor.get(src_site, (0, 0)):
            self._peer_floor[src_site] = floor
            self.engine.prune_delivered_finals()
        if not self._piggybacking:
            return  # off: buffer GC is the wave's job alone
        known = self._peer_have.setdefault(src_site, {})
        advanced = False
        for origin, top in have.items():
            if top > known.get(origin, 0):
                known[origin] = top
                advanced = True
        if advanced:
            self.maybe_trim()

    def peer_have_vectors(self) -> Dict[int, Dict[int, int]]:
        """Best-known reception state per peer (the flush's base union)."""
        return self._peer_have

    def group_floor(self) -> Tuple[int, int]:
        """The ABCAST delivery floor every member site is known to have
        reached; ``(0, 0)`` while some member's is unknown."""
        floor = self.engine.delivery_floor
        if not self._per_peer:
            # No per-peer floors: the aggregated minimum of the last
            # complete wave plays the same role.
            return min(floor, self._cut_floor)
        for site in self._peer_sites():
            floor = min(floor, self._peer_floor.get(site, (0, 0)))
        return floor

    def maybe_trim(self) -> None:
        """Trim the store up to the pointwise-min cut, if it advanced."""
        engine = self.engine
        if engine.view is None or not engine.installed:
            return
        if engine.wedged:
            # Mid-flush, the coordinator's pull plan assumes any site
            # whose *report* covered a message can still supply it;
            # trimming now could empty a pending refill.  Deferring
            # costs nothing: the store resets when the view installs.
            return
        if engine.store.buffered_count == 0:
            return
        vectors = [self._peer_have.get(site) for site in self._peer_sites()]
        if None in vectors:
            return  # someone's reception state is still unknown
        stable: Dict[int, int] = {}
        for origin, top in engine.store.have_vector().items():
            for have in vectors:
                theirs = have.get(origin, 0)
                if theirs < top:
                    top = theirs
            if top > 0:
                stable[origin] = top
        if stable:
            self._trim(stable, "stability.piggyback_trimmed")

    def _trim(self, stable: Dict[int, int], learnt_by: str) -> None:
        """Drop what ``stable`` covers; ``learnt_by`` is the trace counter
        of the path that learnt it."""
        engine = self.engine
        dropped = engine.store.trim_stable(stable)
        if dropped:
            self._last_advance = engine.sim.now
            self.kernel.counters.bump("stability.trimmed", dropped)
            engine.sim.trace.bump(learnt_by, dropped)
            if self.kernel.wal is not None:
                self.kernel.wal.note_stable_trim(engine)

    # -- receiver-side announcements ---------------------------------------
    def note_received(self) -> None:
        """Count received data; push our state every N messages."""
        if self._per_peer and not self._piggybacking:
            return
        self._recv_since_announce += 1
        if self._recv_since_announce >= STAB_ANNOUNCE_EVERY:
            if self._per_peer:
                self.announce()
            else:
                self._recv_since_announce = 0
                self.tree_push()

    def announce(self) -> None:
        """Unsolicited ``g.stab.a``: tell peers what we have received."""
        engine = self.engine
        if engine.view is None or not engine.installed or engine.wedged:
            return
        self._recv_since_announce = 0
        self._floor_announced = engine.delivery_floor
        note = self._note("g.stab.a", engine.delivery_floor,
                          engine.store.have_vector())
        engine.sim.trace.bump("stability.announcements")
        for site in self._peer_sites():
            self.kernel.send_to_site(site, note)

    def on_announce(self, src_site: int, record: tuple) -> None:
        """A peer's ``g.stab.a``."""
        stab = record[2]
        if self._current(stab):
            self.merge(src_site, stab)

    # -- the kernel's tick -------------------------------------------------
    def tick(self) -> bool:
        """Collect what traffic left behind; is there more for next time?

        One aggregation push — skipped while piggybacks trimmed within
        the last ``STABILITY_INTERVAL`` (``stability.round_skipped``):
        the wave is for groups gone quiet with a buffered tail.  Flat, a
        floor peers have not heard is announced once — a group that goes
        quiet right after a burst would otherwise leave the tail of its
        delivered finals unprunable.  ``False`` drops the group out of
        the kernel's dirty set until a buffered message, a floor advance
        or a child report re-arms it (``stab.idle_skipped``); a skipped
        push keeps it in, so the state it holds back reaches the root.
        """
        engine = self.engine
        skipped = (self._piggybacking and engine.sim.now
                   - self._last_advance < STABILITY_INTERVAL)
        if skipped:
            engine.sim.trace.bump("stability.round_skipped")
        else:
            self.tree_push()
        if self._per_peer and engine.delivery_floor > self._floor_announced:
            self.announce()
        if skipped or engine.store.buffered_count:
            return True
        # Otherwise: a floor the group has not heard from us yet — by
        # ``g.stab.up`` (below the root), in our own cut (the root) or
        # by ``g.stab.a`` (flat; in a tree this one stays ``(0, 0)``).
        if self._up_last is not None:
            return engine.delivery_floor > self._up_last[2]
        if self._dn_last is not None:
            return engine.delivery_floor > self._dn_last[1]
        return engine.delivery_floor > self._floor_announced

    # -- the collector: the aggregation wave -------------------------------
    def _stab_root(self) -> Optional[int]:
        """The aggregation root: the lowest-ranked member's site.

        A pure function of the view (same rule as the sequencer token),
        so every member agrees without coordination; if the root site
        dies, the view change rebuilds the tree around the survivor set.
        """
        view = self.engine.view
        if view is None or not view.members:
            return None
        return view.members[0].site

    def tree_push(self) -> None:
        """Aggregate our subtree's state and push it one hop rootward.

        Interior nodes min-merge their own have-vector and delivery
        floor with the cached reports of their children in the
        collection tree; the root, once its covered-site count reaches
        the whole view, sends the stable cut back down the same tree.
        Per-site stability traffic is O(fanout) per aggregation wave
        regardless of group size in a tree; flat, a wave is one report
        per member and one cut to each.
        """
        engine = self.engine
        view = engine.view
        if (view is None or not engine.installed or engine.wedged
                or not self.kernel.alive):
            return
        tree = self._collection_tree()
        root = self._stab_root()
        me = engine.site_id
        if root is None or root not in tree or me not in tree:
            return
        vectors = [engine.store.have_vector()]
        count = 1
        floor = engine.delivery_floor
        children = tree.children(root, me)
        for child in children:
            snap = self._child_up.get(child)
            if snap is None:
                continue
            vectors.append(snap[0])
            count += snap[1]
            if snap[2] < floor:
                floor = snap[2]
        agg = min_merge_have_vectors(vectors)
        if me == root:
            if count < len(tree):
                return  # some subtree has not reported yet
            state = (tuple(sorted(agg.items())), floor)
            if state != self._dn_last:
                self._dn_last = state
                self._send_cut(children, agg, floor)
            return
        state = (tuple(sorted(agg.items())), count, floor)
        if state == self._up_last:
            return  # nothing new for the parent
        self._up_last = state
        parent = tree.parent(root, me)
        if parent is None:
            return
        self.kernel.counters.bump("stab.up_sent")
        self.kernel.send_to_site(
            parent, self._note("g.stab.up", floor, agg, n=count))

    def on_up(self, src_site: int, record: tuple) -> None:
        """A child's aggregated subtree report (``g.stab.up``).

        ``n`` is outside input the root adds up to decide that every
        subtree has reported: a report from a site that is not our
        child, or one that covers more sites than the sender's subtree
        holds, could make the root cut before some member has what the
        cut trims.  Both are refused (``stability.refused_up``).
        """
        _, _, stab, count = record
        if not self._current(stab):
            return
        tree = self._collection_tree()
        root = self._stab_root()
        if (tree.parent(root, src_site) != self.engine.site_id
                or count > tree.subtree_size(root, src_site)):
            self.engine.sim.trace.bump("stability.refused_up")
            return
        self._child_up[src_site] = (stab[2], count, stab[1])
        self.kernel.note_group_dirty(self.engine.gid)
        # Re-aggregate immediately: fresh child state propagates one hop
        # per event, so a full wave costs depth hops, not depth ticks.
        self.tree_push()

    # -- the cut -----------------------------------------------------------
    def _send_cut(self, sites: Iterable[int], stable: Dict[int, int],
                  floor: Tuple[int, int]) -> None:
        """The wave's last step: ``g.stab.dn`` to ``sites``, and here."""
        self._apply_cut(stable, floor)
        note = self._note("g.stab.dn", floor, stable)
        for site in sites:
            self.kernel.counters.bump("stab.dn_sent")
            self.kernel.send_to_site(site, note)

    def on_dn(self, src_site: int, record: tuple) -> None:
        """The stable cut: apply it and relay it to our children."""
        msg, _, stab = record
        if not self._current(stab):
            return
        self._apply_cut(stab[2], stab[1])
        for child in self._collection_tree().children(
                self._stab_root(), self.engine.site_id):
            self.kernel.counters.bump("stab.dn_sent")
            self.kernel.send_to_site(child, msg)

    def _apply_cut(self, stable: Dict[int, int],
                   floor: Tuple[int, int]) -> None:
        engine = self.engine
        if floor > self._cut_floor:
            self._cut_floor = floor
        if (stable and engine.installed and not engine.wedged
                and engine.store.buffered_count):
            # Wedged: defer exactly like maybe_trim — mid-flush trims
            # could empty a pending refill the coordinator counts on.
            self._trim(stable, "stability.cut_trimmed")
        engine.prune_delivered_finals()

    def on_new_view(self) -> None:
        self._peer_have.clear()
        self._peer_floor.clear()
        self._floor_announced = (0, 0)
        self._recv_since_announce = 0
        self._child_up.clear()
        self._up_last = None
        self._dn_last = None
        self._cut_floor = (0, 0)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
def _causal(record: tuple) -> Optional[CausalFields]:
    """What a data envelope's record (``msg/wire.py``: ``g.cb`` /
    ``g.ab``) says of its place in causal order: a ``g.cb``'s pending
    key and parsed ``cb_ctx``; None for a ``g.ab``."""
    if len(record) < 11:
        return None
    sender, seq, delta = record[8:]
    return (sender.process().pack(), seq), delta


class DeliveryPipeline:
    """The stack the engine drives; owns the whole multicast data path."""

    #: The protocols the pipeline consumes (``msg/wire.PIPELINE``) and,
    #: from the pipeline, the ``handler(src_site, record)`` of each.
    HANDLERS = {
        BATCH_PROTO: attrgetter("ingest_batch"),
        "g.cb": attrgetter("on_data"),
        "g.ab": attrgetter("on_data"),
        "g.abp": attrgetter("total.on_proposal"),
        "g.abf": attrgetter("total.on_final"),
        "g.abs": attrgetter("total.on_stamps"),
        "g.stab.a": attrgetter("stability.on_announce"),
        "g.stab.up": attrgetter("stability.on_up"),
        "g.stab.dn": attrgetter("stability.on_dn"),
        TREE_PROTO: attrgetter("dissemination.on_relay"),
    }

    def __init__(self, engine: "GroupEngine"):
        self.engine = engine
        dmode = engine.kernel.config.dissemination
        if dmode == "tree":
            self.dissemination: DisseminationStage = TreeDissemination(
                engine, self)
        elif dmode == "flat":
            self.dissemination = DisseminationStage(engine, self)
        else:
            raise GroupError(f"unknown dissemination {dmode!r} "
                             "(expected 'flat' or 'tree')")
        self.causal = CausalOrdering(engine, self)
        self.total = make_ordering(
            engine.kernel.config.abcast_mode, engine, self)
        self.stability = StabilityStage(engine, self)
        #: Envelope records for views we have not installed yet.
        self._pre_view: List[Tuple[int, tuple]] = []

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self) -> None:
        """Disarm every stage timer (kernel shutdown / crash teardown)."""
        self.dissemination.shutdown()
        self.total.shutdown()

    # -- send path ---------------------------------------------------------
    def next_gseq(self) -> int:
        return self.dissemination.next_gseq()

    def submit(self, env: Message, sender: Address) -> None:
        """Local send: stamp ordering metadata, buffer, fan out.

        The caller feeds the sender's own copy back through
        :meth:`process` once dispatch bookkeeping is done.
        """
        engine = self.engine
        if env["_proto"] == "g.cb":
            self.causal.stamp(env, sender)
        else:
            self.total.stamp(env, sender)
        if engine.kernel.config.batch_window <= 0:
            # Unbatched sends carry the have-vector on the envelope
            # itself; batched sends carry one per batch container.
            self.stability.attach(env)
        engine.store.record(engine.site_id, env["gseq"], env)
        engine.kernel.note_group_dirty(engine.gid)
        sender_key = env.get("cb_sender") or env.get("ab_sender")
        self.dissemination.fan_out(env, sender_key)

    # -- receive path ------------------------------------------------------
    def receive(self, src_site: int, proto: str, record: tuple) -> None:
        """Wire ingress for every pipeline protocol: the message's record,
        parsed against its declaration (``msg/wire.py``) before it came
        here, to its handler."""
        self.HANDLERS[proto](self)(src_site, record)

    def ingest_batch(self, src_site: int, record: tuple) -> None:
        """A ``g.batch``: its blob, then its envelopes in order."""
        _, _, envelopes, stab = record
        if stab is not None:
            self.stability.merge(src_site, stab)
        for envelope in envelopes:
            self.ingest_data(src_site, envelope[0], record=envelope)

    def on_data(self, src_site: int, record: tuple) -> None:
        """A ``g.cb`` / ``g.ab`` on its own."""
        self.ingest_data(src_site, record[0], record=record)

    def ingest_data(self, src_site: int, env: Message, *,
                    record: tuple) -> None:
        """One data envelope off the wire, ``record`` its parse: blob,
        gate by view, buffer, order."""
        engine = self.engine
        view_id, origin, gseq, stab = record[2], record[3], record[4], record[7]
        if stab is not None:
            self.stability.merge(src_site, stab)
        if not engine.installed or engine.view is None:
            self._pre_view.append((view_id, record))
            return
        if view_id < engine.view.view_id:
            engine.sim.trace.bump("engine.stale_view_drop")
            return
        if view_id > engine.view.view_id:
            self._pre_view.append((view_id, record))
            return
        if engine.store.record(origin, gseq, env):
            engine.kernel.note_group_dirty(engine.gid)
            self.stability.note_received()
            self._order(env, _causal(record))
            # In-flight data arriving mid-flush can be exactly what the
            # union cut is waiting for (a holder may have trimmed it and
            # be unable to refill): re-check our fill obligation.
            engine.maybe_flush_filled()

    def accept_refill(self, record: tuple) -> None:
        """A flush holder re-sent this envelope (its record).

        Refill only ever carries current-view messages; a copy arriving
        after the flush committed (a retransmitted ``g.fl.data`` frame)
        must not leak into the successor view's fresh ordering state.
        """
        engine = self.engine
        env, view_id, origin, gseq = record[0], record[2], record[3], record[4]
        if engine.view is None or view_id != engine.view.view_id:
            engine.sim.trace.bump("engine.stale_refill_drop")
        elif engine.store.record(origin, gseq, env):
            engine.kernel.note_group_dirty(engine.gid)
            self._order(env, _causal(record))

    def process(self, env: Message) -> None:
        """Hand our own copy of a send to its ordering stage."""
        self._order(env, CausalOrdering.own(env)
                    if env["_proto"] == "g.cb" else None)

    def _order(self, env: Message, causal: Optional[CausalFields]) -> None:
        """Hand a newly buffered envelope to its ordering stage."""
        if causal is not None:
            self.causal.ingest(env, causal)
        else:
            self.total.ingest(env)

    # -- view lifecycle ----------------------------------------------------
    def drain_pre_view(self) -> None:
        """Re-inject envelopes whose view has now been installed."""
        view = self.engine.view
        if view is None:
            return
        self.dissemination.drain_pre_view_wrappers()
        ready = [(v, rec) for v, rec in self._pre_view if v <= view.view_id]
        self._pre_view = [(v, rec) for v, rec in self._pre_view
                          if v > view.view_id]
        for _, record in ready:
            self.ingest_data(record[3], record[0], record=record)

    def on_wedge(self) -> None:
        """Flush in progress: push buffered batches and stamps out ahead
        of the reports."""
        self.dissemination.flush_all()
        self.total.on_wedge()

    def on_new_view(self) -> None:
        self.dissemination.on_new_view()
        self.causal.on_new_view()
        self.total.on_new_view()
        self.stability.on_new_view()
