"""The layered delivery pipeline: dissemination → ordering → stability.

The multicast data path of a group at one member site is a composable
stack of three stages, driven by :class:`~repro.core.engine.GroupEngine`
through the narrow :class:`DeliveryPipeline` interface:

* :class:`DisseminationStage` — gets data envelopes to every other
  member site, straight or down a spanning tree, one method deciding
  which.  With ``IsisConfig.batch_window > 0`` it coalesces a group's
  envelopes into one wire message (``g.batch``), flushed when the
  window expires or ``BATCH_MAX_BYTES`` accumulate; with a zero window
  every envelope is its own wire message, byte-for-byte what the
  unbatched system sent.  The other stages reach the group's peers
  through it too.
* **Ordering** — :class:`CausalOrdering` (CBCAST: vector clocks,
  per-sender FIFO) and a pluggable total-order engine decide *when* a
  buffered envelope may be handed to the engine's delivery sink.  The
  total-order engines live behind the explicit
  :class:`~repro.core.ordering.OrderingEngine` seam in
  ``core/ordering.py`` — ``abcast_mode`` selects ``two_phase`` (the
  paper's two-phase priorities) or ``sequencer`` (token-site batched
  ``g.abs`` stamps).  The one it selects also keeps the view's book of
  delivered finals and the delivery floor stability piggybacks.
* **Stability** — :class:`~repro.core.stability.StabilityStage`, in
  ``core/stability.py``, tracks which messages are known received
  everywhere and trims the store up to them.

The engine keeps what is *not* the data path: view installation and
local delivery; the flush protocol is ``core/flush.py``'s.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..errors import GroupError, SiteDown
from ..msg.address import Address
from ..msg.message import BATCH_PROTO, Message, pack_batch
from ..sim.core import Timer
from ..sim.tasks import Promise
from .cbcast import CausalFields, CausalReceiver
from .ordering import make_ordering
from .stability import StabilityStage
from .tree import SpanningTree
from .vectorclock import ContextEncoder

if TYPE_CHECKING:  # pragma: no cover
    from .engine import GroupEngine
    from .view import View


#: Early-flush cap of a batch buffer (a full batch fits one 4 KB MTU frame).
BATCH_MAX_BYTES = 3072


# ----------------------------------------------------------------------
# Dissemination
# ----------------------------------------------------------------------
#: Wire protocol tag for a tree-relayed wrapper around a pipeline message.
TREE_PROTO = "g.tr"


class DisseminationStage:
    """Gets a group's envelopes and notes to its other member sites.

    :meth:`_send` alone picks the route, ``IsisConfig.dissemination``:

    * ``"flat"`` — one copy straight to every other member site.
    * ``"tree"`` — instead of the origin paying O(n) wire messages per
      multicast, it wraps the message in a ``g.tr`` wrapper and sends it
      only to its ``tree_fanout`` children in the spanning tree rooted
      at itself; interior sites relay the wrapper onward to *their*
      children in the same origin-rooted tree and ingest the payload
      locally (:meth:`on_relay`).  Every site therefore sends at most
      ``fanout`` copies per multicast regardless of group size, at the
      price of ``depth`` extra hops of latency.  A *wedged* origin sends
      flat (``tree.flat_fallbacks``): its envelope's fate must not
      depend on relays that may be wedged or reporting, and token stamps
      flushed at wedge time must stay ahead of the flush begin on the
      same FIFO channels.

    With ``IsisConfig.batch_window > 0`` envelopes coalesce in one
    buffer per group, flushed as one ``g.batch`` when the window expires
    or ``BATCH_MAX_BYTES`` accumulate; with a zero window every envelope
    is its own wire message.

    Wrappers are deduplicated per ``(view, root, tid)`` — retransmits
    and rotation overlaps drop at the first repeated hop — and wrappers
    for a view not yet installed are held and replayed at install time,
    exactly like pre-view data envelopes (a relay cannot forward along a
    tree it cannot compute yet).  Relays keep forwarding while wedged —
    forwarding is stateless and the payload is view-gated at every hop.
    A relay that dies loses its subtree's copies only until the failure
    detector fires: the view change's union cut and refill repair
    exactly that hole.  What the stage sends it counts on
    ``kernel.counters`` (``batch.*``, ``tree.*``).
    """

    def __init__(self, engine: "GroupEngine", pipeline: "DeliveryPipeline"):
        self.engine = engine
        self.pipeline = pipeline
        self.kernel = engine.kernel
        self._send_seq = 0
        self._tree_mode = self.kernel.config.dissemination == "tree"
        #: The coalescing buffer: envelopes with their send promises.
        self._batch: List[Tuple[Message, Promise]] = []
        self._batch_bytes = 0
        self._batch_timer: Optional[Timer] = None
        #: The other member sites of view ``_peers_of`` (worked out once
        #: a view, not once a send).
        self._peers_of: Optional["View"] = None
        self._peers: Tuple[int, ...] = ()
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

    def next_gseq(self) -> int:
        self._send_seq += 1
        return self._send_seq

    def shutdown(self) -> None:
        """Disarm the batch timer; reject envelopes still waiting on it."""
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        self._reject(self._batch)
        self._batch, self._batch_bytes = [], 0

    def _reject(self, entries: List[Tuple[Message, Promise]]) -> None:
        for _, promise in entries:
            if not promise.done:
                promise.reject(SiteDown(f"site {self.engine.site_id} is down"))

    # -- where to ----------------------------------------------------------
    def peers(self) -> Tuple[int, ...]:
        """The other member sites of the installed view."""
        view = self.engine.view
        if self._peers_of is not view:
            self._peers_of = view
            self._peers = () if view is None else tuple(
                site for site in view.member_sites()
                if site != self.engine.site_id)
        return self._peers

    def to_peers(self, msg: Message) -> List[Promise]:
        """Send ``msg`` straight to every other member site."""
        return [self.kernel.send_to_site(site, msg) for site in self.peers()]

    def tree(self) -> Optional[SpanningTree]:
        """The spanning tree of the current view (rebuilt per view);
        None when flat."""
        view = self.engine.view
        if not self._tree_mode or view is None:
            return None
        if self._tree is None or self._tree_view != view.view_id:
            self._tree = SpanningTree(view.member_sites(),
                                      self.kernel.config.tree_fanout)
            self._tree_view = view.view_id
        return self._tree

    def tree_depth(self) -> int:
        tree = self.tree()
        return 0 if tree is None else tree.depth()

    def _send(self, msg: Message) -> List[Promise]:
        """Put ``msg`` on its route to every other member site: the
        send promises."""
        if self._tree_mode:
            if not self.engine.wedged:
                return self._send_down(msg)
            self.kernel.counters.bump("tree.flat_fallbacks")
        return self.to_peers(msg)

    def _send_down(self, inner: Message) -> List[Promise]:
        """Wrap ``inner`` and send it to our children in our own tree."""
        tree = self.tree()
        me = self.engine.site_id
        children = [] if tree is None else tree.children(me, me)
        if not children:
            return []
        self._tid += 1
        wrapped = Message(_proto=TREE_PROTO, gid=self.engine.gid,
                          view=self.engine.view.view_id, root=me,
                          tid=self._tid, inner=inner.encode())
        return [self.kernel.send_to_site(site, wrapped) for site in children]

    # -- send path ---------------------------------------------------------
    def fan_out(self, env: Message, sender_key: Optional[Address]) -> None:
        """Send ``env`` to every other member site of the current view."""
        if not self.peers():
            return
        if self.kernel.config.batch_window > 0:
            promises = [self._enqueue(env)]
        else:
            promises = self._send(env)
        if sender_key is not None:
            for promise in promises:
                self.kernel.note_outstanding(sender_key, promise)

    def broadcast_note(self, note: Message) -> int:
        """Send a control note (token stamps) on the data's route: the
        number of wire sends."""
        return len(self._send(note))

    # -- coalescing --------------------------------------------------------
    def _enqueue(self, env: Message) -> Promise:
        promise = Promise(label=f"batched:{self.engine.gid}")
        self._batch.append((env, promise))
        self._batch_bytes += env.size_bytes
        if self._batch_bytes >= BATCH_MAX_BYTES:
            self.flush_batch()
        elif self._batch_timer is None:
            self._batch_timer = self.engine.sim.call_after(
                self.kernel.config.batch_window, self.flush_batch)
        return promise

    def flush_batch(self) -> None:
        """Send the coalescing buffer now (window, size cap or wedge)."""
        entries = self._batch
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not entries:
            return
        self._batch, self._batch_bytes = [], 0
        if not self.kernel.alive:
            self._reject(entries)
            return
        envelopes = [env for env, _ in entries]
        self.kernel.counters.bump("batch.sent")
        self.kernel.counters.bump("batch.envelopes", len(envelopes))
        sends = self._send(pack_batch(self.engine.gid, envelopes,
                                      self.pipeline.stability.piggyback()))
        if not sends:
            for _, entry_promise in entries:
                entry_promise.resolve(None)
            return
        state = {"left": len(sends), "failed": None}

        def settle(p: Promise) -> None:
            if p.rejected and state["failed"] is None:
                state["failed"] = p.exception
            state["left"] -= 1
            if state["left"] == 0:
                for _, entry_promise in entries:
                    if state["failed"] is not None:
                        entry_promise.reject(state["failed"])
                    else:
                        entry_promise.resolve(None)

        for send in sends:
            send.add_done_callback(settle)

    @property
    def pending_batched(self) -> int:
        return len(self._batch)

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
        # The buffer was drained at wedge time; per-view sequence restarts.
        self._send_seq = 0
        self._tid = 0


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------
class CausalOrdering:
    """CBCAST stage: vector-clock causal delivery.

    The causal context rides as a delta-chained binary field: message
    *n* of a sender carries only the context entries that changed since
    its message *n-1*, and names what *n-1* held by its position there
    (varints; a packed gid only for a group *n-1* did not hold in that
    view), a member by its rank in the view.  Each local sender owns one
    :class:`~repro.core.vectorclock.ContextEncoder` per view, which
    diffs the kernel's live delivered vectors in place; the receiver
    advances one chain per sender in ``cb_seq`` order (see
    :class:`~repro.core.cbcast.CausalReceiver`), and counts a delta
    whose positions name nothing in that chain, or whose vector does not
    fit its view, as ``kernel.bad_message`` when it finds out.

    A sender is always a member of the view: a vector has a slot for
    each member and none for anyone else, so a count kept for a
    non-member would never reach a context.
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
            layouts=check.layouts,
        )
        #: Per-sender CBCAST count within the current view (send side).
        self._counts: Dict[Address, int] = {}
        #: Per-sender ``cb_ctx`` delta chain of the current view.
        self._encoders: Dict[Address, ContextEncoder] = {}

    def stamp(self, env: Message, sender: Address) -> None:
        """Send side: attach causal metadata to an outgoing envelope.
        :class:`GroupError` if ``sender`` is not a member of the view."""
        key = sender.process()
        view = self.engine.view
        if key not in view.members:
            raise GroupError(f"{key} is not a member of {view.gid} in "
                             f"view {view.view_id}: no rank to count it by")
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        env["cb_sender"] = key
        env["cb_seq"] = count
        check = self.engine.kernel.causal_check
        encoder = self._encoders.get(key)
        if encoder is None:
            encoder = self._encoders[key] = ContextEncoder(check.layouts)
        env["cb_ctx"] = encoder.encode(check.groups())

    @staticmethod
    def own(env: Message) -> CausalFields:
        """The causal fields :meth:`stamp` gave our own ``env``: no delta
        (see :class:`~repro.core.cbcast.CausalReceiver`)."""
        return (env["cb_sender"].pack(), env["cb_seq"]), None

    def ingest(self, env: Message, causal: CausalFields) -> None:
        """Receive side: queue ``env`` under its causal fields, deliver
        whatever became deliverable."""
        for ready in self.receiver.offer(env, causal):
            self.engine.deliver_env(ready)
        self.engine.kernel.causal_check.recheck()

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
        if dmode not in ("flat", "tree"):
            raise GroupError(f"unknown dissemination {dmode!r} "
                             "(expected 'flat' or 'tree')")
        self.dissemination = DisseminationStage(engine, self)
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
            engine.flush.maybe_filled()

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
        self.dissemination.flush_batch()
        self.total.on_wedge()

    def on_new_view(self) -> None:
        self.dissemination.on_new_view()
        self.causal.on_new_view()
        self.total.on_new_view()
        self.stability.on_new_view()
