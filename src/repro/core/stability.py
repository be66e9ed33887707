"""Message stability: every message stays buffered until it is known
received everywhere, so that a flush (``core/flush.py``) can refill any
member site that missed it.

:class:`StabilityStage` learns what the other member sites hold from
the ``stab`` blob of ``msg/fields.py`` (view id, ABCAST delivery floor,
have-vector) — piggybacked on data envelopes and batches, never on the
ordering notes an ABCAST waits for — and trims the store up to it.  The
kernel's tick runs its collector every ``STABILITY_INTERVAL``.  Every
note leaves through :meth:`ProtocolsProcess.send_note`: within the tick,
and while a bundle of notes is handled, a kernel's notes to one site
leave as one ``k.notes`` message.

Wire protocol (each message's fields: its row in ``msg/wire.py``):

======================= ======================================================
``g.stab.a``            flat: a site's ``stab``, unsolicited, to every peer
``g.stab.up`` / ``.dn`` a subtree's minimum rootward up the collection tree
                        (flat: one level deep); the root's stable cut
======================= ======================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..msg.fields import Stab, encode_stab
from ..msg.message import Message
from .store import MessageStore
from .tree import SpanningTree, min_merge_have_vectors

if TYPE_CHECKING:  # pragma: no cover
    from .engine import GroupEngine
    from .pipeline import DeliveryPipeline


#: A receive-only site pushes its have-vector every this many messages.
STAB_ANNOUNCE_EVERY = 32
#: Cadence of the kernel's stability tick (buffer GC); flat, a site whose
#: piggybacks trimmed within one interval skips its collection push.
STABILITY_INTERVAL = 2.0


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
        return (engine.view.view_id, self.pipeline.total.delivery_floor,
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
        :meth:`OrderingEngine.prune_delivered_finals` cap flush-report
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
            self.pipeline.total.prune_delivered_finals()
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

    def known_union(self) -> Dict[int, int]:
        """Every message known held somewhere: our have-vector
        max-merged with every peer's piggybacked one (the union a flush
        expects)."""
        vectors = [self.engine.store.have_vector()]
        vectors.extend(self._peer_have.values())
        return MessageStore.union(vectors)

    def group_floor(self) -> Tuple[int, int]:
        """The ABCAST delivery floor every member site is known to have
        reached; ``(0, 0)`` while some member's is unknown."""
        floor = self.pipeline.total.delivery_floor
        if not self._per_peer:
            # No per-peer floors: the aggregated minimum of the last
            # complete wave plays the same role.
            return min(floor, self._cut_floor)
        for site in self.pipeline.dissemination.peers():
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
        vectors = [self._peer_have.get(site)
                   for site in self.pipeline.dissemination.peers()]
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
        self._floor_announced = floor = self.pipeline.total.delivery_floor
        note = self._note("g.stab.a", floor,
                          engine.store.have_vector())
        engine.sim.trace.bump("stability.announcements")
        for site in self.pipeline.dissemination.peers():
            self.kernel.send_note(site, note)

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
        floor = self.pipeline.total.delivery_floor
        skipped = (self._piggybacking and engine.sim.now
                   - self._last_advance < STABILITY_INTERVAL)
        if skipped:
            engine.sim.trace.bump("stability.round_skipped")
        else:
            self.tree_push()
        if self._per_peer and floor > self._floor_announced:
            self.announce()
        if skipped or engine.store.buffered_count:
            return True
        # Otherwise: a floor the group has not heard from us yet — by
        # ``g.stab.up`` (below the root), in our own cut (the root) or
        # by ``g.stab.a`` (flat; in a tree this one stays ``(0, 0)``).
        if self._up_last is not None:
            return floor > self._up_last[2]
        if self._dn_last is not None:
            return floor > self._dn_last[1]
        return floor > self._floor_announced

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
        floor = self.pipeline.total.delivery_floor
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
        self.kernel.send_note(
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
            self.kernel.send_note(site, note)

    def on_dn(self, src_site: int, record: tuple) -> None:
        """The stable cut: apply it and relay it to our children."""
        msg, _, stab = record
        if not self._current(stab):
            return
        self._apply_cut(stab[2], stab[1])
        for child in self._collection_tree().children(
                self._stab_root(), self.engine.site_id):
            self.kernel.counters.bump("stab.dn_sent")
            self.kernel.send_note(child, msg)

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
        self.pipeline.total.prune_delivered_finals()

    def on_new_view(self) -> None:
        self._peer_have.clear()
        self._peer_floor.clear()
        self._floor_announced = (0, 0)
        self._recv_since_announce = 0
        self._child_up.clear()
        self._up_last = None
        self._dn_last = None
        self._cut_floor = (0, 0)
