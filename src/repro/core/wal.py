"""Write-ahead delivery log: crash recovery for group state (§2.2, §5).

The crash-stop model loses every delivered message a site held when it
fails.  With ``IsisConfig.durability`` on, the kernel owns a
:class:`WalManager` that appends a compact binary record to the site's
:class:`~repro.runtime.stable.StableStore` for

* every group delivery handed to local members (``D`` records),
* every installed view (``V`` records), and
* every GBCAST/configuration payload delivered at a commit (``G``
  records),

so a restarted site can rebuild exactly what it had delivered.  Three
consumers:

1. **Incarnation-bumped rejoin.**  At boot the manager replays each
   group's log; ``pg_join`` then piggybacks the replayed
   :class:`Position` (last installed view + its delivered ``SeqSet``) on
   ``g.join``.  If the transfer source's base position is at or before
   it, the source ships only the *suffix* of records the joiner is
   missing instead of a full snapshot — log-assisted state transfer.
2. **Total-failure recovery.**  The recovery manager's poll compares
   logged ``(view_id, deliveries)`` positions; the best survivor calls
   :meth:`WalManager.restore` to rebuild the service from its
   checkpoint + log before re-creating the group (paper §5, the
   last-process-to-fail rule).
3. **Bounded replay.**  Periodic checkpoints capture the group's
   transfer segments plus the log position.  Truncation is
   *two-generation*: the log is cut back to the previous checkpoint,
   not the current one, so there is always a retention window of
   records behind the newest checkpoint — that window is what makes a
   crashed peer's rejoin position servable from the log.

A record, and a checkpoint, is a message of its row in ``msg/wire.py``
(``wal.d``, ``wal.v``, ``wal.g``, ``wal.ck``), in that row's positional
form; a checkpoint whose delivered sets are not in their one spelling
is refused at boot (``recovery.bad_checkpoints``).  Record framing is
torn-tail honest: ``uvarint(len(body)) + body + crc32(body)``, so
replay of a log whose final record was half-written by a crashing disk
detects the damage and discards exactly that tail.

A join-time *rebase* (the fresh state transfer supersedes any pre-crash
log) switches to a new generation-numbered log and flips the checkpoint
blob — which names the generation — only after the new checkpoint is
durably committed.  A crash mid-rebase therefore leaves the old
checkpoint + old log pair intact and consistent; the half-built new
generation is garbage-collected at the next boot.

Everything here is inert when ``durability`` is off: the kernel's
``wal`` attribute is ``None`` and no hook fires, so default trajectories
are byte-identical to the crash-stop system (the differential oracle the
churn property suite leans on).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import CodecError
from ..msg.address import Address
from ..msg.fields import decode_uvarint, encode_uvarint
from ..msg.message import Message
from .join import apply_segments, capture_segments
from .store import SeqSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.process import IsisProcess
    from .engine import GroupEngine
    from .kernel import ProtocolsProcess

REC_DELIVER = "wal.d"
REC_VIEW = "wal.v"
REC_GBCAST = "wal.g"

_LOG_PREFIX = "wal/g/"
_CK_PREFIX = "wal/ck/"
_NAME_PREFIX = "wal/name/"

#: Minimum deliveries since the last checkpoint before a stability trim
#: opportunistically checkpoints too (:meth:`WalManager.note_stable_trim`).
WAL_TRIM_MIN = 16


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------
def frame_record(body: bytes) -> bytes:
    """Length-prefix + CRC32 so replay can detect a torn tail."""
    return (encode_uvarint(len(body)) + body
            + zlib.crc32(body).to_bytes(4, "big"))


def unframe_record(data: bytes) -> Optional[bytes]:
    """Body of a framed record, or ``None`` if torn/corrupt."""
    try:
        length, off = decode_uvarint(data, 0)
    except CodecError:
        return None
    if len(data) < off + length + 4:
        return None
    body = data[off:off + length]
    crc = int.from_bytes(data[off + length:off + length + 4], "big")
    if zlib.crc32(body) != crc:
        return None
    return body


def _record(proto: str, **fields) -> bytes:
    """A framed log record: the positional form of its row's message."""
    return frame_record(Message(_proto=proto, **fields).encode())


def read_record(framed: bytes) -> Optional[Message]:
    """The record a framed one holds (``None`` on damage)."""
    body = unframe_record(framed)
    if body is None:
        return None
    try:
        rec = Message.decode(body)
    except CodecError:
        return None
    return rec if rec.get("_proto") in (REC_DELIVER, REC_VIEW,
                                        REC_GBCAST) else None


class Position:
    """A cut of a group's log: the last view installed, and the
    deliveries of that view at or before it.  Record order in a log is
    monotone in view (leftovers of the old view precede the record of
    the next), so a position cuts the log at a well-defined point."""

    __slots__ = ("view", "delivered")

    def __init__(self, view: int = 0, delivered: Optional[SeqSet] = None):
        self.view = view
        self.delivered = SeqSet() if delivered is None else delivered

    def covers(self, rec: Message) -> bool:
        """Is ``rec`` at or before this position?"""
        if rec["_proto"] == REC_DELIVER and rec["view"] == self.view:
            return (rec["origin"], rec["gseq"]) in self.delivered
        return rec["view"] <= self.view

    def __le__(self, other: "Position") -> bool:
        """Does ``other`` cover every record this position does?"""
        return self.view < other.view or (
            self.view == other.view and self.delivered <= other.delivered)

    def copy(self) -> "Position":
        return Position(self.view, self.delivered.copy())


class GroupWal:
    """Per-group durable log state at one site, with three positions in
    its log: the tail (``live``), the checkpoint (``ck``: replay is its
    segments and the records past it) and the base (``base``: what the
    first record presumes).  Truncation cuts to the previous checkpoint,
    so base trails ck: the retention window a rejoin is served from."""

    def __init__(self, key: str, gid: Address):
        self.key = key
        self.gid = gid
        self.name: str = ""
        #: Log generation: bumped at every join-time rebase.  The
        #: checkpoint blob names the generation it belongs to, making
        #: the ck-write the atomic switch between old and new log.
        self.gen = 0
        self.live, self.ck, self.base = Position(), Position(), Position()
        self.members: Tuple[Address, ...] = ()
        self.delivered_total = 0
        #: Framed records issued to the current-generation log.
        self.records: List[bytes] = []
        self.base_index = 0
        #: Index past the last append known committed on disk.
        self.committed_abs = 0
        self.ck_total = 0
        self.ck_has_state = False
        self.ck_segments: Dict[str, List[bytes]] = {}
        #: Absolute log index the checkpoint was taken at.
        self.ck_abs = 0
        #: Unarmed groups (mid-join) buffer records in memory until the
        #: transfer lands and a rebase makes the log self-contained.
        self.armed = False
        self.pending: List[bytes] = []
        self.ck_inflight = False
        #: True when this state was rebuilt from disk at boot (a usable
        #: rejoin position until the next join rebases it).
        self.recovered = False

    def log_key(self, gen: Optional[int] = None) -> str:
        return f"{_LOG_PREFIX}{self.key}/{self.gen if gen is None else gen}"

    def abs_next(self) -> int:
        return self.base_index + len(self.records)

    def position(self) -> Tuple[int, int]:
        """Election key: (last installed view, deliveries ever logged)."""
        return (self.live.view, self.delivered_total)

    def count_delivery(self, view: int, origin: int, gseq: int) -> None:
        """Advance the live position by one delivery."""
        if view == self.live.view or self.live.view == 0:
            self.live.delivered.add(origin, gseq)
        self.delivered_total += 1


class WalManager:
    """All group WALs of one kernel incarnation, backed by the site disk.

    What it does (``wal.*``, ``checkpoint.*``, ``recovery.*``) is counted
    on ``kernel.counters``, the boot replay in the constructor included;
    ``ProtocolsProcess.stats()`` reads it back from there.
    """

    def __init__(self, kernel: "ProtocolsProcess"):
        self.kernel = kernel
        self.sim = kernel.sim
        self.store = kernel.site.stable
        self.groups: Dict[str, GroupWal] = {}
        self._by_gid: Dict[Address, str] = {}
        #: Positions as recovered at boot, frozen per group name.  The
        #: recovery election votes with these: a winner re-creating the
        #: group must not retroactively change the vote it already cast
        #: (its *live* position restarts at view 1 and would make every
        #: other contender look better mid-election).
        self.boot_positions: Dict[str, Tuple[int, int]] = {}
        self._load()

    # ------------------------------------------------------------------
    # Boot-time replay
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Rebuild in-memory WAL state from whatever the disk holds."""
        gens: Dict[str, List[int]] = {}
        for log_name in self.store.log_names(_LOG_PREFIX):
            key, _, gen_s = log_name[len(_LOG_PREFIX):].rpartition("/")
            try:
                gens.setdefault(key, []).append(int(gen_s))
            except ValueError:
                continue
        keys = set(gens)
        keys |= {name[len(_CK_PREFIX):] for name in self.store.keys(_CK_PREFIX)}
        for key in sorted(keys):
            try:
                gid = Address.unpack(bytes.fromhex(key))
            except Exception:
                continue
            gw = GroupWal(key, gid)
            ck_blob = self.store.read(_CK_PREFIX + key)
            if ck_blob is not None:
                self._apply_ck_blob(gw, ck_blob)
            elif gens.get(key):
                # No checkpoint landed before the crash: the oldest log
                # generation is the authoritative one (a half-built
                # rebase generation without its ck is garbage).
                gw.gen = min(gens[key])
            # Orphan generations (older superseded ones, or a rebase the
            # crash interrupted before its checkpoint committed).
            for gen in gens.get(key, []):
                if gen != gw.gen:
                    self.store.delete_log(gw.log_key(gen))
            raw = self.store.read_log(gw.log_key())
            for framed in raw:
                rec = read_record(framed)
                if rec is None:
                    # Torn/corrupt tail: truncate here — everything
                    # after a damaged record is unordered garbage.
                    self.kernel.counters.bump("recovery.torn_tails")
                    break
                if gw.base.covers(rec):
                    continue  # pre-base leftovers carry no information
                gw.records.append(framed)
                if gw.ck.covers(rec):
                    gw.ck_abs = len(gw.records)
                    continue  # retained to serve rejoining peers; the
                    # checkpoint already captures its effect here
                self._track(gw, rec)
                self.kernel.counters.bump("wal.replayed")
            if len(gw.records) != len(raw):
                # Drop torn tails and pre-base leftovers from the disk
                # log so it mirrors the in-memory record list (indexes
                # must line up for later truncations).
                self.store.replace_log(gw.log_key(), gw.records)
            gw.committed_abs = len(gw.records)
            gw.recovered = bool(gw.records) or gw.ck.view > 0
            self.groups[key] = gw
            self._by_gid[gid] = key
            if gw.name and gw.live.view > 0:
                self.boot_positions[gw.name] = gw.position()

    def _apply_ck_blob(self, gw: GroupWal, blob: bytes) -> None:
        try:
            ck = Message.decode(blob)
            if ck.get("_proto") != "wal.ck":
                raise CodecError("not a checkpoint")
            at = Position(ck["view"], SeqSet.from_entries(ck["delivered"]))
            base = Position(ck["base_view"],
                            SeqSet.from_entries(ck["base_delivered"]))
        except CodecError:
            self.sim.trace.bump("recovery.bad_checkpoints")
            return
        gw.ck, gw.base, gw.live = at, base, at.copy()
        gw.gen = ck["gen"]
        gw.ck_total = gw.delivered_total = ck["total"]
        gw.ck_has_state = ck["has_state"]
        gw.ck_segments = ck["segments"]
        gw.name = ck["name"]
        gw.members = tuple(ck["members"])

    def _track(self, gw: GroupWal, rec: Message) -> None:
        """Advance the live position by one record."""
        if rec["_proto"] == REC_VIEW:
            gw.live = Position(rec["view"])
            gw.members = tuple(rec["members"])
        elif rec["_proto"] == REC_DELIVER:
            gw.count_delivery(rec["view"], rec["origin"], rec["gseq"])
        # G records carry no position beyond their view.

    # ------------------------------------------------------------------
    # Group lookup / arming
    # ------------------------------------------------------------------
    def _group(self, gid: Address) -> GroupWal:
        gid = gid.process()
        key = self._by_gid.get(gid)
        if key is None:
            key = gid.pack().hex()
            self._by_gid[gid] = key
        gw = self.groups.get(key)
        if gw is None:
            gw = GroupWal(key, gid)
            self.groups[key] = gw
        return gw

    def lookup(self, gid: Address) -> Optional[GroupWal]:
        return self.groups.get(self._by_gid.get(gid.process(), ""))

    def arm_create(self, engine: "GroupEngine", process: "IsisProcess",
                   name: str) -> None:
        """A group was minted here: start its log at view 1."""
        gw = self._group(engine.gid)
        view = engine.view
        assert view is not None
        gw.armed = True
        gw.name = name or gw.name
        self._bind_name(gw)
        self._start_log(gw, view, process, old_gen=None)

    def _start_log(self, gw: GroupWal, view, process: "IsisProcess",
                   old_gen: Optional[int]) -> None:
        """The log starts at ``view``: its boundary record, and a
        checkpoint of ``process``'s state there."""
        gw.live, gw.base = Position(view.view_id), Position(view.view_id)
        gw.members = view.members
        self._append(gw, _record(REC_VIEW, view=view.view_id,
                                 members=view.members))
        self._write_checkpoint(gw, capture_segments(process),
                               pos=self._pos_of(gw), old_gen=old_gen)

    def arm_member(self, engine: "GroupEngine",
                   process: "IsisProcess") -> None:
        """A join finished here: make the log self-contained from now.

        The rebase sequence is crash-ordered: records go to a *new*
        generation log (view boundary record, then the deliveries that
        queued behind the joiner gate), and the checkpoint — which
        names the new generation and captures exactly the transferred
        state at the view boundary — flips the durable pointer.  The
        old generation is deleted only after the checkpoint commits, so
        a crash at any instant leaves one consistent (ck, log) pair.
        """
        gw = self._group(engine.gid)
        if gw.armed:
            return  # a second local member joined an armed group
        view = engine.view
        if view is None:
            return
        old_gen: Optional[int] = gw.gen if gw.recovered else None
        gw.armed = True
        gw.gen += 1
        gw.records = []
        gw.base_index = 0
        gw.committed_abs = 0
        gw.recovered = False
        self._resolve_name(gw, engine)
        self._start_log(gw, view, process, old_gen)
        pending, gw.pending = gw.pending, []
        for framed in pending:
            rec = read_record(framed)
            if rec is None:
                continue
            self._append(gw, framed)
            self._track(gw, rec)

    # ------------------------------------------------------------------
    # Hot-path hooks (engine/kernel call these; all no-ops when off)
    # ------------------------------------------------------------------
    def note_deliver(self, engine: "GroupEngine", env: Message,
                     user: Message) -> None:
        gw = self._group(engine.gid)
        framed = _record(REC_DELIVER, view=env["view"], origin=env["origin"],
                         gseq=env["gseq"], user=user)
        if not gw.armed:
            gw.pending.append(framed)
            return
        self._append(gw, framed)
        gw.count_delivery(env["view"], env["origin"], env["gseq"])
        # NOTE: the periodic-checkpoint decision is NOT taken here —
        # the engine calls maybe_checkpoint() after it has submitted
        # this delivery to the CPU queue, so the snapshot task lands
        # behind it (see maybe_checkpoint).

    def note_gbcast(self, engine: "GroupEngine", view_id: int, idx: int,
                    user: Message) -> None:
        gw = self._group(engine.gid)
        framed = _record(REC_GBCAST, view=view_id, idx=idx, user=user)
        if not gw.armed:
            gw.pending.append(framed)
            return
        self._append(gw, framed)

    def note_view(self, engine: "GroupEngine", view) -> None:
        gw = self._group(engine.gid)
        if not gw.armed:
            return  # the arm point writes the boundary record itself
        self._append(gw, _record(REC_VIEW, view=view.view_id,
                                 members=view.members))
        gw.live = Position(view.view_id)
        gw.members = view.members
        if not gw.name:
            self._resolve_name(gw, engine)

    def note_stable_trim(self, engine: "GroupEngine") -> None:
        """The store GC'd a delivered-everywhere prefix: good moment to
        checkpoint (the group provably made durable progress)."""
        gw = self.lookup(engine.gid)
        if gw is None or not gw.armed:
            return
        since_ck = gw.delivered_total - gw.ck_total
        if since_ck >= WAL_TRIM_MIN:
            self._schedule_checkpoint(gw, engine)

    # ------------------------------------------------------------------
    # Appends / checkpoints / truncation
    # ------------------------------------------------------------------
    def _append(self, gw: GroupWal, framed: bytes) -> None:
        gw.records.append(framed)
        self.kernel.counters.bump("wal.appends")
        self.kernel.counters.bump("wal.bytes", len(framed))
        gen = gw.gen
        promise = self.store.append(gw.log_key(), framed)
        promise.add_done_callback(
            lambda p: self._note_committed(gw, gen, p))

    def _note_committed(self, gw: GroupWal, gen: int, promise) -> None:
        if gen == gw.gen and not promise.rejected:
            gw.committed_abs += 1

    def maybe_checkpoint(self, engine: "GroupEngine") -> None:
        """Periodic-checkpoint decision, called by the engine right
        after it dispatched a delivery.  The ordering matters: the
        snapshot task must enter the CPU queue *behind* the delivery
        the log position already counts, and *ahead* of any delivery
        dispatched by a later event — which exactly describes enqueuing
        synchronously here, in the same call stack as the dispatch."""
        gw = self.lookup(engine.gid)
        if gw is None or not gw.armed:
            return
        every = self.kernel.config.wal_checkpoint_every
        if every > 0 and gw.delivered_total - gw.ck_total >= every:
            self._schedule_checkpoint(gw, engine)

    def _pick_state_process(self,
                            engine: "GroupEngine") -> Optional["IsisProcess"]:
        fallback = None
        for member in engine.local_members():
            process = self.kernel.site.process_by_id(member.local_id)
            if process is None or not process.alive:
                continue
            if process.xfer_segments:
                return process
            fallback = fallback or process
        return fallback

    def _pos_of(self, gw: GroupWal) -> dict:
        return {
            "at": gw.live.copy(),
            "members": gw.members,
            "total": gw.delivered_total,
            "abs": gw.abs_next(),
            "gen": gw.gen,
            # The log base this checkpoint leaves behind once its
            # truncation runs: the *previous* checkpoint's position (only
            # ``live`` changes in place, so it alone is copied).
            "base": gw.ck if gw.ck_abs else gw.base,
            "cut_abs": gw.ck_abs,
        }

    def _schedule_checkpoint(self, gw: GroupWal,
                             engine: "GroupEngine") -> None:
        """Checkpoint *through* the local delivery pipeline.

        The log position advances when a delivery is dispatched, but the
        application applies it only after the intra-site hand-off.  A
        snapshot taken synchronously here would lag the log position and
        replay would double-count the in-flight tail.  Routing the
        snapshot through the same cpu-submit + intra-delay path as the
        deliveries themselves guarantees the segments reflect exactly
        the records at or before the captured position.
        """
        if gw.ck_inflight:
            return
        process = self._pick_state_process(engine)
        if process is None:
            return
        gw.ck_inflight = True
        pos = self._pos_of(gw)
        self.kernel.after_local_hop(
            self._deferred_checkpoint, gw, process, pos)

    def _deferred_checkpoint(self, gw: GroupWal, process: "IsisProcess",
                             pos: dict) -> None:
        gw.ck_inflight = False
        if not self.kernel.alive or not process.alive:
            return
        if pos["gen"] != gw.gen:
            return  # a rebase superseded this capture
        self._write_checkpoint(gw, capture_segments(process), pos,
                               old_gen=None)

    def _write_checkpoint(self, gw: GroupWal,
                          segments: Dict[str, List[bytes]],
                          pos: dict, old_gen: Optional[int]) -> None:
        at, base = pos["at"], pos["base"]
        data = Message(
            _proto="wal.ck", gen=pos["gen"], view=at.view,
            members=pos["members"], delivered=at.delivered.entries(),
            total=pos["total"], base_view=base.view,
            base_delivered=base.delivered.entries(),
            has_state=bool(segments), name=gw.name, segments=segments,
        ).encode()
        self.kernel.counters.bump("checkpoint.writes")
        self.kernel.counters.bump("checkpoint.bytes", len(data))
        promise = self.store.write(_CK_PREFIX + gw.key, data)
        promise.add_done_callback(
            lambda p: self._checkpoint_committed(gw, pos, segments,
                                                 old_gen, p))

    def _checkpoint_committed(self, gw: GroupWal, pos: dict,
                              segments: Dict[str, List[bytes]],
                              old_gen: Optional[int], promise) -> None:
        if promise.rejected:
            return
        if old_gen is not None:
            # The rebase is durable: the superseded generation's log is
            # now unreachable garbage.
            self.store.delete_log(gw.log_key(old_gen))
        if pos["gen"] != gw.gen:
            return  # a later rebase superseded this checkpoint
        gw.ck = pos["at"]
        gw.ck_total = pos["total"]
        gw.ck_has_state = bool(segments)
        gw.ck_segments = segments
        gw.ck_abs = pos["abs"]
        # Two-generation truncation: cut the log back to the *previous*
        # checkpoint (pos["cut_abs"]), keeping a retention window of
        # records behind the new one for rejoining peers.  Only the
        # committed prefix is cut — replay dedups any overlap against
        # the checkpoint position, so an early cut is always safe.
        if not gw.ck_has_state:
            return  # without state capture the full log IS the state
        cut = min(pos["cut_abs"], gw.committed_abs)
        if cut <= gw.base_index:
            return
        drop = cut - gw.base_index
        self.store.truncate_log(gw.log_key(), drop)
        del gw.records[:drop]
        gw.base_index = cut
        gw.base = pos["base"]
        self.kernel.counters.bump("wal.truncations")

    # ------------------------------------------------------------------
    # Naming (for total-failure restore, which starts from a name)
    # ------------------------------------------------------------------
    def _resolve_name(self, gw: GroupWal, engine: "GroupEngine") -> None:
        name = engine.name
        if not name:
            for cand, gid in self.kernel.namespace.entries().items():
                if gid.process() == engine.gid.process():
                    name = cand
                    break
        if name:
            gw.name = name
            self._bind_name(gw)

    def _bind_name(self, gw: GroupWal) -> None:
        if not gw.name:
            return
        # The name is live again at this site: the recovery-election
        # epoch its frozen boot position served is over.
        self.boot_positions.pop(gw.name, None)
        key = _NAME_PREFIX + gw.name
        old = self.store.read(key)
        if old is not None and old.hex() != gw.key:
            # The name now maps to a new group id (e.g. re-created after
            # a total failure): the old log is garbage — reclaim it.
            self._forget(old.hex())
        self.store.write(key, bytes.fromhex(gw.key))

    def _forget(self, key: str) -> None:
        gw = self.groups.pop(key, None)
        if gw is not None:
            self._by_gid.pop(gw.gid, None)
        for log_name in self.store.log_names(_LOG_PREFIX + key + "/"):
            self.store.delete_log(log_name)
        self.store.delete(_CK_PREFIX + key)

    # ------------------------------------------------------------------
    # Rejoin hints + log-assisted transfer
    # ------------------------------------------------------------------
    def rejoin_hint(self, gid: Address) -> Optional[Tuple[int, list]]:
        """Position to piggyback on ``g.join``: (view, delivered entries).

        Only offered when the local log is *replayable* — a checkpoint
        with captured state exists, so the joining process can rebuild
        its pre-crash state locally and needs just the suffix.
        """
        gw = self.lookup(gid)
        if gw is None or gw.live.view <= 0 or not gw.ck_has_state:
            return None
        return (gw.live.view, gw.live.delivered.entries())

    def build_suffix(self, gid: Address, view: int,
                     delivered: SeqSet) -> Optional[List[bytes]]:
        """Records (unframed) this site holds past the joiner's position.

        ``None`` when our own log does not reach back far enough (its
        base position presumes something the joiner lacks): the caller
        falls back to a full snapshot.
        """
        gw = self.lookup(gid)
        if gw is None or not gw.armed:
            return None
        joiner = Position(view, delivered)
        if not gw.base <= joiner:
            return None
        return [rec.encode() for rec in map(read_record, gw.records)
                if rec is not None and not joiner.covers(rec)]

    def replay_to(self, gid: Address, process: "IsisProcess") -> int:
        """Rebuild ``process`` from the local checkpoint + log."""
        gw = self.lookup(gid)
        if gw is None:
            return 0
        return self._apply(gw, process)

    def absorb_suffix(self, gid: Address, suffix: List[tuple],
                      process: "IsisProcess") -> int:
        """Apply a source's suffix records (as their rows read them) to
        the rejoining process.

        The records are not re-logged here: the join finishing right
        after this rebases the log anyway (view boundary record + a
        checkpoint that captures their combined effect).
        """
        return self._replay(process, [record[0] for record in suffix])

    def _apply(self, gw: GroupWal, process: "IsisProcess") -> int:
        apply_segments(process, gw.ck_segments)
        # A retention-window record is skipped: the segments have it.
        return self._replay(process, map(read_record, gw.records),
                            gw.ck.covers)

    def _replay(self, process: "IsisProcess", records,
                covered=lambda rec: False) -> int:
        """Deliver ``records``' D and G records not ``covered`` to
        ``process``; how many were."""
        applied = 0
        for rec in records:
            if rec is None or covered(rec) or rec["_proto"] == REC_VIEW:
                continue
            user = rec["user"]
            user["_replay"] = True
            self.kernel.counters.bump("wal.replayed")
            process.deliver(user)
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Total-failure restore (paper §5: last process to fail restarts)
    # ------------------------------------------------------------------
    def logged_position(self, group_name: str) -> Optional[Tuple[int, int]]:
        """The (view, deliveries) election key for a named group, or
        ``None`` when this site never logged it (the explicit no-log
        marker the recovery poll's comparison needs)."""
        pos = self.boot_positions.get(group_name)
        if pos is not None:
            return pos
        gw = self._named(group_name)
        if gw is None or gw.live.view <= 0:
            return None
        return gw.position()

    def restore(self, process: "IsisProcess", group_name: str) -> Optional[int]:
        """Rebuild ``process`` from the named group's checkpoint + log.

        Returns the number of replayed deliveries, or ``None`` when no
        log exists.  The caller then re-creates the group (fresh gid)
        and late losers rejoin it through the normal join flush.
        """
        gw = self._named(group_name)
        if gw is None:
            return None
        self.kernel.counters.bump("recovery.total_restarts")
        return self._apply(gw, process)

    def _named(self, group_name: str) -> Optional[GroupWal]:
        raw = self.store.read(_NAME_PREFIX + group_name)
        if raw is not None:
            gw = self.groups.get(raw.hex())
            if gw is not None:
                return gw
        for gw in self.groups.values():
            if gw.name == group_name:
                return gw
        return None
