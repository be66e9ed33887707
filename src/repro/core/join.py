"""Joins, leaves and state transfer at one kernel (§3.8, §5).

A join request (``g.join``) reaches the group's coordinator through any
member site.  The admitting flush names a *source* member, whose site
ships the joiner its state (``st.data``): a snapshot of the source
process's transfer segments, or the log suffix a rejoining site missed,
as ``st.chunk``s on the bulk channel when large.  Until then the joiner
is *gated*: deliveries to it are held.  A leave (``g.leave``) and a dead
local member (``g.dead``) are removal requests to the coordinator.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Set, Tuple)

from ..errors import CodecError, JoinRefused, SiteDown
from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Timer
from ..sim.tasks import Promise
from .flush import FlushReason

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.process import IsisProcess
    from .engine import GroupEngine
    from .kernel import ProtocolsProcess
    from .view import View

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


def capture_segments(process: "IsisProcess") -> Dict[str, List[bytes]]:
    """``process``'s state: each registered transfer segment's blocks."""
    return {name: [bytes(block) for block in encoder()]
            for name, (encoder, _decoder) in process.xfer_segments.items()}


def apply_segments(process: "IsisProcess",
                   segments: Dict[str, Iterable[bytes]]) -> None:
    """Hand each segment of captured state to the decoder ``process``
    registered for it; a segment it did not register is skipped."""
    decoders = process.xfer_segments
    for name, blocks in segments.items():
        entry = decoders.get(name)
        if entry is not None:
            entry[1]([bytes(block) for block in blocks])


class _JoinState:
    __slots__ = ("process", "gid", "credentials", "promise", "timer",
                 "transfer_timer", "tried", "stream_xid",
                 "stream_buf", "hint")

    def __init__(self, process: "IsisProcess", gid: Address, credentials: Any,
                 promise: Promise):
        self.process = process
        self.gid = gid
        self.credentials = credentials
        self.promise = promise
        self.timer: Optional[Timer] = None
        self.transfer_timer: Optional[Timer] = None
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


class Joins:
    """Owns the joins in flight here and their retry timers, the gates,
    the join validators, the rejoin positions held for the admitting
    flush, the outgoing ``st.chunk`` streams and the leave waiters."""

    def __init__(self, kernel: "ProtocolsProcess",
                 read_state: Callable[[Message], tuple]):
        self.kernel = kernel
        self.sim = kernel.sim
        self.site_id = kernel.site_id
        self.counters = kernel.counters
        #: The ``st.data`` reader: a reassembled stream is parsed by it.
        self._read_state = read_state
        #: Joins in flight from this kernel's processes, by group.
        self.pending: Dict[Address, _JoinState] = {}
        #: Joiner -> deliveries held until its state arrives.
        self.gated: Dict[Address, List[Message]] = {}
        self._validators: Dict[Address, List[Callable]] = {}
        #: Rejoin positions piggybacked on ``g.join``, held at the
        #: coordinator/source site until the admitting flush ships state.
        self._hints: Dict[Tuple[Address, Address], Tuple[int, bytes]] = {}
        #: Outgoing join-snapshot streams: (gid, joiner process) -> state.
        self.streams: Dict[Tuple[Address, Address], Dict[str, Any]] = {}
        self._next_xfer_id = 1
        self._leave_waiters: Dict[Tuple[Address, Address], Promise] = {}

    def shutdown(self) -> None:
        # Join attempts in flight: their retry/transfer timers would
        # otherwise fire into a dead kernel.
        for state in self.pending.values():
            state.disarm()
            if not state.promise.done:
                state.promise.reject(
                    SiteDown(f"site {self.site_id} is down"))
        self.pending.clear()
        # Outbound state-transfer streams: close the bulk connections so
        # receivers see a reset instead of a silent stall.
        for stream in self.streams.values():
            stream["conn"].close()
        self.streams.clear()

    def member_died(self, process: "IsisProcess") -> None:
        """A joiner that dies mid state-transfer: drop its gated traffic
        and pending join bookkeeping cleanly."""
        self.gated.pop(process.address.process(), None)
        for gid, state in list(self.pending.items()):
            if state.process is process:
                state.disarm()
                del self.pending[gid]

    def on_sites_departed(self, departed: Set[int]) -> None:
        """Streams to a departed site die with it."""
        for key, stream in list(self.streams.items()):
            if stream["site"] in departed:
                self._abort_state_stream(key[0], key[1])

    # -- joining -----------------------------------------------------------
    def join_group(self, process: "IsisProcess", gid: Address,
                   credentials: Any = None) -> Promise:
        """Request membership; resolves with the first view we appear in."""
        self.sim.trace.bump("tool.pg_join")
        key = gid.process()
        promise = Promise(label=f"pg_join({gid})")
        state = _JoinState(process, key, credentials, promise)
        wal = self.kernel.wal
        if wal is not None and key not in self.kernel.engines:
            # A true rejoin (no live engine here): offer our replayed
            # log position so the source can ship just the suffix.
            state.hint = wal.rejoin_hint(key)
        self.pending[key] = state
        # Gate deliveries to the joiner until its state arrives.
        self.gated.setdefault(process.address.process(), [])
        self._send_join_request(state)
        return promise

    def register_join_validator(self, gid: Address,
                                validator: Callable) -> None:
        """pg_join_verify: user routine validating join requests (§3.10)."""
        self._validators.setdefault(gid.process(), []).append(validator)

    def _send_join_request(self, state: _JoinState) -> None:
        if state.promise.done or not self.kernel.alive:
            return
        # Any member site forwards the request to the acting coordinator.
        contact = self.kernel.rpc.pick_contact(state.tried, state.gid)
        request = Message(
            _proto="g.join", gid=state.gid,
            joiner=state.process.address.process(),
            cred=state.credentials,
        )
        if state.hint is not None:
            request["wal_view"] = state.hint[0]
            request["wal_dlv"] = state.hint[1]
        self.kernel.send_to_site(contact, request)
        state.timer = self.sim.call_after(
            JOIN_RETRY, self._send_join_request, state)

    def _on_join_request(self, src_site: int, record: tuple) -> None:
        msg, gid, joiner, cred, wal_view, wal_dlv = record
        kernel = self.kernel
        engine = kernel.coordinating_engine(gid, msg)
        if engine is None:
            if kernel.current_view(gid) is None:   # not relayed: no group here
                kernel.send_to_site(joiner.site, Message(
                    _proto="g.fwd.nak", gid=gid, session=-1,
                    hint=kernel.contact_cache.get(gid.process()),
                ))
            return
        if engine.view.contains(joiner):
            # Already a member (duplicate request): re-welcome.
            self.welcome(engine, engine.view, [joiner], False)
            return
        for validator in self._validators.get(gid.process(), []):
            if not validator(joiner, cred):
                self.sim.trace.bump("protection.joins_refused")
                kernel.send_to_site(joiner.site, Message(
                    _proto="g.join.refused", gid=gid, joiner=joiner))
                return
        if kernel.wal is not None and wal_dlv is not None:
            self._hints[(gid.process(), joiner.process())] = (
                wal_view or 0, wal_dlv)
        engine.enqueue_reason(FlushReason(kind="join", joiner=joiner))

    def _on_join_refused(self, src_site: int, record: tuple) -> None:
        _, gid, _joiner = record
        state = self.pending.pop(gid.process(), None)
        if state is not None:
            state.disarm()
            self._release_gate(state.process.address, deliver=False)
            state.promise.reject(JoinRefused(f"join to {gid} refused"))

    def welcome(self, engine: "GroupEngine", view: "View",
                joiners: List[Address], transfer: bool) -> None:
        """The coordinator committed ``view``: welcome its joiners."""
        for joiner in joiners:
            self.kernel.send_to_site(joiner.site, Message(
                _proto="g.welcome", gid=engine.gid,
                view=view.to_value(), transfer=transfer,
            ))

    def _on_welcome(self, src_site: int, record: tuple) -> None:
        _, gid, view, transfer = record
        kernel = self.kernel
        engine = kernel.engine_for(gid, create=True)
        assert engine is not None
        if not engine.installed:
            # Counted first: installing drains held envelopes, whose
            # deliveries re-evaluate contexts in other groups.
            kernel.causal_check.note_install()
            engine.install_from_welcome(view)
        kernel.contact_cache[gid.process()] = view.coordinator().site
        state = self.pending.get(gid.process())
        if state is None:
            return
        state.disarm()
        for member in view.members_at(self.site_id):
            kernel.watch_member(engine, member)
        if transfer:
            state.transfer_timer = self.sim.call_after(
                TRANSFER_RETRY, self._rerequest_state, state)
        else:
            self._finish_join(state, view)

    def _finish_join(self, state: _JoinState, view: "View") -> None:
        self.pending.pop(state.gid, None)
        state.disarm()
        wal = self.kernel.wal
        if wal is not None:
            # Arm before the gate opens: the checkpoint written here
            # captures exactly the transferred state, and the gated
            # deliveries (already buffered as pending records) land in
            # the log after it — replay order matches delivery order.
            engine = self.kernel.engines.get(state.gid)
            if engine is not None:
                wal.arm_member(engine, state.process)
        self._release_gate(state.process.address, deliver=True)
        self.sim.call_after(self.kernel.site.local_hop_delay,
                            state.promise.resolve, view)

    def _release_gate(self, member: Address, deliver: bool) -> None:
        queued = self.gated.pop(member.process(), [])
        if not deliver:
            return
        process = self.kernel.site.process_by_id(member.local_id)
        if process is None or not process.alive:
            return
        for msg in queued:
            self.kernel.after_local_hop(process.deliver, msg)

    # -- a view installed: leavers, joiners' state -------------------------
    def release_leavers(self, gid: Address, removed: List[Address]) -> None:
        """Resolve the local leave waiters of the members ``removed``."""
        for member in removed:
            waiter = self._leave_waiters.pop((gid, member.process()), None)
            if waiter is not None and not waiter.done:
                waiter.resolve(None)

    def on_view_installed(self, engine: "GroupEngine",
                          removed: List[Address], joiners: List[Address],
                          transfer: Optional[bool],
                          source: Optional[Address]) -> None:
        """The designated source ships state to every joiner the flush
        admitted (one shared snapshot encode); a member removed dies with
        its snapshot stream."""
        gid = engine.gid
        if (joiners and transfer and source is not None
                and source.site == self.site_id):
            self._send_state(engine, source, joiners)
        # Stale rejoin hints (transfer-less admission, or a source at
        # another site consumed its own copy) must not leak.
        if self._hints:
            for joiner in joiners:
                self._hints.pop((gid, joiner.process()), None)
        for member in removed:
            self._abort_state_stream(gid, member.process())
        # A leave the old coordinator took down with it: ask the new one.
        for leave_gid, member in list(self._leave_waiters):
            if leave_gid == gid and engine.view.contains(member):
                self._ask_to_leave(engine, member)

    # -- state transfer: the source side -----------------------------------
    def _send_state(self, engine: "GroupEngine", source: Address,
                    joiners: List[Address]) -> None:
        process = self.kernel.site.process_by_id(source.local_id)
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
        self.kernel.after_local_hop(self._encode_and_send_snapshot, engine,
                                    process, pending, suffix_sizes)

    def _encode_and_send_snapshot(self, engine: "GroupEngine",
                                  process: "IsisProcess",
                                  joiners: List[Address],
                                  suffix_sizes: List[int]) -> None:
        if not self.kernel.alive or not process.alive:
            return  # the flush removing us will trigger a re-request
        if self.kernel.engines.get(engine.gid.process()) is not engine:
            return
        payload = Message(_proto="st.data", gid=engine.gid,
                          segments=capture_segments(process))
        if self.kernel.wal is not None:
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

    def _send_log_suffix(self, engine: "GroupEngine",
                         joiner: Address) -> Optional[int]:
        """Log-assisted transfer: ship only the records the rejoining
        site is missing, when its piggybacked position is still covered
        by our own log.  Returns the suffix payload size, or ``None``
        to fall back to the snapshot (durability off, no hint, or our
        checkpoint already truncated past the joiner's position)."""
        wal = self.kernel.wal
        if wal is None:
            return None
        hint = self._hints.pop((engine.gid.process(), joiner.process()), None)
        if hint is None:
            return None
        suffix = wal.build_suffix(engine.gid, hint[0], hint[1])
        if suffix is None:
            return None
        payload = Message(_proto="st.data", gid=engine.gid,
                          wal_suffix=suffix)
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
            self.kernel.send_to_site(joiner.site, payload)

    def _start_state_stream(self, gid: Address, joiner: Address,
                            data: bytes) -> None:
        key = (gid.process(), joiner.process())
        previous = self.streams.get(key)
        if previous is not None:
            # A restarted stream abandons the old connection; its
            # in-flight chunks must not be delivered (connection reset).
            previous["conn"].close()
        conn = self.kernel.site.open_bulk_stream(joiner.site)
        if conn is None:
            return
        xid = self._next_xfer_id
        self._next_xfer_id += 1
        chunks = [data[i:i + TRANSFER_CHUNK_BYTES]
                  for i in range(0, len(data), TRANSFER_CHUNK_BYTES)]
        self.streams[key] = {
            "xid": xid, "chunks": chunks, "idx": 0, "site": joiner.site,
            "conn": conn,
        }
        self.sim.trace.bump("state_transfer.streams")
        self._send_next_chunk(key, xid)

    def _send_next_chunk(self, key: Tuple[Address, Address],
                         xid: int) -> None:
        stream = self.streams.get(key)
        if stream is None or stream["xid"] != xid or not self.kernel.alive:
            return
        idx = stream["idx"]
        chunks = stream["chunks"]
        note = Message(_proto="st.chunk", gid=key[0], xid=xid,
                       idx=idx, n=len(chunks), data=chunks[idx])
        self.counters.bump("state_transfer.chunks")
        self.counters.bump("state_transfer.stream_bytes", len(chunks[idx]))
        promise = stream["conn"].send(note.encode())

        def sent(p: Promise) -> None:
            stream_now = self.streams.get(key)
            if stream_now is None or stream_now["xid"] != xid:
                return  # aborted or restarted meanwhile
            if p.rejected:
                self._abort_state_stream(key[0], key[1])
                return
            stream_now["idx"] += 1
            if stream_now["idx"] >= len(stream_now["chunks"]):
                self.streams.pop(key, None)
            else:
                self._send_next_chunk(key, xid)

        promise.add_done_callback(sent)

    def _abort_state_stream(self, gid: Address, joiner: Address) -> None:
        """Joiner died or left mid-stream: stop shipping its snapshot."""
        stream = self.streams.pop((gid.process(), joiner.process()), None)
        if stream is not None:
            stream["conn"].close()
            self.counters.bump("state_transfer.streams_aborted")

    def _on_state_rerequest(self, src_site: int, record: tuple) -> None:
        msg, gid, joiner = record
        engine = self.kernel.coordinating_engine(gid, msg)
        if engine is None:
            return
        source = engine.view.coordinator()
        self.kernel.send_to_site(source.site, Message(
            _proto="st.send", gid=gid, joiner=joiner, source=source))

    def _on_state_send_order(self, src_site: int, record: tuple) -> None:
        _, gid, joiner, source = record
        engine = self.kernel.engines.get(gid.process())
        if engine is not None:
            self._send_state(engine, source, [joiner])

    # -- state transfer: the joiner side -----------------------------------
    def _on_state_chunk(self, src_site: int, record: tuple) -> None:
        _, gid, xid, idx, n, data = record
        state = self.pending.get(gid.process())
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
        self._on_state_data(src_site, self._read_state(payload))

    def _on_state_data(self, src_site: int, record: tuple) -> None:
        _, gid, segments, records = record
        state = self.pending.get(gid.process())
        wal = self.kernel.wal
        # A log suffix answers a join that offered a log position, which
        # only a kernel with a WAL does.
        if state is None or (records is not None and wal is None):
            return
        process = state.process
        if records is not None:
            # Log-assisted rejoin: rebuild the pre-crash state from our
            # own checkpoint + replayed log, then apply the records the
            # source says we missed.  Both replays run synchronously so
            # the arm-time checkpoint in _finish_join sees the result.
            wal.replay_to(gid, process)
            wal.absorb_suffix(gid, records, process)
            self.counters.bump("recovery.rejoins")
        else:
            try:
                apply_segments(process, segments)
            except CodecError:
                # A segment its decoder refuses: the join's re-request
                # loop fetches the state again.
                self.sim.trace.bump("state_transfer.bad_stream")
                return
        engine = self.kernel.engines.get(gid.process())
        view = engine.view if engine is not None else None
        if view is not None:
            self._finish_join(state, view)

    def _rerequest_state(self, state: _JoinState) -> None:
        """The transfer source may have died: ask the coordinator again."""
        if state.promise.done or not self.kernel.alive:
            return
        contact = self.kernel.contact_cache.get(state.gid, state.gid.site)
        self.kernel.send_to_site(contact, Message(
            _proto="st.req", gid=state.gid,
            joiner=state.process.address.process(),
        ))
        state.transfer_timer = self.sim.call_after(
            TRANSFER_RETRY, self._rerequest_state, state)

    # -- leaving -----------------------------------------------------------
    def leave_group(self, process: "IsisProcess", gid: Address) -> Promise:
        self.sim.trace.bump("tool.pg_leave")
        key = gid.process()
        member = process.address.process()
        promise = Promise(label=f"pg_leave({gid})")
        engine = self.kernel.engines.get(key)
        if engine is None or engine.view is None or not engine.view.contains(member):
            promise.resolve(None)
            return promise
        self._leave_waiters[(key, member)] = promise
        self._ask_to_leave(engine, member)
        return promise

    def _ask_to_leave(self, engine: "GroupEngine", member: Address) -> None:
        """Ask the view's coordinator to remove ``member``."""
        if engine.is_coordinator_site():
            engine.enqueue_reason(FlushReason(kind="remove",
                                              removals=(member,)))
        else:
            self.kernel.send_to_site(engine.view.coordinator().site, Message(
                _proto="g.leave", gid=engine.gid, member=member))

    def _on_leave_request(self, src_site: int, record: tuple) -> None:
        msg, gid, member = record
        engine = self.kernel.coordinating_engine(gid, msg)
        if engine is not None:
            engine.enqueue_reason(FlushReason(kind="remove",
                                              removals=(member,)))

    def _on_member_dead_notice(self, src_site: int, record: tuple) -> None:
        _, gid, member = record
        engine = self.kernel.engines.get(gid.process())
        if engine is not None and engine.is_coordinator_site():
            engine.enqueue_reason(FlushReason(kind="remove",
                                              removals=(member,)))
