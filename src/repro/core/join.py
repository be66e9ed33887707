"""Joins, leaves and state transfer at one kernel (§3.8, §5).

A join (``g.join``) and a leave (``g.leave``) are requests to the
group's coordinator, sent and re-sent by the one request rule of
:mod:`.rpc` until their commit notice: the joiner's state, a view
without the leaver.  Both are idempotent on the view, so a retry needs
no record.  The admitting flush names a *source* member, whose site
ships the joiner its state (``st.data``): a snapshot of the source
process's transfer segments, or the log suffix a rejoining site missed,
as ``st.chunk``s on the bulk channel when large.  Until then the joiner
is *gated*: deliveries to it are held.  A retry from a joiner the group
admitted is welcomed again, and the coordinator ships the state itself
unless a stream to the joiner is on its way.  A local member that dies
is removed by the request a leave makes.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Set, Tuple)

from ..errors import CodecError, JoinRefused, SiteDown
from ..msg.address import Address
from ..msg.message import Message
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
    __slots__ = ("process", "gid", "promise", "stream_xid", "stream_buf")

    def __init__(self, process: "IsisProcess", gid: Address,
                 promise: Promise):
        self.process = process
        self.gid = gid
        self.promise = promise
        #: Streaming state transfer reassembly.
        self.stream_xid: Optional[int] = None
        self.stream_buf: List[bytes] = []


class Joins:
    """Owns the joins in flight here, the gates,
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
        for state in self.pending.values():
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
                del self.pending[gid]
                self.kernel.rpc.settle(("g.join", gid))

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
        state = self.pending[key] = _JoinState(process, key, promise)
        request = Message(_proto="g.join", gid=key,
                          joiner=process.address.process(), cred=credentials)
        wal = self.kernel.wal
        hint = wal.rejoin_hint(key) if wal is not None \
            and key not in self.kernel.engines else None
        if hint is not None:
            # A true rejoin (no live engine here): offer our replayed
            # log position so the source can ship just the suffix.
            request["wal_view"], request["wal_dlv"] = hint
        # Gate deliveries to the joiner until its state arrives.
        self.gated.setdefault(process.address.process(), [])
        self.kernel.rpc.request(("g.join", key), key, request,
                                lambda error: self._abandon(state, error))
        return promise

    def register_join_validator(self, gid: Address,
                                validator: Callable) -> None:
        """pg_join_verify: user routine validating join requests (§3.10)."""
        self._validators.setdefault(gid.process(), []).append(validator)

    def _on_join_request(self, src_site: int, record: tuple) -> None:
        msg, gid, joiner, cred, wal_view, wal_dlv = record
        kernel = self.kernel
        engine = kernel.coordinating_engine(gid, msg, src_site)
        if engine is None:
            return
        if engine.view.contains(joiner):
            # A retry from a member: its welcome or its state was lost.
            if (gid.process(), joiner.process()) not in self.streams:
                self.welcome(engine, engine.view, [joiner], True)
                self._send_state(engine, engine.acting_coordinator(),
                                 [joiner])
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
        engine.flush.enqueue_reason(FlushReason(kind="join", joiner=joiner))

    def _on_join_refused(self, src_site: int, record: tuple) -> None:
        _, gid, _joiner = record
        state = self.pending.get(gid.process())
        if state is not None:
            self.kernel.rpc.settle(("g.join", state.gid))
            self._abandon(state, JoinRefused(f"join to {gid} refused"))

    def _abandon(self, state: _JoinState, error: Exception) -> None:
        """The join failed: drop it, its gated traffic, reject it."""
        if self.pending.get(state.gid) is state:
            del self.pending[state.gid]
            self._release_gate(state.process.address, deliver=False)
            state.promise.reject(error)

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
        for member in view.members_at(self.site_id):
            kernel.watch_member(engine, member)
        if not transfer:
            self._finish_join(state, view)

    def _finish_join(self, state: _JoinState, view: "View") -> None:
        self.pending.pop(state.gid, None)
        self.kernel.rpc.settle(("g.join", state.gid))
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
            self.kernel.rpc.settle(("g.leave", gid, member.process()))
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

    # -- state transfer: the source side -----------------------------------
    def _send_state(self, engine: "GroupEngine", source: Address,
                    joiners: List[Address]) -> None:
        process = self.kernel.site.process_by_id(source.local_id)
        if process is None or not process.alive:
            return  # the joiner's retry reaches the next coordinator
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
            return  # the joiner's retry reaches the next coordinator
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

    # -- state transfer: the joiner side -----------------------------------
    def _on_state_chunk(self, src_site: int, record: tuple) -> None:
        _, gid, xid, idx, n, data = record
        state = self.pending.get(gid.process())
        if state is None:
            return  # join finished or abandoned; drop the orphan chunk
        if state.stream_xid != xid:
            # A restarted stream (source death, a retry): reset.
            state.stream_xid = xid
            state.stream_buf = []
        if idx != len(state.stream_buf):
            # Bulk chunks are chained sequentially, so a gap means the
            # stream restarted out from under us: wait for the retry.
            state.stream_buf = []
            state.stream_xid = None
            return
        state.stream_buf.append(data)
        if idx + 1 < n:
            return
        blob = b"".join(state.stream_buf)
        state.stream_buf = []
        state.stream_xid = None
        try:
            payload = Message.decode(blob)
        except CodecError:
            self.sim.trace.bump("state_transfer.bad_stream")
            return  # the join's retry fetches the state again
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
                # A segment its decoder refuses: the join's retry
                # fetches the state again.
                self.sim.trace.bump("state_transfer.bad_stream")
                return
        engine = self.kernel.engines.get(gid.process())
        view = engine.view if engine is not None else None
        if view is not None:
            self._finish_join(state, view)

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
        self.request_removal(key, member)
        return promise

    def request_removal(self, gid: Address, member: Address) -> None:
        """Ask ``gid``'s coordinator to remove ``member``: a leave, or a
        local member that died.  With no live site hosting the group,
        there is nothing left to leave."""
        self.kernel.rpc.request(
            ("g.leave", gid, member), gid,
            Message(_proto="g.leave", gid=gid, member=member),
            lambda _error: self.release_leavers(gid, [member]))

    def _on_leave_request(self, src_site: int, record: tuple) -> None:
        msg, gid, member = record
        engine = self.kernel.coordinating_engine(gid, msg, src_site)
        if engine is not None:
            engine.flush.enqueue_reason(FlushReason(kind="remove",
                                                    removals=(member,)))

