"""Real-socket transport for the asyncio driver.

Two classes mirror the simulator's network substrate over real sockets:

* :class:`UdpTransport` is the real-wire adapter of
  :class:`repro.net.reliable.ReliableEndpoint`, the one reliable FIFO
  protocol the simulator's :class:`repro.net.transport.Transport` runs
  too.  It adds the wire: frames travel as UDP datagrams (binary codec
  in ``net/packet.py``), bundled per destination per event-loop tick,
  with optional fault injection.  Raw frames (heartbeats) share the
  bundle and stay fire-and-forget so a lost probe looks like silence.

* :class:`TcpBulk` plays the role of :class:`repro.net.bulk.BulkChannel`:
  the chunks of a large joiner-state stream travel over an asyncio TCP
  connection, each acknowledged by the receiver only after the site's
  bulk handler has consumed it.

Syscall batching: frames queued to one destination within a single
event-loop tick are bundled into as few datagrams as fit
``BUNDLE_BYTES`` — one ``sendto`` per bundle instead of one per frame.
ACKs enter the same per-tick buffer, so they piggyback on data bundles
for free.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from ..errors import NetworkError, SiteDown
from ..sim.tasks import Promise
from .packet import (
    DATAGRAM_HEADER_BYTES,
    FRAME_WIRE_HEADER_BYTES,
    KIND_ACK,
    MAX_FRAMES_PER_DATAGRAM,
    Frame,
    decode_datagram,
    encode_datagram,
)
from .reliable import ReliableEndpoint


@dataclass
class UdpFaults:
    """Packet fault injection on the real wire (localhost loses nothing,
    so without it the retransmit path only exercises under overload).

    Each outgoing datagram is independently dropped / duplicated /
    delayed past its successors with the given probabilities, from a
    per-site seeded schedule — deterministic for a fixed
    ``(fault_seed, site)`` pair.
    """

    loss_rate: float = 0.0       # drop the datagram entirely
    dup_rate: float = 0.0        # send it twice
    reorder: float = 0.0         # hold it so later datagrams overtake it
    fault_seed: int = 0          # deterministic fault schedule


#: How long a datagram picked by ``UdpFaults.reorder`` is held back.
REORDER_DELAY = 0.02


class UdpTransport(ReliableEndpoint):
    """One site's real-socket endpoint: reliable ordered byte messages.

    Parameters
    ----------
    scheduler:
        The asyncio-backed :class:`~repro.runtime.driver.Scheduler`
        (must expose ``.loop``).
    sock:
        A bound, non-blocking UDP socket owned by this transport.
    peers:
        Live mapping ``site_id -> (host, port)``; looked up per send so
        endpoints registered after construction are picked up.
    """

    #: The datagram counters beside the core's.  Here ``frames_sent``
    #: counts every frame handed to ``sendto``, ACK and raw included, and
    #: an ACK that joined a bundle already queued is not ``acks_pure``.
    COUNTERS = ReliableEndpoint.COUNTERS + (
        "acks_piggybacked",
        "datagrams_sent", "datagrams_received", "datagram_bytes_sent",
        "send_errors", "faults_lost", "faults_duped", "faults_reordered")

    #: Payload bytes a fragment: one fits a datagram.
    MTU = 1200
    RTO = 0.05
    MAX_RTO = 2.0

    def __init__(self, scheduler: Any, site_id: int, epoch: int,
                 sock: socket.socket, peers: Mapping[int, Tuple[str, int]],
                 on_message: Callable[[int, bytes], None],
                 faults: Optional[UdpFaults] = None):
        super().__init__(scheduler, site_id, epoch, on_message)
        self.loop: asyncio.AbstractEventLoop = scheduler.loop
        self._sock = sock
        self._peers = peers
        #: Per-destination frames awaiting the end-of-tick bundle flush.
        self._out: Dict[int, List[Frame]] = {}
        self.faults = faults = faults or UdpFaults()
        self._fault_rng: Optional[random.Random] = None
        if faults.loss_rate > 0 or faults.dup_rate > 0 or faults.reorder > 0:
            self._fault_rng = random.Random(
                (faults.fault_seed << 16) ^ (site_id * 2654435761))
        self.loop.add_reader(self._sock.fileno(), self._on_readable)

    # bench/trace.py wraps ``vars(UdpTransport)["send"]``: it must be
    # named in this class body, not only inherited.
    send = ReliableEndpoint.send

    # -- frames leaving: datagram bundling ---------------------------------
    def _wire(self, frame: Frame) -> None:
        """Queue a frame for the wire; bundle per destination per tick."""
        dst_site = frame.dst_site
        out = self._out.get(dst_site)
        if frame.kind == KIND_ACK:
            # ACK frames enter the same per-tick bundle as data frames, so
            # under bidirectional traffic they ride data datagrams for free.
            if out is None:
                self.acks_pure += 1
            else:
                self.acks_piggybacked += 1
        if out is not None:
            out.append(frame)   # this tick's flush is already scheduled
            return
        self._out[dst_site] = [frame]
        self.loop.call_soon(self._flush_dst, dst_site)

    def _flush_dst(self, dst_site: int) -> None:
        frames = self._out.pop(dst_site, None)
        if not frames or not self._alive:
            return
        addr = self._peers.get(dst_site)
        if addr is None:
            return  # unknown peer: behaves like loss (retransmit retries)
        batch: List[Frame] = []
        size = DATAGRAM_HEADER_BYTES
        for frame in frames:
            frame_size = FRAME_WIRE_HEADER_BYTES + len(frame.payload)
            if batch and (size + frame_size > BUNDLE_BYTES
                          or len(batch) >= MAX_FRAMES_PER_DATAGRAM):
                self._send_datagram(batch, addr)
                batch = []
                size = DATAGRAM_HEADER_BYTES
            batch.append(frame)
            size += frame_size
        if batch:
            self._send_datagram(batch, addr)

    def _send_datagram(self, frames: List[Frame], addr: Tuple[str, int]) -> None:
        data = encode_datagram(frames)
        rng = self._fault_rng
        if rng is not None:
            if rng.random() < self.faults.loss_rate:
                self.faults_lost += 1
                return  # vanished on the wire; retransmits recover
            if rng.random() < self.faults.reorder:
                # Held back while its successors go out: arrives late and
                # out of order, exercising the receive-window reassembly.
                self.faults_reordered += 1
                self.clock.post(
                    REORDER_DELAY, self._raw_send, data, addr, len(frames))
                return
            if rng.random() < self.faults.dup_rate:
                self.faults_duped += 1
                self._raw_send(data, addr, len(frames))
        self._raw_send(data, addr, len(frames))

    def _raw_send(self, data: bytes, addr: Tuple[str, int],
                  nframes: int) -> None:
        if not self._alive:
            return
        try:
            self._sock.sendto(data, addr)
        except OSError:
            # Treated as loss: the retransmit machinery recovers data
            # frames; raw frames are allowed to vanish.
            self.send_errors += 1
            return
        self.datagrams_sent += 1
        self.datagram_bytes_sent += len(data)
        self.frames_sent += nframes

    # -- frames arriving ---------------------------------------------------
    def _on_readable(self) -> None:
        while self._alive:
            try:
                data, _addr = self._sock.recvfrom(65535)
            except OSError:  # would block: drained; or the socket is gone
                return
            self.datagrams_received += 1
            try:
                frames = decode_datagram(data)
            except NetworkError:
                self.clock.trace.bump("transport.bad_datagrams")
                continue
            for frame in frames:
                self._receive(frame)

    # -- lifecycle -----------------------------------------------------------
    def outbound_idle(self) -> bool:
        return not any(self._out.values()) and super().outbound_idle()

    def _detach(self) -> None:
        try:
            self.loop.remove_reader(self._sock.fileno())
        except (ValueError, OSError):
            pass
        self._sock.close()
        self._out.clear()


#: ``_flush_dst``'s bundle budget: 1 400 B keeps a datagram under a
#: typical link MTU, and a whole fragment with its headers always fits.
BUNDLE_BYTES = max(1400, DATAGRAM_HEADER_BYTES + FRAME_WIRE_HEADER_BYTES
                   + UdpTransport.MTU)


# ----------------------------------------------------------------------
# TCP bulk channel (streamed joiner-state chunks)
# ----------------------------------------------------------------------
#: Connection preamble: magic (u16) + source site id (u16).
_BULK_HELLO = struct.Struct("!HH")
_BULK_LEN = struct.Struct("!I")
BULK_MAGIC = 0x564C  # "VL"
_BULK_ACK = b"\x06"


class TcpBulk:
    """Per-site TCP endpoint serving the bulk-channel role.

    The server side accepts connections, reads length-prefixed blobs,
    hands each to ``on_blob(src_site, data)`` and acknowledges it — so a
    sender's promise resolves only after the receiving site's bulk
    handler has consumed the blob, matching the simulator's semantics.
    """

    def __init__(
        self,
        scheduler: Any,
        site_id: int,
        sock: socket.socket,
        peers: Mapping[int, Tuple[str, int]],
        on_blob: Callable[[int, bytes], None],
    ):
        self.scheduler = scheduler
        self.loop: asyncio.AbstractEventLoop = scheduler.loop
        self.site_id = site_id
        self._peers = peers
        self.on_blob = on_blob
        self._alive = True
        #: The listening socket, closed here if we go down before
        #: :meth:`_serve` hands it to a server.
        self._sock = sock
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self.blobs_received = 0
        self.blobs_sent = 0
        self._track(self.loop.create_task(self._serve(sock)))

    def _track(self, task: asyncio.Task) -> asyncio.Task:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _serve(self, sock: socket.socket) -> None:
        # Not serving yet, the server is made without a suspension point:
        # from here on, shutdown closes it, and with it the socket.
        self._server = await asyncio.start_server(
            self._handle, sock=sock, start_serving=False)
        await self._server.start_serving()

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            hello = await reader.readexactly(_BULK_HELLO.size)
            magic, src_site = _BULK_HELLO.unpack(hello)
            if magic != BULK_MAGIC:
                return
            while self._alive:
                header = await reader.readexactly(_BULK_LEN.size)
                (length,) = _BULK_LEN.unpack(header)
                data = await reader.readexactly(length)
                if not self._alive:
                    return
                self.blobs_received += 1
                self.on_blob(src_site, data)
                writer.write(_BULK_ACK)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    # -- sending ---------------------------------------------------------
    def open_stream(self, dst_site: int) -> "TcpBulkStream":
        """Open a persistent connection for chunked transfers."""
        return TcpBulkStream(self, dst_site)

    def shutdown(self) -> None:
        """Close the server, every open connection and worker task."""
        if not self._alive:
            return
        self._alive = False
        if self._server is not None:
            self._server.close()
        else:
            self._sock.close()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        for task in list(self._tasks):
            task.cancel()

    @property
    def alive(self) -> bool:
        return self._alive


class TcpBulkStream:
    """Client side of one bulk connection; sequential chunk sends.

    Each :meth:`send` resolves once the receiver has acknowledged the
    chunk (its bulk handler ran).  After :meth:`close`, in-flight chunks
    are abandoned — connection-reset semantics, matching
    :class:`repro.net.bulk.BulkStream`.
    """

    def __init__(self, bulk: TcpBulk, dst_site: int):
        self.bulk = bulk
        self.dst_site = dst_site
        self._lock = asyncio.Lock()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._closed = False

    def send(self, data: bytes) -> Promise:
        promise = Promise(
            label=f"bulk:{self.bulk.site_id}->{self.dst_site}")
        if self._closed or not self.bulk.alive:
            promise.reject(SiteDown(f"bulk stream to {self.dst_site} closed"))
            return promise
        self.bulk._track(self.bulk.loop.create_task(
            self._do_send(bytes(data), promise)))
        return promise

    async def _do_send(self, data: bytes, promise: Promise) -> None:
        try:
            async with self._lock:
                if self._closed:
                    raise ConnectionResetError("stream closed")
                if self._writer is None:
                    addr = self.bulk._peers.get(self.dst_site)
                    if addr is None:
                        raise ConnectionRefusedError(
                            f"no bulk endpoint for site {self.dst_site}")
                    self._reader, self._writer = await asyncio.open_connection(
                        addr[0], addr[1])
                    self._writer.write(
                        _BULK_HELLO.pack(BULK_MAGIC, self.bulk.site_id))
                self._writer.write(_BULK_LEN.pack(len(data)))
                self._writer.write(data)
                await self._writer.drain()
                await self._reader.readexactly(len(_BULK_ACK))
            self.bulk.blobs_sent += 1
            promise.resolve(None)
        except asyncio.CancelledError:
            if not promise.done:
                promise.reject(SiteDown("bulk channel shut down"))
            raise
        except Exception as err:  # noqa: BLE001 - any socket failure = reset
            if not promise.done:
                promise.reject(SiteDown(f"bulk stream failed: {err!r}"))

    def close(self) -> None:
        self._closed = True
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None
