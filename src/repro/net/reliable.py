"""The reliable FIFO site-to-site channel, written once for every wire.

The multicast protocols of [Birman-a] assume that sites communicate over
channels that deliver messages reliably and in FIFO order despite packet
loss (§2.1: "Our system tolerates message loss").  This module is that
substrate, the textbook fair-loss -> reliable-link construction: a
sliding window with cumulative acknowledgements, a retransmission probe
on timeout with exponential backoff, and fragmentation of messages
larger than the MTU.

:class:`ReliableEndpoint` owns the whole protocol and knows nothing of
sockets, CPUs or event loops.  An adapter subclasses it and supplies the
wire (see the hooks at the end of the class); the simulator's
:class:`~repro.net.transport.Transport` and the real-socket
:class:`~repro.net.udp.UdpTransport` are the two in the tree, and a test
can be a third with an in-memory list for a wire.

Epochs: a restarting site gets a new incarnation number; frames from a
previous incarnation are discarded, and receiver-side channel state is
reset when a higher epoch is seen, so a recovered site starts clean.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ..errors import SiteDown
from ..msg.fields import modular_newer
from ..sim.tasks import Promise
from .packet import KIND_ACK, KIND_DATA, KIND_RAW, Frame, Reassembler, fragment


class _SendChannel:
    """Sender-side state for one destination site."""

    __slots__ = ("next_seq", "unacked", "backlog", "retx_timer", "msg_done",
                 "rto", "wire_times")

    def __init__(self, base_rto: float) -> None:
        self.next_seq = 0
        self.unacked: "OrderedDict[int, Frame]" = OrderedDict()
        self.backlog: Deque[Frame] = deque()
        self.retx_timer: Optional[Any] = None
        #: msg_id -> (last_seq, promise) resolved when last frame acked.
        self.msg_done: Dict[int, Tuple[int, Promise]] = {}
        #: Current retransmission timeout (exponential backoff on loss,
        #: reset on ack progress).
        self.rto = base_rto
        #: seq -> time the frame last reached the wire.  A frame still
        #: queued behind the sender's CPU must never be "retransmitted".
        self.wire_times: Dict[int, float] = {}


class _RecvChannel:
    """Receiver-side state for one (source site, epoch)."""

    __slots__ = ("epoch", "expected", "out_of_order")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self.expected = 0
        self.out_of_order: Dict[int, Frame] = {}


class ReliableEndpoint:
    """One site's end of every reliable channel: ordered byte messages.

    Parameters
    ----------
    clock:
        ``now``, ``call_after(delay, fn, *args)`` returning a handle with
        ``cancel()``, and ``trace.bump(name, amount)``: the simulator or
        the asyncio scheduler.
    config:
        Read live for ``mtu``, ``window``, ``rto`` and ``ack_delay``
        (:class:`~repro.net.lan.LanConfig` and
        :class:`~repro.net.udp.UdpConfig` both carry them).
    on_message:
        ``on_message(src_site, data)`` invoked, in FIFO-per-source order,
        once a complete message has been reassembled.
    max_rto:
        Ceiling of the retransmission backoff.
    """

    def __init__(
        self,
        clock: Any,
        config: Any,
        site_id: int,
        epoch: int,
        on_message: Callable[[int, bytes], None],
        max_rto: float,
    ):
        self.clock = clock
        self.config = config
        self.site_id = site_id
        self.epoch = epoch
        self.on_message = on_message
        self.max_rto = max_rto
        #: Optional handler for unreliable datagrams (heartbeats).
        self.on_raw: Optional[Callable[[int, bytes], None]] = None
        self._send_channels: Dict[int, _SendChannel] = {}
        self._recv_channels: Dict[int, _RecvChannel] = {}
        self._reassembler = Reassembler()
        self._next_msg_id = 0
        self._alive = True
        #: Delayed cumulative ACKs: dst site -> highest ack owed.
        self._ack_pending: Dict[int, int] = {}
        self._ack_timers: Dict[int, Any] = {}
        #: Per-endpoint wire counters (the global trace counters cannot
        #: attribute frames to a site; benchmarks and kernel stats can).
        #: ``frames_sent``, ``frames_received`` and ``acks_pure`` are
        #: counted by the adapter, in the units of its wire.
        self.msgs_sent = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.msgs_received = 0
        self.retransmits = 0
        self.acks_pure = 0          # stand-alone ACK frames sent
        self.acks_coalesced = 0     # data frames whose ACK merged into one
        self.acks_piggybacked = 0   # ACKs that rode a reverse data frame

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst_site: int, data: bytes,
             piggyback: bool = False) -> Promise:
        """Queue ``data`` for reliable delivery to ``dst_site``.

        Returns a promise resolved when every fragment has been
        acknowledged (i.e. the message is stable at the destination), or
        rejected if the channel is torn down first.

        ``piggyback=True`` marks a copy that rides a hardware-broadcast
        transmission already paid for (the [Babaoglu] optimization of
        the paper's footnote 1): the simulator charges it a token CPU
        cost instead of a full per-destination send.  Real UDP has no
        such fast path and carries the flag only.
        """
        if not self._alive:
            promise = Promise(label="send-on-dead-transport")
            promise.reject(SiteDown(f"site {self.site_id} is down"))
            return promise
        channel = self._send_channels.setdefault(
            dst_site, _SendChannel(self.config.rto))
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        chunks = fragment(data, self.config.mtu)
        frames = []
        for index, chunk in enumerate(chunks):
            frames.append(
                Frame(
                    kind=KIND_DATA,
                    src_site=self.site_id,
                    dst_site=dst_site,
                    epoch=self.epoch,
                    seq=channel.next_seq,
                    msg_id=msg_id,
                    frag_index=index,
                    frag_total=len(chunks),
                    payload=chunk,
                    cheap=piggyback,
                )
            )
            channel.next_seq += 1
        promise = Promise(label=f"send:{self.site_id}->{dst_site}:{msg_id}")
        channel.msg_done[msg_id] = (frames[-1].seq, promise)
        self.clock.trace.bump("transport.messages")
        self.clock.trace.bump("transport.bytes", len(data))
        self.msgs_sent += 1
        self.bytes_sent += len(data)
        for frame in frames:
            if len(channel.unacked) < self.config.window:
                self._transmit(channel, frame)
            else:
                channel.backlog.append(frame)
        return promise

    def send_raw(self, dst_site: int, payload: bytes) -> None:
        """Fire-and-forget datagram: no ordering, no retransmission.

        Used for heartbeats, where a lost probe *should* look like
        silence rather than be masked by the reliable channel.
        """
        if not self._alive:
            return
        self._wire(Frame(
            kind=KIND_RAW,
            src_site=self.site_id,
            dst_site=dst_site,
            epoch=self.epoch,
            payload=payload,
        ))

    def _transmit(self, channel: _SendChannel, frame: Frame) -> None:
        channel.unacked[frame.seq] = frame
        self._emit(channel, frame)

    def _on_wire(self, channel: _SendChannel, frame: Frame) -> None:
        """A data frame's first transmission reaches the wire *now*.

        The retransmission timer arms here, not when the frame was
        emitted — otherwise a sender whose CPU is busy would "time out"
        frames it has not yet transmitted and melt down in a
        retransmission storm.
        """
        if not self._alive:
            return
        pending_ack = self._ack_pending.pop(frame.dst_site, None)
        if pending_ack is not None:
            # Reverse-direction data absorbs the delayed ACK entirely.
            frame.ack = max(frame.ack, pending_ack)
            self._cancel_ack_timer(frame.dst_site)
            self.acks_piggybacked += 1
            self.clock.trace.bump("transport.acks_piggybacked")
        self._wire(frame)
        channel.wire_times.setdefault(frame.seq, self.clock.now)
        self._arm_retransmit(channel, frame.dst_site)

    def _arm_retransmit(self, channel: _SendChannel, dst_site: int) -> None:
        if channel.retx_timer is not None or not channel.unacked:
            return
        channel.retx_timer = self.clock.call_after(
            channel.rto, self._retransmit, dst_site
        )

    def _retransmit(self, dst_site: int) -> None:
        """Probe with the *oldest transmitted* unacked frame only.

        Frames still queued behind the CPU have not been lost — they have
        not even been sent; retransmitting whole windows under load is
        how congestion collapse happens.  A cumulative ack for the probe
        confirms (or advances past) everything behind it.
        """
        channel = self._send_channels.get(dst_site)
        if channel is None:
            return
        channel.retx_timer = None
        if not self._alive or not channel.unacked:
            return
        oldest_seq = next(iter(channel.unacked))
        sent_at = channel.wire_times.get(oldest_seq)
        if sent_at is None:
            # Not on the wire yet: check again once it is.
            self._after_emitted(self._arm_retransmit, channel, dst_site)
            return
        age = self.clock.now - sent_at
        if age < channel.rto * 0.9:
            channel.retx_timer = self.clock.call_after(
                channel.rto - age, self._retransmit, dst_site)
            return
        self.clock.trace.bump("transport.retransmits")
        self.retransmits += 1
        channel.rto = min(channel.rto * 2, self.max_rto)
        channel.wire_times[oldest_seq] = self.clock.now
        self._wire_probe(channel.unacked[oldest_seq])
        self._arm_retransmit(channel, dst_site)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _process_raw(self, frame: Frame) -> None:
        if self.on_raw is not None:
            self.on_raw(frame.src_site, frame.payload)

    def _process_ack(self, frame: Frame) -> None:
        channel = self._send_channels.get(frame.src_site)
        if channel is None:
            return
        progressed = any(s <= frame.ack for s in channel.unacked)
        if progressed:
            channel.rto = self.config.rto  # backoff resets on progress
        for seq in [s for s in channel.unacked if s <= frame.ack]:
            del channel.unacked[seq]
            channel.wire_times.pop(seq, None)
        for msg_id in [
            m for m, (last_seq, _) in channel.msg_done.items() if last_seq <= frame.ack
        ]:
            _, promise = channel.msg_done.pop(msg_id)
            promise.resolve(None)
        while channel.backlog and len(channel.unacked) < self.config.window:
            self._transmit(channel, channel.backlog.popleft())
        if channel.retx_timer is not None and not channel.unacked:
            channel.retx_timer.cancel()
            channel.retx_timer = None

    def _process_data(self, frame: Frame) -> None:
        channel = self._recv_channels.get(frame.src_site)
        if channel is None or modular_newer(frame.epoch, channel.epoch):
            # New incarnation of the source: reset channel state,
            # including any ACK still owed to the previous incarnation —
            # replaying it against the new incarnation's send channel
            # would silently "acknowledge" frames we never received.
            # Epochs wrap modulo 256 with the incarnation byte, so
            # newness is a modular half-window, not ``>``.
            if channel is not None:
                # The restart is otherwise invisible to our *send* side:
                # frame epochs name the sender's incarnation only, so a
                # surviving send channel keeps numbering frames where the
                # dead incarnation left off, and the fresh receiver
                # (expecting seq 0) buffers them as out-of-order forever.
                # Restart outbound numbering along with inbound state.
                self.clock.trace.bump("transport.peer_restarts")
                self.reset_channel(frame.src_site)
            channel = _RecvChannel(frame.epoch)
            self._recv_channels[frame.src_site] = channel
            self._reassembler.forget((frame.src_site,))
            self._ack_pending.pop(frame.src_site, None)
            self._cancel_ack_timer(frame.src_site)
        elif frame.epoch != channel.epoch:
            self.clock.trace.bump("transport.stale_epoch")
            return
        if frame.ack >= 0:
            # A delayed ACK rode this reverse-direction data frame.
            # Processed only after the epoch checks above: an ACK from a
            # dead incarnation must not touch the live send channel.
            self._process_ack(frame)
        if frame.seq < channel.expected:
            # A duplicate means the sender timed out: answer right away
            # (an ACK delayed here would only invite more retransmits).
            self.clock.trace.bump("transport.duplicates")
            self._note_ack(frame.src_site, channel.expected - 1, urgent=True)
            return
        channel.out_of_order.setdefault(frame.seq, frame)
        delivered = False
        while channel.expected in channel.out_of_order:
            ready = channel.out_of_order.pop(channel.expected)
            channel.expected += 1
            delivered = True
            whole = self._reassembler.add(
                (frame.src_site, ready.msg_id),
                ready.frag_index,
                ready.frag_total,
                ready.payload,
            )
            if whole is not None:
                self.msgs_received += 1
                self.on_message(frame.src_site, whole)
        if delivered or frame.seq >= channel.expected:
            # Gaps (nothing delivered) signal loss: ACK those urgently.
            self._note_ack(frame.src_site, channel.expected - 1,
                           urgent=not delivered)

    def _note_ack(self, dst_site: int, cumulative: int,
                  urgent: bool = False) -> None:
        """Owe ``dst_site`` a cumulative ACK; send now or batch it.

        With ``ack_delay == 0`` (default) every ACK goes out immediately
        as its own frame.  With a window, in-order ACKs coalesce: one
        timer per source, the owed value monotonically maxed, flushed by
        the timer or absorbed by the next reverse-direction data frame
        (see ``_on_wire``).
        """
        if not self._alive:
            return  # a CPU-queued frame processed post-crash: stay silent
        delay = self.config.ack_delay
        if delay <= 0:
            self._send_ack(dst_site, cumulative)
            return
        pending = self._ack_pending.get(dst_site)
        if urgent:
            self._ack_pending.pop(dst_site, None)
            self._cancel_ack_timer(dst_site)
            if pending is not None:
                cumulative = max(cumulative, pending)
            self._send_ack(dst_site, cumulative)
            return
        if pending is not None:
            self._ack_pending[dst_site] = max(pending, cumulative)
            self.acks_coalesced += 1
            self.clock.trace.bump("transport.acks_coalesced")
        else:
            self._ack_pending[dst_site] = cumulative
        if dst_site not in self._ack_timers:
            self._ack_timers[dst_site] = self.clock.call_after(
                delay, self._flush_ack, dst_site)

    def _flush_ack(self, dst_site: int) -> None:
        self._ack_timers.pop(dst_site, None)
        cumulative = self._ack_pending.pop(dst_site, None)
        if cumulative is not None and self._alive:
            self._send_ack(dst_site, cumulative)

    def _cancel_ack_timer(self, dst_site: int) -> None:
        timer = self._ack_timers.pop(dst_site, None)
        if timer is not None:
            timer.cancel()

    def _send_ack(self, dst_site: int, cumulative: int) -> None:
        self._wire(Frame(
            kind=KIND_ACK,
            src_site=self.site_id,
            dst_site=dst_site,
            epoch=self.epoch,
            ack=cumulative,
        ))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Wire activity of this endpoint since boot."""
        return {
            "msgs_sent": self.msgs_sent,
            "bytes_sent": self.bytes_sent,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "msgs_received": self.msgs_received,
            "retransmits": self.retransmits,
            "acks_pure": self.acks_pure,
            "acks_coalesced": self.acks_coalesced,
            "acks_piggybacked": self.acks_piggybacked,
        }

    def outbound_idle(self) -> bool:
        """True once nothing is owed to any peer: every frame sent so
        far is acked, nothing is queued, and no ACK is being delayed.

        Lets a departing site linger until its peers hold everything it
        said — exiting with unacked frames kills their retransmit path.
        """
        return not self._ack_pending and all(
            not ch.unacked and not ch.backlog
            for ch in self._send_channels.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset_channel(self, dst_site: int) -> None:
        """Abandon traffic to a (failed) site; reject its pending sends."""
        channel = self._send_channels.pop(dst_site, None)
        if channel is None:
            return
        if channel.retx_timer is not None:
            channel.retx_timer.cancel()
        for _, promise in channel.msg_done.values():
            promise.reject(SiteDown(f"site {dst_site} declared down"))

    def shutdown(self) -> None:
        """Crash: leave the wire, cancel timers, reject all pending sends."""
        if not self._alive:
            return
        self._alive = False
        self._detach()
        for dst_site in list(self._ack_timers):
            self._cancel_ack_timer(dst_site)
        self._ack_pending.clear()
        for dst_site in list(self._send_channels):
            self.reset_channel(dst_site)

    @property
    def alive(self) -> bool:
        return self._alive

    # ------------------------------------------------------------------
    # What an adapter supplies.  Inbound, it hands each frame of a live
    # endpoint to _process_data / _process_ack / _process_raw, counting
    # frames_received.
    # ------------------------------------------------------------------
    def _emit(self, channel: _SendChannel, frame: Frame) -> None:
        """Start a data frame's first transmission: call ``_on_wire``
        with the same arguments at the moment it reaches the wire."""
        raise NotImplementedError

    def _wire(self, frame: Frame) -> None:
        """Put ``frame`` (any kind) on the wire now, counting it in
        ``frames_sent`` / ``acks_pure`` as this wire counts frames."""
        raise NotImplementedError

    def _wire_probe(self, frame: Frame) -> None:
        """Put a retransmission of data ``frame`` on the wire."""
        raise NotImplementedError

    def _after_emitted(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` once every frame emitted so far has reached
        the wire.  A wire whose ``_emit`` is synchronous never asks."""
        fn(*args)

    def _detach(self) -> None:
        """Stop receiving and release the wire (part of ``shutdown``)."""
        raise NotImplementedError
