"""The reliable FIFO site-to-site channel, written once for every wire.

The multicast protocols of [Birman-a] assume that sites communicate over
channels that deliver messages reliably and in FIFO order despite packet
loss (§2.1: "Our system tolerates message loss").  This module is that
substrate, the textbook fair-loss -> reliable-link construction: a
sliding window, one cumulative ACK frame sent at once for every data
frame received, a retransmission probe on timeout with exponential
backoff, and fragmentation above the MTU.  :class:`ReliableEndpoint`
owns all of it and knows nothing of sockets, CPUs or event loops; an
adapter subclasses it and supplies the wire (the hooks at the end).

Channel identity.  Every data and ACK frame carries its sender's
incarnation, and an endpoint remembers the newest one heard from each
peer: a newer one resets both directions of the channel, an older one is
dropped.  An ACK also names the incarnation whose frames it counts, and
any other ignores it.  Sequence numbers to one destination never restart
while the sender lives: ``reset_channel`` abandons what is unacked and
numbering goes on from there, the next frame flagged ``syn``.  A
receiver delivers nothing before it has seen a ``syn`` frame, and on
seeing a later one jumps to it, discarding what it still held of the
numbering before.  So neither a frame nor an ACK of an abandoned
numbering is ever taken for one of its successor.
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

    __slots__ = ("first_seq", "next_seq", "unacked", "backlog", "retx_timer",
                 "msg_done", "rto", "wire_times")

    def __init__(self, base_rto: float) -> None:
        #: Where the current numbering starts (its ``syn`` frame) and
        #: continues.  ``reset_channel`` moves the first up to the second.
        self.first_seq = 0
        self.next_seq = 0
        self.unacked: "OrderedDict[int, Frame]" = OrderedDict()
        self.backlog: Deque[Frame] = deque()
        self.retx_timer: Optional[Any] = None
        #: (last_seq, promise) per message, resolved when that seq is acked.
        self.msg_done: Deque[Tuple[int, Promise]] = deque()
        #: Current retransmission timeout (exponential backoff on loss,
        #: reset on ack progress).
        self.rto = base_rto
        #: seq -> time the frame last reached the wire.  A frame still
        #: queued behind the sender's CPU must never be "retransmitted".
        self.wire_times: Dict[int, float] = {}


class _RecvChannel:
    """Receiver-side state for one incarnation of one source site."""

    __slots__ = ("expected", "out_of_order")

    def __init__(self) -> None:
        #: Next seq to deliver; ``None`` until a ``syn`` frame says where
        #: the sender's numbering starts.
        self.expected: Optional[int] = None
        self.out_of_order: Dict[int, Frame] = {}


class ReliableEndpoint:
    """One site's end of every reliable channel: ordered byte messages.

    Parameters
    ----------
    clock:
        ``now``, ``call_after(delay, fn, *args)`` returning a handle with
        ``cancel()``, and ``trace.bump(name, amount)``: the simulator or
        the asyncio scheduler.
    on_message:
        ``on_message(src_site, data)`` invoked, in FIFO-per-source order,
        once a complete message has been reassembled.

    An adapter class sets its wire's ``MTU`` (payload bytes a fragment),
    ``RTO`` (the first retransmission timeout) and ``MAX_RTO`` (the
    backoff's ceiling).
    """

    MTU: int
    RTO: float
    MAX_RTO: float
    #: Outstanding unacked frames a channel, on either wire.
    WINDOW = 64

    #: Per-endpoint wire counters, the keys of :meth:`stats` (the global
    #: trace counters cannot attribute frames to a site; benchmarks and
    #: kernel stats can).
    COUNTERS: Tuple[str, ...] = (
        "msgs_sent", "bytes_sent",
        # The next two and ``acks_pure`` are counted by the adapter, in
        # the units of its wire.
        "frames_sent", "frames_received",
        "msgs_received", "retransmits",
        "acks_pure",         # stand-alone ACK frames sent
    )

    def __init__(self, clock: Any, site_id: int, epoch: int,
                 on_message: Callable[[int, bytes], None]):
        self.clock = clock
        self.site_id = site_id
        self.epoch = epoch
        self.on_message = on_message
        #: Optional handler for unreliable datagrams (heartbeats).
        self.on_raw: Optional[Callable[[int, bytes], None]] = None
        self._send_channels: Dict[int, _SendChannel] = {}
        self._recv_channels: Dict[int, _RecvChannel] = {}
        #: Newest incarnation heard from each peer, on any reliable frame.
        self._peer_epoch: Dict[int, int] = {}
        self._reassembler = Reassembler()
        self._next_msg_id = 0
        self._alive = True
        for name in self.COUNTERS:
            setattr(self, name, 0)

    # -- Sending -------------------------------------------------------
    def send(self, dst_site: int, data: bytes) -> Promise:
        """Queue ``data`` for reliable delivery to ``dst_site``.

        Returns a promise resolved when every fragment has been
        acknowledged (i.e. the message is stable at the destination), or
        rejected if the channel is torn down first.
        """
        if not self._alive:
            promise = Promise(label="send-on-dead-transport")
            promise.reject(SiteDown(f"site {self.site_id} is down"))
            return promise
        channel = self._send_channels.get(dst_site)
        if channel is None:
            channel = self._send_channels[dst_site] = _SendChannel(self.RTO)
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        chunks = fragment(data, self.MTU)
        total = len(chunks)
        first = channel.next_seq
        channel.next_seq = first + total
        promise = Promise(label=f"send:{self.site_id}->{dst_site}:{msg_id}")
        channel.msg_done.append((first + total - 1, promise))
        bump = self.clock.trace.bump
        bump("transport.messages")
        bump("transport.bytes", len(data))
        self.msgs_sent += 1
        self.bytes_sent += len(data)
        site_id, epoch, syn_seq = self.site_id, self.epoch, channel.first_seq
        for index, chunk in enumerate(chunks):
            seq = first + index
            frame = Frame(KIND_DATA, site_id, dst_site, epoch, seq, -1, 0,
                          msg_id, index, total, chunk, seq == syn_seq)
            if len(channel.unacked) < self.WINDOW:
                self._transmit(channel, frame)
            else:
                channel.backlog.append(frame)
        return promise

    def send_raw(self, dst_site: int, payload: bytes) -> None:
        """Fire-and-forget datagram: no ordering, no retransmission.
        Used for heartbeats, where a lost probe *should* look like
        silence rather than be masked by the reliable channel.
        """
        if self._alive:
            self._wire(Frame(KIND_RAW, self.site_id, dst_site, self.epoch,
                             0, -1, 0, 0, 0, 1, payload))

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
        if frame.seq not in channel.unacked:
            return  # the channel was reset (or we went down) meanwhile
        self._wire(frame)
        channel.wire_times.setdefault(frame.seq, self.clock.now)
        if channel.retx_timer is None:
            self._arm_retransmit(channel, frame.dst_site)

    def _arm_retransmit(self, channel: _SendChannel, dst_site: int) -> None:
        if channel.retx_timer is None and channel.unacked:
            channel.retx_timer = self.clock.call_after(
                channel.rto, self._retransmit, dst_site)

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
        if not channel.unacked:
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
        channel.rto = min(channel.rto * 2, self.MAX_RTO)
        channel.wire_times[oldest_seq] = self.clock.now
        self._wire_probe(channel.unacked[oldest_seq])
        self._arm_retransmit(channel, dst_site)

    # -- Receiving -----------------------------------------------------
    def _receive(self, frame: Frame) -> None:
        """A frame came off the wire (the simulator charges CPU first)."""
        if not self._alive:
            return
        self.frames_received += 1
        if frame.kind == KIND_ACK:
            self._process_ack(frame)
        elif frame.kind != KIND_RAW:
            self._process_data(frame)
        elif self.on_raw is not None:
            self.on_raw(frame.src_site, frame.payload)

    def _new_epoch(self, src_site: int, epoch: int) -> bool:
        """A data or ACK frame came from an incarnation other than the
        one on record: note a newer one; False for a dead one's frame."""
        known = self._peer_epoch.get(src_site)
        if known is not None:
            # Epochs wrap modulo 256 with the incarnation byte, so
            # newness is a modular half-window, not ``>``.
            if not modular_newer(epoch, known):
                self.clock.trace.bump("transport.stale_epoch")
                return False
            # The peer restarted.  Inbound state goes.  So does
            # outbound: the fresh receiver saw none of our numbering and
            # can only take up a channel from its ``syn`` frame.
            self.clock.trace.bump("transport.peer_restarts")
            self.reset_channel(src_site)
            self._recv_channels.pop(src_site, None)
            self._reassembler.forget((src_site,))
        self._peer_epoch[src_site] = epoch
        return True

    def _process_ack(self, frame: Frame) -> None:
        src_site = frame.src_site
        if (frame.epoch != self._peer_epoch.get(src_site)
                and not self._new_epoch(src_site, frame.epoch)):
            return
        if frame.ack_epoch != self.epoch:
            # It counts frames of our previous incarnation, whose
            # numbering also started at 0: not ours to be acknowledged.
            self.clock.trace.bump("transport.stale_epoch")
            return
        channel = self._send_channels.get(src_site)
        if channel is None:
            return
        # ``unacked`` is in seq order and ``msg_done`` in order of last
        # seq, so both are acknowledged from the front.
        ack = frame.ack
        unacked = channel.unacked
        while unacked:
            seq = next(iter(unacked))
            if seq > ack:
                break
            del unacked[seq]
            channel.wire_times.pop(seq, None)  # None: acked unsent (bogus)
            channel.rto = self.RTO  # backoff resets on progress
        done = channel.msg_done
        while done and done[0][0] <= ack:
            done.popleft()[1].resolve(None)
        while channel.backlog and len(unacked) < self.WINDOW:
            self._transmit(channel, channel.backlog.popleft())
        if channel.retx_timer is not None and not unacked:
            channel.retx_timer.cancel()
            channel.retx_timer = None

    def _process_data(self, frame: Frame) -> None:
        src_site = frame.src_site
        if (frame.epoch != self._peer_epoch.get(src_site)
                and not self._new_epoch(src_site, frame.epoch)):
            return
        channel = self._recv_channels.get(src_site)
        if channel is None:
            channel = self._recv_channels[src_site] = _RecvChannel()
        expected = channel.expected
        if frame.syn and (expected is None or frame.seq > expected):
            # The sender opened a channel here: all it numbered before
            # is abandoned, whatever of it we still hold or miss.
            channel.expected = expected = frame.seq
            for seq in [s for s in channel.out_of_order if s < expected]:
                del channel.out_of_order[seq]
            self._reassembler.forget((src_site,))
        if expected is None:
            # Mid-channel frames reached a receiver that never saw the
            # channel open (we restarted under it).  Hold them, and
            # answer at once: the reply carries our incarnation, which
            # is what tells the sender to open a new channel.
            channel.out_of_order.setdefault(frame.seq, frame)
            self._note_ack(src_site, -1)
            return
        if frame.seq < expected:
            # A duplicate means the sender timed out: tell it again.
            self.clock.trace.bump("transport.duplicates")
            self._note_ack(src_site, expected - 1)
            return
        channel.out_of_order.setdefault(frame.seq, frame)
        while channel.expected in channel.out_of_order:
            ready = channel.out_of_order.pop(channel.expected)
            channel.expected += 1
            whole = self._reassembler.add(
                (src_site, ready.msg_id), ready.frag_index,
                ready.frag_total, ready.payload)
            if whole is not None:
                self.msgs_received += 1
                self.on_message(src_site, whole)
        self._note_ack(src_site, channel.expected - 1)

    def _note_ack(self, dst_site: int, cumulative: int) -> None:
        """Tell ``dst_site`` how far its frames have been delivered."""
        if not self._alive:
            return  # a CPU-queued frame processed post-crash: stay silent
        self._wire(Frame(KIND_ACK, self.site_id, dst_site, self.epoch, 0,
                         cumulative, self._peer_epoch.get(dst_site, 0)))

    # -- Statistics and lifecycle --------------------------------------
    def stats(self) -> Dict[str, int]:
        """Wire activity of this endpoint since boot."""
        return {name: getattr(self, name) for name in self.COUNTERS}

    def outbound_idle(self) -> bool:
        """True once every frame sent so far is acked and nothing is
        queued.  Lets a departing site linger until its peers hold
        everything it said — exiting with unacked frames kills their
        retransmit path.
        """
        return all(not ch.unacked and not ch.backlog
                   for ch in self._send_channels.values())

    def reset_channel(self, dst_site: int) -> None:
        """Abandon traffic to a (failed) site; reject its pending sends."""
        channel = self._send_channels.get(dst_site)
        if channel is None:
            return
        if channel.retx_timer is not None:
            channel.retx_timer.cancel()
            channel.retx_timer = None
        abandoned = list(channel.msg_done)
        # Emptied in place: a frame of it still waiting to be emitted then
        # finds itself gone from ``unacked``.  Numbering goes on, so that
        # nothing of the old one can be taken for the new (module doc).
        channel.unacked.clear()
        channel.backlog.clear()
        channel.msg_done.clear()
        channel.wire_times.clear()
        channel.first_seq = channel.next_seq
        channel.rto = self.RTO
        for _, promise in abandoned:
            promise.reject(SiteDown(f"site {dst_site} declared down"))

    def shutdown(self) -> None:
        """Crash: leave the wire, cancel timers, reject all pending sends."""
        if not self._alive:
            return
        self._alive = False
        self._detach()
        for dst_site in self._send_channels:
            self.reset_channel(dst_site)

    @property
    def alive(self) -> bool:
        return self._alive

    # -- What an adapter supplies: the two hooks that raise, and the three
    # before them if frames wait in a queue (a CPU's) before its wire ------
    def _emit(self, channel: _SendChannel, frame: Frame) -> None:
        """Start a data frame's first transmission: call ``_on_wire``
        with the same arguments at the moment it reaches the wire."""
        self._on_wire(channel, frame)

    def _wire_probe(self, frame: Frame) -> None:
        """Put a retransmission of data ``frame`` on the wire."""
        self._wire(frame)

    def _after_emitted(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` once all frames emitted so far are wired."""
        fn(*args)

    def _wire(self, frame: Frame) -> None:
        """Put ``frame`` (any kind) on the wire now, counting it in
        ``frames_sent`` / ``acks_pure`` as this wire counts frames."""
        raise NotImplementedError

    def _detach(self) -> None:
        """Stop receiving and release the wire (part of ``shutdown``)."""
        raise NotImplementedError
