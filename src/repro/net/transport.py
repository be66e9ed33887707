"""The reliable transport on the simulated LAN.

:class:`Transport` is the simulator's adapter of
:class:`~repro.net.reliable.ReliableEndpoint`, which holds the protocol
(sliding window, cumulative acks, retransmit-on-timeout, fragmentation
at the 4 KB MTU, epochs).  What this module adds is the cost model:
frames travel as objects over the lossy :class:`~repro.net.lan.Lan`, and
each one charges CPU on the sending and the receiving site, which is how
the Figure 2 utilization and throughput numbers arise.
"""

from __future__ import annotations

from typing import Callable

from ..sim.core import Simulator
from ..sim.cpu import Cpu
from .lan import Lan
from .packet import KIND_ACK, KIND_DATA, KIND_RAW, Frame
from .reliable import ReliableEndpoint, _SendChannel

#: The cost model's CPU charges: on the sending site a frame and a
#: payload byte, on the receiving site the same, and an ACK frame.
SEND_CPU_PER_FRAME = 0.002
SEND_CPU_PER_BYTE = 0.000008
RECV_CPU_PER_FRAME = 0.002
RECV_CPU_PER_BYTE = 0.000004
ACK_CPU = 0.0005


class Transport(ReliableEndpoint):
    """One site's attachment to the LAN: reliable ordered byte messages.

    Parameters
    ----------
    on_message:
        ``on_message(src_site, data)`` invoked, in FIFO-per-source order,
        once a complete message has been reassembled and its receive CPU
        cost paid.
    """

    #: Fragmentation threshold (4 KB).
    MTU = 4096
    #: Sized so a burst of fragments queued behind a busy receiver's CPU
    #: still gets acknowledged in time; backoff handles real loss.
    RTO = 0.400
    MAX_RTO = 8 * RTO

    def __init__(self, sim: Simulator, lan: Lan, site_id: int, epoch: int,
                 cpu: Cpu, on_message: Callable[[int, bytes], None]):
        super().__init__(sim, site_id, epoch, on_message)
        self.lan = lan
        self.cpu = cpu
        lan.attach(site_id, self._receive)

    # bench/trace.py wraps ``vars(Transport)["send"]``: it must be named
    # in this class body, not only inherited.
    send = ReliableEndpoint.send

    # -- frames leaving ---------------------------------------------------
    def _emit(self, channel: _SendChannel, frame: Frame) -> None:
        self.cpu.submit(_send_cpu(frame), self._on_wire, channel, frame)

    def _wire(self, frame: Frame) -> None:
        # ACK and raw frames bypass the CPU work queue.  For raw frames
        # that is the point (the failure detector runs at kernel priority):
        # §3.7 requires that an *overloaded* site not be mistaken for a
        # dead one, so its probes must not queue behind its application
        # traffic.  ``frames_sent`` counts data frames and probes only.
        if frame.kind == KIND_DATA:
            self.frames_sent += 1
        elif frame.kind == KIND_ACK:
            self.acks_pure += 1
        self.lan.send(frame)

    def _wire_probe(self, frame: Frame) -> None:
        self.frames_sent += 1
        self.cpu.submit(_send_cpu(frame), self.lan.send, frame)

    def _after_emitted(self, fn: Callable, *args) -> None:
        self.cpu.submit(0.0, fn, *args)  # behind the frames the CPU holds

    def _detach(self) -> None:
        self.lan.detach(self.site_id)

    # -- frames arriving --------------------------------------------------
    def _receive(self, frame: Frame) -> None:
        if not self._alive:
            return
        self.frames_received += 1
        if frame.kind == KIND_ACK:
            self.cpu.submit(ACK_CPU, self._process_ack, frame)
        elif frame.kind != KIND_RAW:
            self.cpu.submit(
                RECV_CPU_PER_FRAME + RECV_CPU_PER_BYTE * len(frame.payload),
                self._process_data, frame)
        elif self.on_raw is not None:
            self.on_raw(frame.src_site, frame.payload)  # kernel priority: see _wire


def _send_cpu(frame: Frame) -> float:
    return SEND_CPU_PER_FRAME + SEND_CPU_PER_BYTE * len(frame.payload)
