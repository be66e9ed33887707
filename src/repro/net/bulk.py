"""Bulk transfer channel for large state transfers.

§3.8: the state-transfer tool *"transfers successive blocks, using ISIS
messages for small transfers and TCP channels for large ones."*  This is
the TCP channel: a connection-oriented stream whose cost model is
bandwidth-bound (10-Mbit Ethernet) rather than per-message-bound, so
shipping megabytes of state does not pay the per-multicast overhead.

The bulk path deliberately bypasses the ordered transport — exactly as a
side TCP connection would — which is why the state-transfer tool must
itself serialize the transfer against group traffic (it does, via the
view-change flush).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import SiteDown
from ..sim.core import Simulator
from ..sim.cpu import Cpu
from ..sim.tasks import Promise
from .lan import Lan


#: The TCP channel's cost model: bytes a second (10 Mbit Ethernet),
#: connection establishment, and the copy cost a byte, far below the
#: per-message path's.
BANDWIDTH = 1_250_000.0
SETUP_LATENCY = 0.050
CPU_PER_BYTE = 0.00000005


class BulkChannel:
    """Point-to-point bulk byte transfers between sites."""

    def __init__(self, sim: Simulator, lan: Lan):
        self.sim = sim
        self.lan = lan

    def stream(self, src_site: int, dst_site: int, src_cpu: Cpu, dst_cpu: Cpu,
               deliver: Optional[Callable[[int, bytes], None]] = None,
               ) -> "BulkStream":
        """Open a persistent connection for chunked transfers.

        A :class:`BulkStream` pays connection setup once; each chunk
        then costs only its bandwidth share and per-byte CPU.  Used by
        the streaming join state transfer, where one snapshot travels
        as many small sends so neither endpoint's CPU is occupied by a
        snapshot-sized block.  ``deliver(src_site, chunk)`` is the
        receiving site's bulk handler.
        """
        return BulkStream(self, src_site, dst_site, src_cpu, dst_cpu, deliver)


class BulkStream:
    """One logical TCP connection; sequential chunk sends.

    The first :meth:`send` pays connection establishment; subsequent
    chunks ride the open connection.  Callers chain sends (next chunk
    on the previous promise) so chunk order is the stream order.
    After :meth:`close`, chunks in flight still resolve but are handed
    to nobody (connection reset semantics).
    """

    __slots__ = ("channel", "src_site", "dst_site", "src_cpu", "dst_cpu",
                 "_deliver", "_established", "_closed")

    def __init__(self, channel: BulkChannel, src_site: int, dst_site: int,
                 src_cpu: Cpu, dst_cpu: Cpu,
                 deliver: Optional[Callable[[int, bytes], None]] = None):
        self.channel = channel
        self.src_site = src_site
        self.dst_site = dst_site
        self.src_cpu = src_cpu
        self.dst_cpu = dst_cpu
        self._deliver = deliver
        self._established = False
        self._closed = False

    def send(self, data: bytes) -> Promise:
        """Ship one chunk; resolves with it once the receiver has taken
        it, rejects with :class:`SiteDown` if either endpoint is detached,
        or a partition separates them, by the time the wire is done (TCP
        reset)."""
        channel, sim = self.channel, self.channel.sim
        setup = 0.0 if self._established else SETUP_LATENCY
        self._established = True
        promise = Promise(label=f"bulk:{self.src_site}->{self.dst_site}")
        nbytes = len(data)
        wire_time = setup + nbytes / BANDWIDTH
        cpu_cost = CPU_PER_BYTE * nbytes
        sim.trace.bump("bulk.stream_chunks")
        sim.trace.bump("bulk.transfers")
        sim.trace.bump("bulk.bytes", nbytes)

        def arrive() -> None:
            # Hand over first, resolve second: the sender's next chunk
            # (chained on the promise) leaves after this one was taken.
            if self._deliver is not None and not self._closed:
                self._deliver(self.src_site, data)
            promise.resolve(data)

        def finish() -> None:
            lan, src, dst = channel.lan, self.src_site, self.dst_site
            if not (lan.attached(src) and lan.attached(dst)
                    and lan.reachable(src, dst)):
                promise.reject(SiteDown(f"{promise.label} reset"))
                return
            self.dst_cpu.submit(cpu_cost, arrive)

        # Sender pays its copy cost, then the stream occupies the wire.
        self.src_cpu.submit(cpu_cost, sim.post, wire_time, finish)
        return promise

    def close(self) -> None:
        self._closed = True
