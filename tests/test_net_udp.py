"""The UDP adapter on loopback: what `UdpTransport` adds to the core.

The protocol itself is tested on an in-memory wire
(``tests/properties/test_reliable_channel_properties.py``); these cover
the datagram bundling, the socket reader and the teardown.
"""

import asyncio
import socket

import pytest

from repro.net.packet import (DATAGRAM_HEADER_BYTES, DATAGRAM_MAGIC, KIND_RAW,
                              MAX_FRAMES_PER_DATAGRAM, Frame, decode_datagram,
                              encode_datagram)
from repro.net import udp
from repro.net.udp import UdpTransport
from repro.runtime.asyncio_driver import AsyncioScheduler, new_event_loop
from repro.runtime.driver import SiteTransport


def _bound_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setblocking(False)
    sock.bind(("127.0.0.1", 0))
    return sock


try:
    _bound_socket().close()
except OSError:  # pragma: no cover - sandbox without loopback
    pytest.skip("localhost sockets unavailable", allow_module_level=True)


class Loopback:
    """Site 0 is a `UdpTransport`; site 1 is a bare socket the test
    reads and writes, so every datagram can be looked at."""

    def __init__(self):
        self.loop = new_event_loop()
        self.scheduler = AsyncioScheduler(self.loop)
        self.peer = _bound_socket()
        sock = _bound_socket()
        self.address = sock.getsockname()
        self.fileno = sock.fileno()
        self.messages, self.raws = [], []
        self.transport = UdpTransport(
            self.scheduler, 0, 0, sock, {1: self.peer.getsockname()},
            lambda src, data: self.messages.append(data))
        self.transport.on_raw = lambda src, data: self.raws.append(data)

    def run(self, seconds: float = 0.05) -> None:
        self.loop.run_until_complete(asyncio.sleep(seconds))

    def datagrams_at_peer(self):
        out = []
        while True:
            try:
                out.append(self.peer.recv(65535))
            except BlockingIOError:
                return out

    def close(self) -> None:
        self.transport.shutdown()
        self.peer.close()
        self.loop.close()


@pytest.fixture
def loopback():
    net = Loopback()
    yield net
    net.close()


def test_udp_transport_satisfies_the_seam(loopback):
    assert isinstance(loopback.transport, SiteTransport)


def test_bundle_splits_at_max_datagram(loopback, monkeypatch):
    monkeypatch.setattr(UdpTransport, "MTU", 100)
    monkeypatch.setattr(UdpTransport, "RTO", 5.0)
    monkeypatch.setattr(udp, "BUNDLE_BYTES", 400)
    for i in range(10):
        loopback.transport.send(1, bytes([i]) * 100)   # one tick, one bundle
    loopback.run()
    datagrams = loopback.datagrams_at_peer()
    assert all(len(d) <= 400 for d in datagrams)
    frames = [decode_datagram(d) for d in datagrams]
    assert [len(f) for f in frames] == [3, 3, 3, 1]    # 128 B a frame
    assert [f.seq for batch in frames for f in batch] == list(range(10))
    stats = loopback.transport.stats()
    assert (stats["datagrams_sent"], stats["frames_sent"]) == (4, 10)


def test_bundle_splits_at_255_frames(loopback, monkeypatch):
    monkeypatch.setattr(udp, "BUNDLE_BYTES", 60000)
    for _ in range(300):
        loopback.transport.send_raw(1, b"")
    loopback.run()
    sizes = [len(decode_datagram(d)) for d in loopback.datagrams_at_peer()]
    assert sizes == [MAX_FRAMES_PER_DATAGRAM, 300 - MAX_FRAMES_PER_DATAGRAM]


def test_malformed_datagram_is_counted_and_reading_goes_on(loopback):
    good = encode_datagram([Frame(kind=KIND_RAW, src_site=1, dst_site=0,
                                  payload=b"beat")])
    # Flags bit 0 (byte 1 of the frame header) is reserved: must be zero.
    flagged = good[:DATAGRAM_HEADER_BYTES + 1] + b"\x01" \
        + good[DATAGRAM_HEADER_BYTES + 2:]
    for data in (b"", b"\x00\x01\x02", good[:-2], good + b"x",
                 bytes([DATAGRAM_MAGIC >> 8, DATAGRAM_MAGIC & 0xFF, 9, 1]),
                 flagged, good):
        loopback.peer.sendto(data, loopback.address)
    loopback.run()
    assert loopback.scheduler.trace.value("transport.bad_datagrams") == 6
    assert loopback.raws == [b"beat"]
    assert loopback.transport.stats()["datagrams_received"] == 7
    assert loopback.transport.alive


def test_shutdown_leaves_no_reader_or_timer(loopback, monkeypatch):
    monkeypatch.setattr(UdpTransport, "RTO", 5.0)
    transport = loopback.transport
    doomed = transport.send(1, b"never acknowledged")      # arms the probe
    loopback.peer.sendto(encode_datagram([Frame(
        kind="data", src_site=1, dst_site=0, syn=True, payload=b"hi",
        ack=0)]), loopback.address)     # only ACK frames acknowledge
    loopback.run()
    assert loopback.messages == [b"hi"]
    assert loopback.scheduler.outstanding_timers() == 1
    assert not transport.outbound_idle()
    transport.shutdown()
    assert doomed.rejected
    assert loopback.scheduler.outstanding_timers() == 0
    assert not loopback.loop.remove_reader(loopback.fileno)   # none was left
    loopback.run()                                            # nothing fires
    assert not transport.alive and transport.outbound_idle()
