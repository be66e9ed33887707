"""Tests for the bulk (TCP-like) transfer channel."""

import pytest

from repro.errors import SiteDown
from repro.net import BulkChannel, Lan
from repro.sim import Cpu, Simulator


def setup_bulk(sim):
    lan = Lan(sim)
    lan.attach(0, lambda f: None)
    lan.attach(1, lambda f: None)
    bulk = BulkChannel(sim, lan)
    return lan, bulk, Cpu(sim, "cpu0"), Cpu(sim, "cpu1")


def test_transfer_delivers_data():
    sim = Simulator()
    _, bulk, cpu0, cpu1 = setup_bulk(sim)
    data = b"S" * 100_000
    promise = bulk.stream(0, 1, cpu0, cpu1).send(data)
    sim.run()
    assert promise.value == data


def test_transfer_time_is_bandwidth_bound():
    sim = Simulator()
    _, bulk, cpu0, cpu1 = setup_bulk(sim)
    data = b"x" * 1_250_000  # 1.25 MB at 1.25 MB/s ~ 1 second + setup
    done_at = []
    promise = bulk.stream(0, 1, cpu0, cpu1).send(data)
    promise.add_done_callback(lambda p: done_at.append(sim.now))
    sim.run()
    assert done_at[0] == pytest.approx(1.0, rel=0.2)


def test_transfer_fails_if_receiver_crashes():
    sim = Simulator()
    lan, bulk, cpu0, cpu1 = setup_bulk(sim)
    promise = bulk.stream(0, 1, cpu0, cpu1).send(b"y" * 500_000)
    sim.call_after(0.1, lan.detach, 1)
    sim.run()
    assert promise.rejected
    assert isinstance(promise.exception, SiteDown)


def test_transfer_fails_if_sender_crashes():
    sim = Simulator()
    lan, bulk, cpu0, cpu1 = setup_bulk(sim)
    promise = bulk.stream(0, 1, cpu0, cpu1).send(b"z" * 500_000)
    sim.call_after(0.1, lan.detach, 0)
    sim.run()
    assert promise.rejected


def test_bulk_counters():
    sim = Simulator()
    _, bulk, cpu0, cpu1 = setup_bulk(sim)
    bulk.stream(0, 1, cpu0, cpu1).send(b"a" * 1000)
    sim.run()
    assert sim.trace.value("bulk.transfers") == 1
    assert sim.trace.value("bulk.bytes") == 1000


def test_closed_bulk_stream_delivers_nothing():
    """An open stream hands a chunk to the receiving site before the
    chunk's promise resolves (the sender chains its next chunk on it); a
    chunk in flight when the stream is closed resolves all the same and
    is handed to nobody (connection reset)."""
    sim = Simulator()
    _, bulk, cpu0, cpu1 = setup_bulk(sim)
    events = []
    stream = bulk.stream(0, 1, cpu0, cpu1,
                         lambda src, data: events.append(("taken", src, data)))
    first = stream.send(b"one")
    first.add_done_callback(lambda p: events.append(("resolved", p.value)))
    sim.run()
    assert events == [("taken", 0, b"one"), ("resolved", b"one")]
    second = stream.send(b"two")
    stream.close()
    sim.run()
    assert second.value == b"two"
    assert len(events) == 2
