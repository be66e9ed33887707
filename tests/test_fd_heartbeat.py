"""Unit tests for the adaptive heartbeat failure detector."""

import pytest

from repro.fd import HeartbeatMonitor
from repro.fd.heartbeat import MIN_TIMEOUT
from repro.sim import Simulator


class Harness:
    def __init__(self, sim, site_id=0):
        self.probes = []
        self.suspects = []
        self.monitor = HeartbeatMonitor(
            sim, site_id,
            send_probe=self.probes.append,
            on_suspect=self.suspects.append,
        )


def test_probes_sent_to_all_peers_each_interval():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1, 2])
    h.monitor.start()
    sim.run(until=1.9)
    # 4 ticks (t=0, .5, 1.0, 1.5) x 2 peers
    assert len(h.probes) == 8
    assert set(h.probes) == {1, 2}


def test_self_excluded_from_peers():
    sim = Simulator()
    h = Harness(sim, site_id=3)
    h.monitor.set_peers([3, 1])
    h.monitor.start()
    sim.run(until=0.1)
    assert set(h.probes) == {1}


def test_silent_peer_suspected_after_min_timeout():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1])
    h.monitor.start()
    sim.run(until=5.0)
    assert h.suspects == [1]
    assert h.monitor.suspected == {1}


def test_heartbeats_prevent_suspicion():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1])
    h.monitor.start()

    def feed():
        h.monitor.note_heartbeat(1)

    for t in range(1, 20):
        sim.call_at(t * 0.5, feed)
    sim.run(until=9.0)
    assert h.suspects == []


def test_suspicion_fires_once():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1])
    h.monitor.start()
    sim.run(until=30.0)
    assert h.suspects == [1]


def test_readded_peer_forgiven():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1])
    h.monitor.start()
    sim.run(until=5.0)
    assert h.monitor.suspected == {1}
    h.monitor.set_peers([2])     # view excludes site 1 ...
    h.monitor.set_peers([1, 2])  # ... then re-admits it after recovery
    assert h.monitor.suspected == set()


def test_jittery_peer_gets_longer_timeout():
    """§3.7 adaptivity: irregular arrivals stretch the timeout."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1])
    h.monitor.start()
    # Arrivals alternating fast/slow: mean ~1.25s, high deviation.
    t = 0.0
    for i in range(12):
        t += 0.5 if i % 2 == 0 else 2.0
        sim.call_at(t, h.monitor.note_heartbeat, 1)
    sim.run(until=t)
    stats = h.monitor._peers[1]
    assert stats.timeout() > MIN_TIMEOUT


def test_stop_cancels_ticks():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1])
    h.monitor.start()
    sim.run(until=1.0)
    count = len(h.probes)
    h.monitor.stop()
    sim.run(until=10.0)
    assert len(h.probes) == count
    assert h.suspects == []


def test_removed_peer_not_probed():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([1, 2])
    h.monitor.start()
    sim.run(until=0.1)
    h.monitor.set_peers([2])
    h.probes.clear()
    sim.run(until=1.2)
    assert set(h.probes) == {2}


# -- staggered tick buckets (scale-out past 32 sites) ------------------------

def test_few_peers_single_bucket_legacy_behavior():
    """At or below TICK_BUCKET_SIZE the monitor is the original whole-scan
    tick: one bucket, probes for every peer each interval."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers(range(1, 33))  # exactly 32 peers
    assert h.monitor.n_buckets() == 1
    h.monitor.start()
    sim.run(until=0.4)  # one tick at t=0
    assert sorted(h.probes) == list(range(1, 33))


@pytest.mark.parametrize("n_peers,expected_buckets", [
    (33, 2), (64, 2), (65, 3), (256, 8),
])
def test_bucket_count_scales_ceil(n_peers, expected_buckets):
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers(range(1, n_peers + 1))
    assert h.monitor.n_buckets() == expected_buckets
    assert h.monitor.stats() == {"fd.buckets": expected_buckets}


def test_staggered_every_peer_probed_once_per_interval():
    """With 64 peers in 2 buckets, sub-ticks alternate buckets but each
    full interval still probes every peer exactly once."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers(range(1, 65))
    h.monitor.start()
    sim.run(until=0.49)  # sub-ticks at t=0 and t=0.25: one full interval
    assert sorted(h.probes) == list(range(1, 65))
    # Sub-ticks must not probe everyone at once (the burst is halved).
    first_subtick = h.probes[:32]
    assert len(set(p % 2 for p in first_subtick)) == 1


def test_staggered_silent_peer_still_suspected():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers(range(1, 65))
    h.monitor.start()

    def feed_all_but_one():
        for peer in range(2, 65):
            h.monitor.note_heartbeat(peer)

    for t in range(1, 40):
        sim.call_at(t * 0.5, feed_all_but_one)
    sim.run(until=10.0)
    assert h.suspects == [1]
