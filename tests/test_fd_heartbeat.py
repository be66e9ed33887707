"""Unit tests for the adaptive heartbeat failure detector."""

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
    h.monitor.set_peers([(1, 0), (2, 0)])
    h.monitor.start()
    sim.run(until=1.9)
    # 4 ticks (t=0, .5, 1.0, 1.5) x 2 peers
    assert len(h.probes) == 8
    assert set(h.probes) == {1, 2}


def test_self_excluded_from_peers():
    sim = Simulator()
    h = Harness(sim, site_id=3)
    h.monitor.set_peers([(3, 0), (1, 0)])
    h.monitor.start()
    sim.run(until=0.1)
    assert set(h.probes) == {1}


def test_silent_peer_suspected_after_min_timeout():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(1, 0)])
    h.monitor.start()
    sim.run(until=5.0)
    assert h.suspects == [[1]]
    assert h.monitor.suspected == {1}


def test_heartbeats_prevent_suspicion():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(1, 0)])
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
    h.monitor.set_peers([(1, 0)])
    h.monitor.start()
    sim.run(until=30.0)
    assert h.suspects == [[1]]


def test_readded_peer_forgiven():
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(1, 0)])
    h.monitor.start()
    sim.run(until=5.0)
    assert h.monitor.suspected == {1}
    h.monitor.set_peers([(2, 0)])          # view excludes site 1 ...
    h.monitor.set_peers([(1, 0), (2, 0)])  # ... then re-admits it
    assert h.monitor.suspected == set()


def test_a_suspicion_lapses_with_its_incarnation():
    """A peer listed under a new incarnation, with no view between that
    drops it, is unsuspected and watched afresh: if that incarnation
    falls silent too, it is reported again."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(1, 0)])
    h.monitor.start()
    sim.run(until=5.0)
    assert h.suspects == [[1]]
    h.monitor.set_peers([(1, 1)])
    assert h.monitor.suspected == set()
    sim.run(until=10.0)
    assert h.suspects == [[1], [1]]


def test_jittery_peer_gets_longer_timeout():
    """§3.7 adaptivity: irregular arrivals stretch the timeout."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(1, 0)])
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
    h.monitor.set_peers([(1, 0)])
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
    h.monitor.set_peers([(1, 0), (2, 0)])
    h.monitor.start()
    sim.run(until=0.1)
    h.monitor.set_peers([(2, 0)])
    h.probes.clear()
    sim.run(until=1.2)
    assert set(h.probes) == {2}


# -- one tick checks every peer ------------------------------------------------

def test_one_tick_probes_every_peer():
    """However many peers there are, each tick probes all of them."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(p, 0) for p in range(1, 65)])
    h.monitor.start()
    sim.run(until=0.1)  # one tick, at t=0
    assert sorted(h.probes) == list(range(1, 65))


def test_a_correlated_silence_is_reported_as_one_list():
    """Peers that fall silent together reach ``on_suspect`` in one call,
    and the peers that keep talking are not in it."""
    sim = Simulator()
    h = Harness(sim)
    h.monitor.set_peers([(p, 0) for p in range(1, 65)])
    h.monitor.start()
    silent = [1, 2, 33, 64]

    def feed_the_rest():
        for peer in range(1, 65):
            if peer not in silent:
                h.monitor.note_heartbeat(peer)

    for t in range(1, 40):
        sim.call_at(t * 0.5, feed_the_rest)
    sim.run(until=10.0)
    assert h.suspects == [silent]
    assert sim.trace.value("fd.suspicion_bursts") == 1
