"""Unit and scenario tests for the LAN and reliable transport."""

import pytest

from repro.errors import SiteDown
from repro.net import Frame, Lan, Transport
from repro.net.packet import KIND_ACK, KIND_DATA
from repro.sim import Cpu, Simulator


def make_pair(sim, loss_rate=0.0, sites=(0, 1)):
    """Two sites wired through one LAN; returns (lan, transports, inboxes)."""
    lan = Lan(sim, loss_rate)
    transports = {}
    inboxes = {site: [] for site in sites}

    def receiver(site):
        def on_message(src, data):
            inboxes[site].append((src, data))
        return on_message

    for site in sites:
        transports[site] = Transport(
            sim, lan, site, epoch=0, cpu=Cpu(sim, f"cpu{site}"),
            on_message=receiver(site),
        )
    return lan, transports, inboxes


class TestLan:
    def test_inter_site_delay_applied(self):
        sim = Simulator()
        lan = Lan(sim)
        arrivals = []
        lan.attach(1, lambda f: arrivals.append(sim.now))
        lan.send(Frame(kind="data", src_site=0, dst_site=1))
        sim.run()
        assert arrivals == [pytest.approx(0.016)]

    def test_intra_site_delay_applied(self):
        sim = Simulator()
        lan = Lan(sim)
        arrivals = []
        lan.attach(0, lambda f: arrivals.append(sim.now))
        lan.send(Frame(kind="data", src_site=0, dst_site=0))
        sim.run()
        assert arrivals == [pytest.approx(0.010)]

    def test_detached_site_drops_frames(self):
        sim = Simulator()
        lan = Lan(sim)
        lan.send(Frame(kind="data", src_site=0, dst_site=9))
        sim.run()
        assert sim.trace.value("lan.dropped.detached") == 1

    def test_partition_drops_cross_frames(self):
        sim = Simulator()
        lan = Lan(sim)
        got = []
        lan.attach(1, got.append)
        lan.attach(2, got.append)
        lan.partition([[0, 1], [2]])
        lan.send(Frame(kind="data", src_site=0, dst_site=1))
        lan.send(Frame(kind="data", src_site=0, dst_site=2))
        sim.run()
        assert len(got) == 1
        assert sim.trace.value("lan.dropped.partition") == 1
        lan.heal()
        lan.send(Frame(kind="data", src_site=0, dst_site=2))
        sim.run()
        assert len(got) == 2

    def test_loss_rate_drops_some_frames(self):
        sim = Simulator(seed=1)
        lan = Lan(sim, loss_rate=0.5)
        got = []
        lan.attach(1, got.append)
        for _ in range(100):
            lan.send(Frame(kind="data", src_site=0, dst_site=1))
        sim.run()
        dropped = sim.trace.value("lan.dropped.loss")
        assert dropped > 0
        assert len(got) + dropped == 100


class TestTransport:
    def test_basic_delivery(self):
        sim = Simulator()
        _, transports, inboxes = make_pair(sim)
        transports[0].send(1, b"hello")
        sim.run()
        assert inboxes[1] == [(0, b"hello")]

    def test_fifo_order_preserved(self):
        sim = Simulator()
        _, transports, inboxes = make_pair(sim)
        for i in range(20):
            transports[0].send(1, f"msg{i}".encode())
        sim.run()
        assert [d for _, d in inboxes[1]] == [f"msg{i}".encode() for i in range(20)]

    def test_large_message_fragmented_and_reassembled(self):
        sim = Simulator()
        data = bytes(range(256)) * 64  # 16 KB -> 4 fragments at 4 KB MTU
        _, transports, inboxes = make_pair(sim)
        transports[0].send(1, data)
        sim.run()
        assert inboxes[1] == [(0, data)]
        assert sim.trace.value("lan.frames.inter") >= 4

    def test_send_promise_resolves_on_ack(self):
        sim = Simulator()
        _, transports, _ = make_pair(sim)
        promise = transports[0].send(1, b"payload")
        sim.run()
        assert promise.done and not promise.rejected

    def test_reliable_over_lossy_link(self):
        sim = Simulator(seed=42)
        _, transports, inboxes = make_pair(sim, loss_rate=0.3)
        for i in range(30):
            transports[0].send(1, f"m{i}".encode())
        # Probe-based recovery with exponential backoff needs headroom
        # at 30% loss.
        sim.run(until=240.0)
        assert [d for _, d in inboxes[1]] == [f"m{i}".encode() for i in range(30)]
        assert sim.trace.value("transport.retransmits") > 0

    def test_no_duplicate_deliveries_despite_retransmits(self):
        sim = Simulator(seed=7)
        _, transports, inboxes = make_pair(sim, loss_rate=0.4)
        transports[0].send(1, b"only-once")
        sim.run(until=30.0)
        assert inboxes[1] == [(0, b"only-once")]

    def test_window_limits_outstanding_then_drains(self, monkeypatch):
        monkeypatch.setattr(Transport, "WINDOW", 2)
        sim = Simulator()
        lan, transports, inboxes = make_pair(sim)
        # Seen on the wire: a data frame from site 0 is unacked until a
        # cumulative ACK naming its seq reaches site 0.
        acked, outstanding = [-1], []
        send, receive = lan.send, transports[0]._receive

        def on_send(frame):
            if frame.kind == KIND_DATA and frame.src_site == 0:
                outstanding.append(frame.seq - acked[0])
            send(frame)

        def on_arrive(frame):
            if frame.kind == KIND_ACK:
                acked[0] = max(acked[0], frame.ack)
            receive(frame)

        monkeypatch.setattr(lan, "send", on_send)
        lan.attach(0, on_arrive)
        for i in range(10):
            transports[0].send(1, f"w{i}".encode())
        sim.run()
        assert len(inboxes[1]) == 10
        assert len(outstanding) == 10  # no loss: no retransmit
        assert max(outstanding) == 2

    def test_local_delivery_uses_intra_site_path(self):
        sim = Simulator()
        _, transports, inboxes = make_pair(sim)
        transports[0].send(0, b"loopback")
        sim.run()
        assert inboxes[0] == [(0, b"loopback")]

    def test_shutdown_rejects_pending_sends(self):
        sim = Simulator()
        lan = Lan(sim)
        sink = Transport(sim, lan, 1, 0, Cpu(sim), lambda s, d: None)
        lan.detach(1)  # frames vanish: promise can never resolve
        sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda s, d: None)
        promise = sender.send(1, b"doomed")
        sim.call_after(1.0, sender.shutdown)
        sim.run(until=2.0)
        assert promise.rejected
        assert isinstance(promise.exception, SiteDown)
        assert sink.alive  # unrelated transport unaffected

    def test_send_after_shutdown_rejected(self):
        sim = Simulator()
        lan = Lan(sim)
        sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda s, d: None)
        sender.shutdown()
        promise = sender.send(1, b"late")
        assert promise.rejected

    def test_reset_channel_rejects_only_that_destination(self):
        sim = Simulator()
        lan = Lan(sim)
        sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda s, d: None)
        inbox = []
        Transport(sim, lan, 2, 0, Cpu(sim), lambda s, d: inbox.append(d))
        doomed = sender.send(1, b"to-dead-site")
        fine = sender.send(2, b"to-live-site")
        sim.call_after(0.5, sender.reset_channel, 1)
        sim.run(until=5.0)
        assert doomed.rejected
        assert fine.done and not fine.rejected
        assert inbox == [b"to-live-site"]

    def test_stale_epoch_frames_ignored(self):
        sim = Simulator()
        lan = Lan(sim)
        inbox = []
        Transport(sim, lan, 1, 0, Cpu(sim), lambda s, d: inbox.append(d))
        old = Transport(sim, lan, 0, epoch=2, cpu=Cpu(sim), on_message=lambda s, d: None)
        old.send(1, b"new-epoch")
        sim.run()
        # Now a frame from epoch 1 (older) arrives: must be dropped.
        lan.send(Frame(kind="data", src_site=0, dst_site=1, epoch=1, seq=0,
                       msg_id=9, payload=b"stale"))
        sim.run()
        assert inbox == [b"new-epoch"]
        assert sim.trace.value("transport.stale_epoch") == 1


class TestPeerRestart:
    """The two restart bugs the twin transports shared (ISSUE 15), once
    through the simulator adapter; ``tests/properties/
    test_reliable_channel_properties.py`` has them on the bare core."""

    def _restart_under_traffic(self, b_had_spoken):
        """``A`` sends m0..m2 to ``B``; ``B`` crashes; ``A`` sends ``old``
        and keeps probing; ``B'`` boots and one probe reaches it."""
        sim = Simulator()
        lan = Lan(sim)
        inbox = []
        a = Transport(sim, lan, 0, 0, Cpu(sim, "a"), lambda s, d: None)
        b = Transport(sim, lan, 1, 0, Cpu(sim, "b"), lambda s, d: None)
        if b_had_spoken:
            b.send(0, b"hello")
        for i in range(3):
            a.send(1, b"m%d" % i)
        sim.run(until=1.0)
        b.shutdown()
        old = a.send(1, b"old")
        sim.run(until=2.0)
        b2 = Transport(sim, lan, 1, 1, Cpu(sim, "b2"),
                       lambda s, d: inbox.append(d))
        sim.run(until=4.0)
        return sim, a, b2, old, inbox

    def test_stale_frame_does_not_shadow_the_successor_channel(self):
        sim, a, b2, old, inbox = self._restart_under_traffic(True)
        b2.send(0, b"hello again")
        sim.run(until=5.0)
        assert old.rejected
        news = [a.send(1, b"n%d" % i) for i in range(6)]
        sim.run(until=30.0)
        assert inbox == [b"n%d" % i for i in range(6)]
        assert all(p.done and not p.rejected for p in news)

    def test_ack_from_a_restarted_peer_resets_the_channel(self):
        sim, a, b2, old, inbox = self._restart_under_traffic(False)
        assert old.rejected
        assert sim.trace.value("transport.peer_restarts") == 1
        news = [a.send(1, b"n%d" % i) for i in range(6)]
        sim.run(until=30.0)
        assert inbox == [b"n%d" % i for i in range(6)]
        assert all(p.done and not p.rejected for p in news)
        assert a.outbound_idle()


class TestCumulativeAcks:
    def test_default_acks_every_frame(self):
        sim = Simulator()
        lan, transports, inboxes = make_pair(sim)
        for i in range(5):
            transports[0].send(1, b"m%d" % i)
        sim.run()
        assert len(inboxes[1]) == 5
        # One pure ACK frame per in-order data frame.
        assert transports[1].acks_pure == 5

    def test_duplicate_frames_ack_immediately(self, monkeypatch):
        monkeypatch.setattr(Transport, "RTO", 0.2)
        sim = Simulator()
        lan, transports, inboxes = make_pair(sim)
        transports[0].send(1, b"hello")
        sim.run(until=0.010)        # the frame is on the wire
        lan.detach(0)               # its ACK will find nobody home
        sim.run(until=0.100)
        assert transports[1].acks_pure == 1
        assert not transports[0].outbound_idle()
        lan.attach(0, transports[0]._receive)
        sim.run()                   # rto 0.2 forces a duplicate
        assert sim.trace.value("transport.duplicates") == 1
        # The duplicate was answered with the cumulative ACK again.
        assert transports[1].acks_pure == 2
        assert transports[0].outbound_idle()
        assert len(inboxes[1]) == 1

    def test_frame_still_behind_the_cpu_at_a_crash_is_not_acked(self):
        sim = Simulator()
        lan, transports, inboxes = make_pair(sim)
        transports[0].send(1, b"m")
        sim.run(until=0.019)    # off the wire at 0.018, in the CPU queue
        assert transports[1].frames_received == 1
        transports[1].shutdown()
        # The peer keeps retransmitting into the void (the site-view
        # layer is what resets channels in the full system): bound the run.
        sim.run(until=5.0)
        assert transports[1].acks_pure == 0
