"""The reliable channel core on an in-memory wire (``fake_wire.py``).

What the channel promises, checked against ground truth the harness
keeps outside it, under loss, duplication, reordering, ``reset_channel``
and restarts of either end:

* per (sender incarnation, receiver incarnation) delivery is exactly
  once and FIFO, and a gap in it is only ever an abandoned numbering;
* a send's promise resolves only if the message reached the incarnation
  the sender knew when it sent (any, if it had heard from none), and a
  reset rejects every send pending on the channel;
* an endpoint with nothing owed (``outbound_idle``) holds no timer, and
  a healed wire leaves no send pending.

Run as a script it prints the loss profile table of ARCHITECTURE.md.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fake_wire import DELIVER, DROP, DUPLICATE, FakeEndpoint, FakeWire
from repro.net.packet import KIND_RAW
from repro.sim import Simulator

A, B = 0, 1


class Harness:
    """Two sites, their successive incarnations, and the ground truth."""

    def __init__(self, fates=(), emit_delay=0.0, first_epoch=0,
                 window=FakeEndpoint.WINDOW):
        self.sim = Simulator()
        self.wire = FakeWire(self.sim, fates)
        self.window = window
        self.emit_delay = emit_delay
        self.first_epoch = first_epoch
        self.restarts = {A: 0, B: 0}
        self.live = {}
        #: Every incarnation ever booted: (site, restarts so far) -> endpoint.
        self.incarnations = {}
        #: Peer incarnation (restart count) a live endpoint last heard from.
        self.heard = {}
        self.sends = []
        for site in (A, B):
            self._boot(site)

    def _boot(self, site):
        count = self.restarts[site]
        endpoint = FakeEndpoint(self.wire, site, (self.first_epoch + count) & 0xFF,
                                self.emit_delay, self.window)
        receive = endpoint._receive

        def listening(frame):
            if frame.kind != KIND_RAW and endpoint.alive:
                theirs = (frame.epoch - self.first_epoch) & 0xFF
                self.heard[site] = max(self.heard.get(site, -1), theirs)
            receive(frame)

        endpoint._receive = listening
        self.live[site] = self.incarnations[site, count] = endpoint
        self.heard.pop(site, None)

    # -- the operations a scenario is made of -----------------------------
    def send(self, src, size=4):
        ident = len(self.sends)
        data = struct.pack("!I", ident) + bytes(max(0, size - 4))
        promise = self.live[src].send(1 - src, data)
        self.sends.append(dict(id=ident, src=src, src_inc=self.restarts[src],
                               knew=self.heard.get(src), promise=promise))
        return promise

    def reset(self, src):
        pending = [s["promise"] for s in self.sends
                   if s["src"] == src and s["src_inc"] == self.restarts[src]
                   and not s["promise"].done]
        self.live[src].reset_channel(1 - src)
        assert all(p.rejected for p in pending)

    def crash(self, site):
        """Frames to the site vanish until it boots again."""
        endpoint = self.live[site]
        endpoint.shutdown()
        assert not endpoint.clock.armed, "shutdown left a timer"

    def boot(self, site):
        self.restarts[site] += 1
        self._boot(site)

    def restart(self, site):
        self.crash(site)
        self.boot(site)

    def run(self, seconds):
        self.sim.run(until=self.sim.now + seconds)
        for endpoint in self.live.values():
            if endpoint.outbound_idle():
                assert not endpoint.clock.armed, "idle endpoint holds a timer"

    def settle(self):
        """Heal the wire and give every backoff time to run out."""
        self.wire.heal()
        self.run(60 * FakeEndpoint.RTO)

    # -- ground truth -----------------------------------------------------
    def delivered(self, site, count):
        """Ids handed up at one incarnation, in order."""
        return [struct.unpack("!I", data[:4])[0]
                for _, data in self.incarnations[site, count].inbox]

    def check(self):
        where = {}  # send id -> receiver incarnations it was delivered at
        for (site, count) in self.incarnations:
            by_sender = {}
            for ident in self.delivered(site, count):
                where.setdefault(ident, set()).add(count)
                by_sender.setdefault(self.sends[ident]["src_inc"], []).append(ident)
            for src_inc, idents in by_sender.items():
                assert idents == sorted(set(idents)), \
                    f"not exactly-once FIFO at {site}.{count}: {idents}"
                # Whatever was skipped between two deliveries had been
                # abandoned by a reset before the later one was numbered.
                for earlier, later in zip(idents, idents[1:]):
                    for skipped in self.sends[earlier + 1:later]:
                        if (skipped["src"], skipped["src_inc"]) == (1 - site, src_inc):
                            assert skipped["promise"].rejected, \
                                f"{skipped['id']} skipped at {site}.{count}: {idents}"
        for send in self.sends:
            promise = send["promise"]
            assert promise.done, f"send {send['id']} still pending"
            if not promise.rejected:
                reached = where.get(send["id"], set())
                assert reached, f"send {send['id']} resolved, never delivered"
                if send["knew"] is not None:
                    assert send["knew"] in reached, \
                        f"send {send['id']} meant for {send['knew']}, reached {reached}"
        for endpoint in self.live.values():
            assert endpoint.outbound_idle() and not endpoint.clock.armed


# ----------------------------------------------------------------------
# Random scenarios
# ----------------------------------------------------------------------
FATES = st.sampled_from([DELIVER] * 5 + [DROP, DROP, DUPLICATE, 1, 3, 12])
OPS = st.one_of(
    st.tuples(st.just("send"), st.sampled_from([A, B]), st.integers(4, 40)),
    st.tuples(st.just("send"), st.sampled_from([A, B]), st.integers(4, 40)),
    st.tuples(st.just("run"), st.sampled_from([0.05, 0.3, 2.5])),
    st.tuples(st.just("reset"), st.sampled_from([A, B])),
    st.tuples(st.just("restart"), st.sampled_from([A, B])),
)


@given(
    window=st.sampled_from([1, 2, 64]),
    emit_delay=st.sampled_from([0.0, 0.02]),
    first_epoch=st.sampled_from([0, 254]),   # 254: restarts wrap 255 -> 0
    fates=st.lists(FATES, max_size=120),
    ops=st.lists(OPS, min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_channel_promises_hold_under_faults_resets_and_restarts(
        window, emit_delay, first_epoch, fates, ops):
    harness = Harness(fates, emit_delay, first_epoch, window)
    for op, *args in ops:
        getattr(harness, op)(*args)
    harness.settle()
    harness.check()


@given(
    window=st.sampled_from([1, 2, 64]),
    fates=st.lists(FATES, max_size=200),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_any_size_arrives_intact_in_order(window, fates, sizes):
    """0 to 5x ``mtu`` bytes, empty messages included: with no reset in
    play what arrives is exactly what was sent."""
    harness = Harness(fates, window=window)
    rng = random.Random(len(fates))
    messages = [bytes(rng.randrange(256) for _ in range(n)) for n in sizes]
    promises = [harness.live[A].send(B, m) for m in messages]
    harness.settle()
    assert [data for _, data in harness.live[B].inbox] == messages
    assert all(p.done and not p.rejected for p in promises)


# ----------------------------------------------------------------------
# The two restart bugs of the twin transports (ISSUE 15)
# ----------------------------------------------------------------------
def _restart_under_traffic(b_had_spoken):
    """``A`` sends m0..m2 to ``B``; ``B`` restarts; ``A`` sends ``old``
    into the void and keeps probing; one probe reaches the new ``B``."""
    harness = Harness()
    if b_had_spoken:
        harness.send(B)
    for _ in range(3):
        harness.send(A)
    harness.run(1.0)
    harness.crash(B)
    old = harness.send(A)
    harness.run(1.0)
    harness.boot(B)
    harness.run(3.0)                        # a probe of ``old`` arrives
    return harness, old


def test_stale_frame_does_not_shadow_the_successor_channel():
    """Variant 1: the new incarnation speaks, ``A`` restarts numbering,
    and the stale seq-3 probe buffered at ``B'`` must not be delivered in
    place of the new channel's fourth frame."""
    harness, old = _restart_under_traffic(b_had_spoken=True)
    harness.send(B)
    harness.run(1.0)
    assert old.rejected
    news = [harness.send(A) for _ in range(6)]
    harness.settle()
    assert harness.delivered(B, 1) == [6, 7, 8, 9, 10, 11]
    assert all(p.done and not p.rejected for p in news)
    harness.check()


def test_ack_from_a_restarted_peer_resets_the_channel():
    """Variant 2: ``B`` never sent data, so only its ACKs can tell ``A``
    it restarted; without that ``A`` keeps the old numbering and ``B'``
    buffers it forever."""
    harness, old = _restart_under_traffic(b_had_spoken=False)
    assert old.rejected
    assert harness.sim.trace.value("transport.peer_restarts") == 1
    news = [harness.send(A) for _ in range(6)]
    harness.settle()
    assert harness.delivered(B, 1) == [4, 5, 6, 7, 8, 9]
    assert all(p.done and not p.rejected for p in news)
    harness.check()


def test_late_ack_of_an_abandoned_numbering_acknowledges_nothing():
    harness = Harness(fates=[DELIVER, 8])   # hold the ACK back
    harness.send(A)
    harness.run(0.15)                   # delivered at B, its ACK in flight
    harness.reset(A)
    news = [harness.send(A) for _ in range(3)]
    harness.wire.fates = iter([DROP, DROP, DROP])
    harness.run(0.9)                    # the old ACK lands; the new frames were lost
    assert not any(p.done for p in news)
    harness.settle()
    assert harness.delivered(B, 0) == [0, 1, 2, 3]
    harness.check()


# ----------------------------------------------------------------------
# The loss soft spot, characterised
# ----------------------------------------------------------------------
class _WholeFrameEndpoint(FakeEndpoint):
    """A message of 64 bytes is one frame."""

    MTU = 1200


def loss_profile(loss, messages=2000, per_rto=20, seed=1):
    """One channel at a fixed offered load over a wire losing ``loss`` of
    all frames, either way.  Returns (time from the last send to the last
    acknowledgement in ``rto``, retransmits per message, peak backlog in
    frames).

    Recovery is one probe of the oldest frame per ``rto``, so every loss
    holds the head of the line for an ``rto`` and capacity is about
    ``1 / (loss * rto)`` frames: 20 per ``rto`` is 20 %, 40 % and 100 %
    of it at 1, 2 and 5 %.
    """
    rng = random.Random(seed)

    def fates():
        while True:
            yield DROP if rng.random() < loss else DELIVER

    sim = Simulator()
    wire = FakeWire(sim, fates(), latency=0.01)
    sender = _WholeFrameEndpoint(wire, A, 0)
    _WholeFrameEndpoint(wire, B, 0)
    rto = _WholeFrameEndpoint.RTO
    peak = 0
    for _ in range(messages):
        sender.send(B, bytes(64))
        peak = max(peak, len(sender._send_channels[B].backlog))
        sim.run(until=sim.now + rto / per_rto)
    offered_until = sim.now
    while not sender.outbound_idle():
        sim.run(until=sim.now + rto / per_rto)
    return ((sim.now - offered_until) / rto,
            sender.retransmits / messages, peak)


def test_loss_profile_saturates_near_five_percent():
    """Loose pins on the ARCHITECTURE.md table: up to 2 % loss the
    channel keeps up with the offered load (bursts queue, then drain);
    at 5 % it is past capacity, the backlog grows for as long as the load
    lasts and draining it takes on the order of a hundred ``rto``."""
    assert loss_profile(0.0) == (pytest.approx(0.0, abs=0.1), 0, 0)
    for loss, max_drain, max_peak in ((0.01, 10, 150), (0.02, 45, 500)):
        drain, retransmits, peak = loss_profile(loss)
        assert drain < max_drain and peak < max_peak
        assert loss / 2 < retransmits < loss * 2
    drain, retransmits, peak = loss_profile(0.05)
    assert drain > 80 and peak > 600
    assert 0.025 < retransmits < 0.1


if __name__ == "__main__":
    print("loss   drain/rto  retransmits/msg  peak backlog")
    for loss in (0.0, 0.01, 0.02, 0.05):
        drain, retransmits, peak = loss_profile(loss)
        print(f"{loss:4.0%}  {drain:9.1f}  {retransmits:15.3f}  {peak:12d}")
