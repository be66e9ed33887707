"""Property-based tests: the transport is reliable-FIFO over lossy links."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Lan, Transport
from repro.sim import Cpu, Simulator


@given(
    seed=st.integers(0, 2**16),
    loss=st.floats(0.0, 0.45),
    messages=st.lists(st.binary(min_size=0, max_size=6000), min_size=1, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_lossy_link_delivers_everything_in_order_exactly_once(seed, loss, messages):
    sim = Simulator(seed=seed)
    lan = Lan(sim, loss_rate=loss)
    got = []
    Transport(sim, lan, 1, 0, Cpu(sim), lambda src, data: got.append(data))
    sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda src, data: None)
    for message in messages:
        sender.send(1, message)
    sim.run(until=300.0)
    assert got == messages


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(0, 20_000), min_size=1, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_fragmentation_is_invisible_to_receiver(seed, sizes):
    sim = Simulator(seed=seed)
    lan = Lan(sim, loss_rate=0.1)
    rng = sim.rng("testdata")
    messages = [bytes(rng.randrange(256) for _ in range(n)) for n in sizes]
    got = []
    Transport(sim, lan, 1, 0, Cpu(sim), lambda src, data: got.append(data))
    sender = Transport(sim, lan, 0, 0, Cpu(sim), lambda src, data: None)
    for message in messages:
        sender.send(1, message)
    sim.run(until=600.0)
    assert got == messages
