"""Unit tests for the replicated namespace (repro.core.namespace)."""

import pytest

from repro.core.kernel import _HANDLERS, PROTOCOLS
from repro.core.namespace import Namespace
from repro.msg import Message, make_group_address
from repro.sim import Simulator

GID_A = make_group_address(0, 1)
GID_B = make_group_address(1, 1)


def deliver(node, src, msg):
    """What the kernel's routing does with an ``ns.*`` message: parse it
    against its declaration, hand the record to the replica's handler."""
    proto = msg["_proto"]
    handler = _HANDLERS[proto][len("namespace."):]
    getattr(node, handler)(src, PROTOCOLS[proto].read(msg))


class Bus:
    def __init__(self, sim, delay=0.01):
        self.sim = sim
        self.delay = delay
        self.nodes = {}

    def sender_for(self, src):
        def send(dst, msg):
            node = self.nodes.get(dst)
            if node is not None:
                raw = msg.encode()
                self.sim.call_after(self.delay, deliver, node, src,
                                    Message.decode(raw))
        return send


def make_cluster(sim, n=3, coordinator=0):
    bus = Bus(sim)
    replicas = {}
    for i in range(n):
        replicas[i] = Namespace(sim, i, bus.sender_for(i))
        bus.nodes[i] = replicas[i]
    sites = list(range(n))
    for i in range(n):
        replicas[i].set_role(i == coordinator, sites)
    return bus, replicas


def test_registration_propagates_to_all_replicas():
    sim = Simulator()
    _, replicas = make_cluster(sim)
    promise = replicas[1].register("svc", GID_A, contact=1, coordinator_site=0)
    sim.run(until=1.0)
    assert promise.done
    for replica in replicas.values():
        assert replica.lookup("svc") == GID_A
        assert replica.contact_hint("svc") == 1


def test_registrations_apply_in_coordinator_order():
    sim = Simulator()
    _, replicas = make_cluster(sim)
    replicas[1].register("a", GID_A, contact=1, coordinator_site=0)
    replicas[2].register("b", GID_B, contact=2, coordinator_site=0)
    sim.run(until=1.0)
    entries = [r.entries() for r in replicas.values()]
    assert all(e == entries[0] for e in entries)
    assert set(entries[0]) == {"a", "b"}


def test_unregister_removes_everywhere():
    sim = Simulator()
    _, replicas = make_cluster(sim)
    replicas[0].register("svc", GID_A, contact=0, coordinator_site=0)
    sim.run(until=1.0)
    replicas[1].unregister("svc", coordinator_site=0)
    sim.run(until=2.0)
    assert all(r.lookup("svc") is None for r in replicas.values())


def test_query_asks_coordinator_on_miss():
    sim = Simulator()
    _, replicas = make_cluster(sim)
    replicas[0].register("svc", GID_A, contact=0, coordinator_site=0)
    sim.run(until=1.0)
    # Fresh replica that missed the update (simulate by wiping).
    replicas[2]._names.clear()
    promise = replicas[2].query("svc", coordinator_site=0)
    sim.run(until=2.0)
    assert promise.value == GID_A


def test_query_returns_none_for_unknown():
    sim = Simulator()
    _, replicas = make_cluster(sim)
    promise = replicas[1].query("ghost", coordinator_site=0)
    sim.run(until=1.0)
    assert promise.value is None


def test_snapshot_brings_new_replica_current():
    sim = Simulator()
    bus, replicas = make_cluster(sim, n=2)
    replicas[0].register("svc", GID_A, contact=0, coordinator_site=0)
    sim.run(until=1.0)
    late = Namespace(sim, 2, bus.sender_for(2))
    bus.nodes[2] = late
    replicas[0].snapshot_to([2])
    sim.run(until=2.0)
    assert late.lookup("svc") == GID_A


def test_new_coordinator_continues_sequence():
    sim = Simulator()
    _, replicas = make_cluster(sim, n=3, coordinator=0)
    replicas[0].register("a", GID_A, contact=0, coordinator_site=0)
    sim.run(until=1.0)
    # Coordinator 0 dies; replica 1 takes over.
    sites = [1, 2]
    replicas[1].set_role(True, sites)
    replicas[2].set_role(False, sites)
    sim.run(until=2.0)
    promise = replicas[2].register("b", GID_B, contact=2, coordinator_site=1)
    sim.run(until=3.0)
    assert promise.done
    assert replicas[1].lookup("a") == GID_A
    assert replicas[2].lookup("b") == GID_B


def test_out_of_order_updates_buffered():
    sim = Simulator()
    bus, replicas = make_cluster(sim, n=2)
    target = replicas[1]
    # Deliver update seq 2 before seq 1 by hand.
    upd2 = Message(_proto="ns.upd", seq=2, op="reg", name="b", gid=GID_B,
                   contact=1)
    upd1 = Message(_proto="ns.upd", seq=1, op="reg", name="a", gid=GID_A,
                   contact=0)
    deliver(target, 0, upd2)
    assert target.lookup("b") is None  # held back
    deliver(target, 0, upd1)
    assert target.lookup("a") == GID_A
    assert target.lookup("b") == GID_B
