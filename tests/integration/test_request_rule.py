"""One request rule to a group's coordinator (``core/rpc.py``).

A forwarded multicast, a GBCAST, a join and a leave go to the group's
coordinator and are sent again until their commit notice arrives; a
retry of a request the group delivered is answered from the record every
member writes at delivery, never executed twice.  A name-service request
to the site-view coordinator is sent again when that site leaves the
site view (``core/namespace.py``).
"""

import importlib.util
import os

import pytest

from conformance import deploy_group
from repro import ALL, IsisCluster
from repro.errors import NoSuchGroup
from repro.msg.address import make_group_address
from repro.sim import sleep

_SWEEP = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "scripts", "crash_sweep.py")


def _crash_sweep():
    spec = importlib.util.spec_from_file_location("crash_sweep", _SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


crash_sweep = _crash_sweep()


@pytest.mark.parametrize("kind,caller_site", crash_sweep.KINDS)
def test_request_commits_once_whenever_the_coordinator_crashes(
        kind, caller_site):
    """Site 0 coordinates and crashes at every 5 ms instant in 0-200 ms
    of the request's flight: both survivors deliver it exactly once, and
    at some instant a retry of a delivered request is answered from the
    record (``request.duplicates``)."""
    duplicates = 0
    for delay in crash_sweep.DELAYS:
        counts, caught = crash_sweep.run(kind, caller_site, delay, seed=1)
        assert counts == [1, 1], f"crash at {delay * 1000:.0f} ms"
        duplicates += caught
    assert duplicates >= 1


@pytest.mark.parametrize("kind", crash_sweep.NAME_KINDS)
def test_a_name_service_call_resolves_whenever_the_coordinator_crashes(
        kind):
    """A ``pg_create`` or a ``pg_lookup`` of an absent name from site 3,
    with site 0, the site-view coordinator, crashed at every 5 ms
    instant in 0-200 ms: the call resolves, and the survivors' replicas
    name the group alike."""
    for delay in crash_sweep.DELAYS:
        assert crash_sweep.run_name(kind, delay, seed=1), (
            f"crash at {delay * 1000:.0f} ms")


def test_gbcast_from_a_non_member_collects_every_reply():
    """The coordinator tells a caller outside the group the GBCAST's
    delivery view, so ``nwant=ALL`` knows whom to wait for."""
    system = IsisCluster(n_sites=4, seed=3)
    members, _ = deploy_group(system, "g", 3, 5.0, entry=17)
    for site, (proc, isis) in enumerate(members):
        def answer(msg, isis=isis, site=site):
            yield isis.reply(msg, answer=site)
        proc.bind(17, answer)
    caller, isis = system.spawn(3, "caller")

    def call():
        gid = yield isis.pg_lookup("g")
        replies = yield isis.gbcast(gid, 17, nwant=ALL, q="x")
        return sorted(r["answer"] for r in replies)

    task = caller.spawn(call(), "call")
    system.run_for(30.0)
    assert task.done and task.value == [0, 1, 2]


@pytest.mark.parametrize("op", ["cbcast", "abcast", "gbcast", "pg_join"])
def test_a_request_to_a_group_no_site_hosts_fails(op):
    """Every live site naks it: the caller gets ``NoSuchGroup``."""
    system = IsisCluster(n_sites=3, seed=4)
    deploy_group(system, "g", 3, 5.0)
    caller, isis = system.spawn(1, "caller")
    ghost = make_group_address(0, 77)

    def call():
        try:
            if op == "pg_join":
                yield isis.pg_join(ghost)
            else:
                yield getattr(isis, op)(ghost, 16, nwant=1, q="x")
        except NoSuchGroup:
            return "no such group"
        return "settled"

    task = caller.spawn(call(), "call")
    system.run_for(5.0)
    assert task.done and task.value == "no such group"
    assert not system.kernel(1).rpc._requests


def test_the_record_stays_bounded():
    """A caller's entries in a member's record are no more than the
    requests it had outstanding when it sent its latest, and go when
    its site leaves the site view."""
    system = IsisCluster(n_sites=4, seed=5)
    members, got = deploy_group(system, "g", 3, 5.0)
    client, isis = system.spawn(3, "client")
    box = {}

    def send(count, pause):
        gid = box["gid"] = yield isis.pg_lookup("g")
        for i in range(count):
            yield isis.cbcast(gid, 16, nwant=0, i=i)
            yield sleep(system.sim, pause)

    def entries():
        caller = (3, system.site(3).incarnation)
        return [len(system.kernel(site).engines[box["gid"]].committed
                    .get(caller, ())) for site in range(3)]

    client.spawn(send(8, 0.0), "burst")     # eight outstanding at once
    system.run_for(5.0)
    assert [len(m) for m in got.values()] == [8, 8, 8]
    assert all(0 < n <= 8 for n in entries())
    client.spawn(send(6, 1.0), "one by one")
    system.run_for(10.0)
    assert [len(m) for m in got.values()] == [14, 14, 14]
    assert not system.kernel(3).rpc._requests
    assert entries() == [1, 1, 1]
    system.crash_site(3)
    system.run_for(30.0)
    assert 3 not in system.kernel(0).site_view.sites()
    assert entries() == [0, 0, 0]


def test_a_leave_then_a_death_leaves_no_request_behind():
    """A member asked to leave and then died: one removal request for it,
    settled by the view without it — nothing re-sent afterwards."""
    system = IsisCluster(n_sites=3, seed=6)
    members, _ = deploy_group(system, "g", 3, 5.0)
    kernel = system.kernel(2)
    (gid,) = kernel.engines
    sent = []
    send = kernel.send_to_site

    def counting(site, msg):
        sent.append(msg["_proto"])
        return send(site, msg)

    kernel.send_to_site = counting
    proc, isis = members[2]

    def leave():
        yield isis.pg_leave(gid)

    proc.spawn(leave(), "leave")
    system.run_for(0.05)
    assert ("g.leave", gid, proc.address.process()) in kernel.rpc._requests
    proc.kill()
    system.run_for(10.0)
    assert not kernel.rpc._requests
    leaves = sent.count("g.leave")
    system.run_for(30.0)
    assert sent.count("g.leave") == leaves
    view = system.kernel(0).engines[gid].view
    assert [m.site for m in view.members] == [0, 1]
