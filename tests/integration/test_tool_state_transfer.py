"""Every toolkit tool hands a joiner exactly the state its members hold.

Each tool's replica travels as one codec value (``register_state``), so
values a multicast can carry — addresses, bytes, ints, nested lists and
dicts, strings holding any separator — must arrive as themselves.
"""

import pytest

from repro import IsisCluster, IsisConfig
from repro.tools import (
    BulletinBoard,
    ConfigTool,
    NewsClient,
    NewsServer,
    ReplicatedData,
    SemaphoreClient,
    SemaphoreManager,
    register_raw_state,
    register_state,
)
from repro.tools.realtime import RealTimeTool, SiteClock
from repro.tools.transfer import encode_state

#: A name or subject holding every separator a hand-rolled row used.
NASTY = "a|b,c\nd\x1ee\x1ff"


def hostile_values(address):
    return [address, b"\x00\x01", 5, {"k": [1, 2]}, [address, 2.5, None]]


def _config(isis, gid, system):
    return ConfigTool(isis, gid)


def _fill_config(tool, isis, system, gid):
    for i, value in enumerate(hostile_values(isis.process.address)):
        yield tool.update(f"{NASTY}{i}", value)


def _config_replica(tool):
    return tool.version, tool.snapshot()


def _replication(isis, gid, system):
    return ReplicatedData(isis, gid)


def _fill_replication(tool, isis, system, gid):
    for i, value in enumerate(hostile_values(isis.process.address)):
        yield tool.update(f"{NASTY}{i}", value=value)


def _bboard(isis, gid, system):
    return BulletinBoard(isis, gid)


def _fill_bboard(tool, isis, system, gid):
    for i, body in enumerate(hostile_values(isis.process.address)):
        yield tool.post(f"{NASTY}{i % 2}", NASTY, body)
    yield tool.post_ordered("plain", "subject", "body")


def _bboard_replica(tool):
    return [(p.board, p.author, p.subject, p.body, p.seq)
            for board in tool.boards() for p in tool.read(board)]


def _news(isis, gid, system):
    return NewsServer(isis)


def _fill_news(tool, isis, system, gid):
    client = NewsClient(isis, gid)
    for subject in (NASTY, "plain"):
        yield client.subscribe(subject, lambda msg: None)
    for i in range(3):
        yield client.post(NASTY, f"item-{i}")


def _news_replica(tool):
    return tool._post_seq, tool._subscribers


def _semaphore(isis, gid, system):
    return SemaphoreManager(isis, gid)


def _fill_semaphore(tool, isis, system, gid):
    # Two clients at other sites: one holds NASTY, the other queues on it.
    for site, tag in ((1, "holder"), (0, "waiter")):
        proc, client_isis = system.spawn(site, tag)
        proc.spawn(_p(SemaphoreClient(client_isis, gid), NASTY), tag)
    yield SemaphoreClient(isis, gid).p("plain")


def _p(client, name):
    yield client.p(name)


def _semaphore_replica(tool):
    return {name: ([state.holder[0], state.holder[1].fields()]
                   if state.holder else None,
                   [[k, m.fields()] for k, m in state.queue])
            for name, state in tool._sems.items()}


def _realtime(isis, gid, system):
    return RealTimeTool(isis, SiteClock(system.sim), gid=gid)


def _fill_realtime(tool, isis, system, gid):
    for value in hostile_values(isis.process.address):
        yield tool.post_reading(NASTY, value)


TOOLS = {
    "config": (_config, _fill_config, _config_replica),
    "replication": (_replication, _fill_replication, lambda t: t.items),
    "bboard": (_bboard, _fill_bboard, _bboard_replica),
    "news": (_news, _fill_news, _news_replica),
    "semaphore": (_semaphore, _fill_semaphore, _semaphore_replica),
    "realtime": (_realtime, _fill_realtime, lambda t: t._readings),
}


def deploy(system, make, sites, name):
    """One member with a tool per site in ``sites``; the first creates."""
    tools = []
    box = {}
    proc0, isis0 = system.spawn(sites[0], "m0")

    def create():
        box["gid"] = yield isis0.pg_create(name)
        tools.append(make(isis0, box["gid"], system))

    proc0.spawn(create(), "create")
    system.run_for(3.0)
    members = [(proc0, isis0)]
    for site in sites[1:]:
        members.append(join(system, make, site, box["gid"], tools))
    return box["gid"], members, tools


def join(system, make, site, gid, tools):
    proc, isis = system.spawn(site, f"m{site}")
    tools.append(make(isis, gid, system))

    def main():
        yield isis.pg_join(gid)

    proc.spawn(main(), "join")
    system.run_for(20.0)
    return proc, isis


@pytest.mark.parametrize("tool", sorted(TOOLS))
def test_joiner_replica_equals_members(tool):
    make, fill, replica = TOOLS[tool]
    system = IsisCluster(n_sites=3, seed=71)
    name = "@news" if tool == "news" else "svc"
    gid, members, tools = deploy(system, make, (0, 1), name)
    proc, isis = members[0]
    proc.spawn(fill(tools[0], isis, system, gid), "fill")
    system.run_for(30.0)
    join(system, make, 2, gid, tools)
    system.run_for(10.0)
    assert replica(tools[0]) == replica(tools[1])
    assert replica(tools[2]) == replica(tools[0])


def test_news_joiner_numbers_posts_after_old_server_fails():
    """A server that joined after three posts serves the fourth to
    sixth once the old server dies: none is dropped as a duplicate."""
    system = IsisCluster(n_sites=3, seed=72)
    gid, members, servers = deploy(system, _news, (0,), "@news")
    reader, isis_r = system.spawn(2, "reader")
    got = []

    def post(first):
        client = NewsClient(isis_r, gid)
        for i in range(first, first + 3):
            yield client.post("sports", f"item-{i}")

    def subscribe_and_post():
        yield NewsClient(isis_r, gid).subscribe(
            "sports", lambda msg: got.append(msg["body"]))
        yield from post(0)

    reader.spawn(subscribe_and_post(), "first")
    system.run_for(20.0)
    join(system, _news, 1, gid, servers)
    system.crash_site(0)
    system.run_for(30.0)
    reader.spawn(post(3), "second")
    system.run_for(30.0)
    assert got == [f"item-{i}" for i in range(6)]


def test_refused_segment_is_counted_and_fetched_again():
    """A segment the codec refuses never raises out of ``run_for``: it is
    counted as a bad stream and the joiner's re-request fetches it."""
    system = IsisCluster(n_sites=2, seed=73)
    sent = []

    def snapshot():
        # The first snapshot is not a codec message; later ones are.
        sent.append(1)
        return b"\xff" if len(sent) == 1 else encode_state([b"\x00", 5])

    def source(isis, gid, system):
        register_raw_state(isis, "s", snapshot, lambda blob: None)

    gid, members, _ = deploy(system, source, (0,), "svc")
    got = {}
    proc, isis = system.spawn(1, "joiner")
    register_state(isis, "s", lambda: None, lambda value: got.update(v=value))

    def main():
        yield isis.pg_join(gid)

    task = proc.spawn(main(), "join")
    system.run_for(30.0)
    assert system.sim.trace.value("state_transfer.bad_stream") == 1
    assert len(sent) == 2
    assert task.done and not task.rejected
    assert got["v"] == [b"\x00", 5]


def test_replicated_checkpoint_keeps_values():
    """The WAL's checkpoint uses the same codec: a reload after total
    failure restores addresses and bytes as themselves."""
    system = IsisCluster(n_sites=2, seed=74, isis_config=IsisConfig(
        durability=True, wal_checkpoint_every=3))

    def make(isis, gid, system):
        return ReplicatedData(isis, gid, name="kv")

    gid, members, tools = deploy(system, make, (0,), "svc")
    proc, isis = members[0]
    proc.spawn(_fill_replication(tools[0], isis, system, gid), "fill")
    system.run_for(20.0)
    # The group's first checkpoint is taken at its creation, before the
    # tool registered its segment: a later one holds the replica.
    assert system.kernel(0).stats()["checkpoint.writes"] >= 2
    system.crash_site(0)
    system.restart_site(0)
    system.run_for(5.0)
    reborn, reborn_isis = system.spawn(0, "reborn")
    recovered = ReplicatedData(reborn_isis, gid, name="kv")
    system.kernel(0).wal.restore(reborn, "svc")
    assert recovered.items == tools[0].items
