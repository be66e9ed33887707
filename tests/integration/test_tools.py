"""Integration tests for the §3 toolkit tools."""

import pytest

from repro import ALL, IsisCluster, IsisConfig
from repro.core.engine import ABCAST
from repro.sim import sleep
from repro.errors import DeadlockDetected
from repro.tools import (
    ConfigTool,
    CoordCohortTool,
    ProtectionTool,
    ReplicatedData,
    SemaphoreClient,
    SemaphoreManager,
    SiteMonitor,
)


def build_service(system, sites, name="svc", tool_factory=None):
    """Members on each site; tool_factory(isis, gid) builds per-member tools."""
    members = []
    gid_box = {}

    creator, isis0 = system.spawn(sites[0], "m0")
    members.append((creator, isis0))

    def create_main():
        gid = yield isis0.pg_create(name)
        gid_box["gid"] = gid
        if tool_factory:
            gid_box.setdefault("tools", []).append(tool_factory(isis0, gid))

    creator.spawn(create_main(), "create")
    system.run_for(3.0)
    gid = gid_box["gid"]
    for i, site in enumerate(sites[1:], start=1):
        proc, isis = system.spawn(site, f"m{i}")
        members.append((proc, isis))

        def join_main(isis=isis):
            if tool_factory:
                gid_box["tools"].append(tool_factory(isis, gid))
            yield isis.pg_join(gid)

        proc.spawn(join_main(), f"join{i}")
        system.run_for(20.0)
    return gid, members, gid_box.get("tools", [])


class TestConfigTool:
    def test_update_applies_at_all_members(self):
        system = IsisCluster(n_sites=3, seed=11)
        gid, members, tools = build_service(
            system, [0, 1, 2], tool_factory=lambda i, g: ConfigTool(i, g))

        def update_main():
            yield tools[0].update("workers", 5)

        members[0][0].spawn(update_main(), "update")
        system.run_for(20.0)
        assert [t.read("workers") for t in tools] == [5, 5, 5]
        assert len({t.version for t in tools}) == 1

    def test_config_transfers_to_joiner(self):
        system = IsisCluster(n_sites=3, seed=12)
        gid, members, tools = build_service(
            system, [0, 1], tool_factory=lambda i, g: ConfigTool(i, g))

        def update_main():
            yield tools[0].update("mode", "horizontal")

        members[0][0].spawn(update_main(), "update")
        system.run_for(20.0)
        # A third member joins afterwards: state transfer carries config.
        proc, isis = system.spawn(2, "late")
        late_tool = ConfigTool(isis, gid)

        def join_main():
            yield isis.pg_join(gid)

        proc.spawn(join_main(), "join")
        system.run_for(20.0)
        assert late_tool.read("mode") == "horizontal"

    def test_concurrent_updates_same_order_everywhere(self):
        system = IsisCluster(n_sites=3, seed=13)
        gid, members, tools = build_service(
            system, [0, 1, 2], tool_factory=lambda i, g: ConfigTool(i, g))
        orders = [[] for _ in tools]
        for tool, order in zip(tools, orders):
            tool.watch(lambda item, value, o=order: o.append((item, value)))

        def update_main(idx):
            yield tools[idx].update("owner", f"m{idx}")

        for idx in range(3):
            members[idx][0].spawn(update_main(idx), f"u{idx}")
        system.run_for(40.0)
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 3


class TestReplicatedData:
    def test_async_update_visible_at_all_copies(self):
        system = IsisCluster(n_sites=3, seed=14)
        gid, members, tools = build_service(
            system, [0, 1, 2],
            tool_factory=lambda i, g: ReplicatedData(i, g, name="kv"))

        def update_main():
            yield tools[0].update("x", value=42)

        members[0][0].spawn(update_main(), "update")
        system.run_for(15.0)
        assert [t.read("x") for t in tools] == [42, 42, 42]

    def test_abcast_mode_counters_converge(self):
        system = IsisCluster(n_sites=3, seed=15)
        gid, members, tools = build_service(
            system, [0, 1, 2],
            tool_factory=lambda i, g: ReplicatedData(
                i, g, name="ctr", ordering=ABCAST))

        def bump_main(idx):
            for _ in range(3):
                yield tools[idx].update("n", delta=1)

        for idx in range(3):
            members[idx][0].spawn(bump_main(idx), f"bump{idx}")
        system.run_for(60.0)
        assert [t.read("n") for t in tools] == [9, 9, 9]

    def test_remote_read_by_client(self):
        system = IsisCluster(n_sites=3, seed=16)
        gid, members, tools = build_service(
            system, [0, 1],
            tool_factory=lambda i, g: ReplicatedData(i, g, name="kv"))

        def update_main():
            yield tools[0].update("color", value="red")

        members[0][0].spawn(update_main(), "update")
        system.run_for(10.0)
        client, client_isis = system.spawn(2, "client")
        reader = ReplicatedData(client_isis, gid, name="kv")

        def read_main():
            value = yield reader.remote_read("color")
            return value

        task = client.spawn(read_main(), "read")
        system.run_for(20.0)
        assert task.value == "red"

    def test_state_transfers_to_joiner(self):
        system = IsisCluster(n_sites=2, seed=17)
        gid, members, tools = build_service(
            system, [0],
            tool_factory=lambda i, g: ReplicatedData(i, g, name="kv"))

        def update_main():
            yield tools[0].update("k", value="v1")

        members[0][0].spawn(update_main(), "update")
        system.run_for(10.0)
        proc, isis = system.spawn(1, "late")
        late = ReplicatedData(isis, gid, name="kv")

        def join_main():
            yield isis.pg_join(gid)

        proc.spawn(join_main(), "join")
        system.run_for(20.0)
        assert late.read("k") == "v1"

    def test_logging_and_recovery(self):
        """§3.6's logging mode is the kernel WAL: a restarted manager is
        rebuilt from it after a total failure."""
        system = IsisCluster(n_sites=2, seed=18,
                             isis_config=IsisConfig(durability=True))
        gid, members, tools = build_service(
            system, [0],
            tool_factory=lambda i, g: ReplicatedData(i, g, name="kv"))

        def update_main():
            for i in range(5):
                yield tools[0].update(f"k{i}", value=i)
            yield tools[0].isis.flush()

        members[0][0].spawn(update_main(), "update")
        system.run_for(20.0)
        # Simulate total failure + restart at the same site.
        system.crash_site(0)
        system.restart_site(0)
        system.run_for(5.0)
        proc, isis = system.spawn(0, "reborn")
        recovered = ReplicatedData(isis, gid, name="kv")
        replayed = system.kernel(0).wal.restore(proc, "svc")
        assert replayed == 5
        assert recovered.read("k3") == 3


class TestCoordinatorCohort:
    def _setup(self, system, work_log):
        gid, members, tools = build_service(
            system, [0, 1, 2],
            tool_factory=lambda i, g: CoordCohortTool(i))
        # Every member binds the request entry and runs the tool.
        for idx, ((proc, isis), tool) in enumerate(zip(members, tools)):
            def handler(msg, isis=isis, tool=tool, idx=idx):
                def action(m):
                    work_log.append(idx)
                    return {"result": f"done-by-{idx}"}
                yield from tool.run(msg, gid, [m[0].address for m in members],
                                    action)

            proc.bind(30, handler)
        return gid, members, tools

    def test_only_coordinator_executes(self):
        system = IsisCluster(n_sites=3, seed=19)
        work_log = []
        gid, members, tools = self._setup(system, work_log)
        caller, caller_isis = system.spawn(1, "caller")

        def call_main():
            replies = yield caller_isis.cbcast(gid, 30, nwant=1, job="j1")
            return replies[0]["result"]

        task = caller.spawn(call_main(), "call")
        system.run_for(30.0)
        assert len(work_log) == 1
        # §6: the tool is biased towards a coordinator at the caller's site.
        assert work_log[0] == 1
        assert task.value == "done-by-1"

    def test_cohort_takes_over_on_coordinator_crash(self):
        system = IsisCluster(n_sites=3, seed=20)
        work_log = []
        gid, members, tools = self._setup(system, work_log)
        caller, caller_isis = system.spawn(1, "caller")

        def call_main():
            try:
                replies = yield caller_isis.cbcast(gid, 30, nwant=1, job="j1")
                return replies[0]["result"]
            except Exception as err:
                return f"error:{type(err).__name__}"

        task = caller.spawn(call_main(), "call")
        # Let the request reach members, then crash the coordinator's site
        # before it can act (its site is the caller's: site 1).
        system.run_for(0.08)
        system.crash_site(1)
        system.run_for(120.0)
        # A surviving cohort executed the action.
        assert any(idx != 1 for idx in work_log) or task.done


class TestSemaphores:
    def _setup(self, system, sites=(0, 1)):
        gid, members, tools = build_service(
            system, list(sites),
            tool_factory=lambda i, g: SemaphoreManager(i, g))
        return gid, members, tools

    def test_mutual_exclusion_fifo(self):
        system = IsisCluster(n_sites=3, seed=21)
        gid, members, tools = self._setup(system)
        client1, isis1 = system.spawn(2, "c1")
        client2, isis2 = system.spawn(2, "c2")
        events = []

        def critical(tag, isis, client):
            sem = SemaphoreClient(isis, gid)
            yield sem.p("mutex")
            events.append(("in", tag, system.now))
            yield sleep(system.sim, 1.0)
            events.append(("out", tag, system.now))
            yield sem.v("mutex")

        client1.spawn(critical("a", isis1, client1), "crit-a")
        client2.spawn(critical("b", isis2, client2), "crit-b")
        system.run_for(60.0)
        ins = [e for e in events if e[0] == "in"]
        outs = [e for e in events if e[0] == "out"]
        assert len(ins) == 2 and len(outs) == 2
        # No overlap: second entry after first exit.
        assert events[0][1] == events[1][1]  # in/out pairs interleave cleanly

    def test_release_on_site_failure(self):
        system = IsisCluster(n_sites=3, seed=22)
        gid, members, tools = self._setup(system, sites=(0, 1))
        holder, isis_h = system.spawn(2, "holder")
        waiter, isis_w = system.spawn(0, "waiter")
        got = []

        def hold_forever():
            sem = SemaphoreClient(isis_h, gid)
            yield sem.p("lock")
            got.append("holder-in")
            # never releases; its site will crash

        def wait_main():
            sem = SemaphoreClient(isis_w, gid)
            yield sem.p("lock")
            got.append("waiter-in")

        holder.spawn(hold_forever(), "hold")
        system.run_for(20.0)
        waiter.spawn(wait_main(), "wait")
        system.run_for(10.0)
        assert got == ["holder-in"]
        system.crash_site(2)  # the holder's site dies
        system.run_for(120.0)
        assert "waiter-in" in got

    def test_deadlock_detected(self):
        system = IsisCluster(n_sites=2, seed=23)
        gid, members, tools = self._setup(system, sites=(0,))
        p1, isis1 = system.spawn(1, "p1")
        p2, isis2 = system.spawn(1, "p2")
        outcomes = []

        def worker(isis, first, second):
            sem = SemaphoreClient(isis, gid)
            yield sem.p(first)
            yield sleep(system.sim, 2.0)
            try:
                yield sem.p(second)
                outcomes.append("got-both")
                yield sem.v(second)
            except DeadlockDetected:
                outcomes.append("deadlock")
            yield sem.v(first)

        p1.spawn(worker(isis1, "A", "B"), "w1")
        p2.spawn(worker(isis2, "B", "A"), "w2")
        system.run_for(120.0)
        assert "deadlock" in outcomes
        assert "got-both" in outcomes  # the survivor completes


class TestProtection:
    def test_untrusted_sender_filtered(self):
        system = IsisCluster(n_sites=2, seed=24)
        server, isis_s = system.spawn(0, "server")
        got = []
        server.bind(40, lambda msg: got.append(msg["q"]))
        protection = ProtectionTool(isis_s)
        friend, isis_f = system.spawn(1, "friend")
        stranger, isis_x = system.spawn(1, "stranger")
        protection.trust(friend.address)
        gid_box = {}

        def create_main():
            gid = yield isis_s.pg_create("protected")
            gid_box["gid"] = gid

        server.spawn(create_main(), "create")
        system.run_for(3.0)

        def send(isis, q):
            gid = yield isis.pg_lookup("protected")
            yield isis.cbcast(gid, 40, q=q)

        friend.spawn(send(isis_f, "from-friend"), "sf")
        stranger.spawn(send(isis_x, "from-stranger"), "sx")
        system.run_for(20.0)
        assert got == ["from-friend"]
        assert system.sim.trace.value("protection.rejected") == 1

    def test_join_validation_refuses(self):
        system = IsisCluster(n_sites=2, seed=25)
        server, isis_s = system.spawn(0, "server")
        gid_box = {}

        def create_main():
            gid = yield isis_s.pg_create("vip")
            gid_box["gid"] = gid
            yield isis_s.pg_join_verify(
                gid, lambda joiner, cred: cred == "secret")

        server.spawn(create_main(), "create")
        system.run_for(3.0)
        outsider, isis_o = system.spawn(1, "outsider")
        insider, isis_i = system.spawn(1, "insider")

        def join(isis, cred):
            gid = yield isis.pg_lookup("vip")
            try:
                yield isis.pg_join(gid, credentials=cred)
                return "joined"
            except Exception as err:
                return type(err).__name__

        t1 = outsider.spawn(join(isis_o, "wrong"), "j1")
        system.run_for(20.0)
        t2 = insider.spawn(join(isis_i, "secret"), "j2")
        system.run_for(20.0)
        assert t1.value == "JoinRefused"
        assert t2.value == "joined"


class TestSiteMonitor:
    def test_failure_and_recovery_events(self):
        system = IsisCluster(n_sites=3, seed=26)
        watcher, isis_w = system.spawn(0, "watcher")
        monitor = SiteMonitor(isis_w)
        events = []
        monitor.watch_failure(2, lambda s: events.append(("fail", s)))
        monitor.watch_recovery(2, lambda s: events.append(("recover", s)))
        system.run_for(5.0)
        system.crash_site(2)
        system.run_for(60.0)
        assert ("fail", 2) in events
        system.restart_site(2)
        system.run_for(60.0)
        assert ("recover", 2) in events
