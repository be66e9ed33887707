"""Integration tests: news service, recovery manager, transactions."""

import pytest

from repro import IsisCluster, IsisConfig
from repro.core.engine import ABCAST
from repro.sim import sleep
from repro.tools import (
    NewsClient,
    NewsServer,
    ReplicatedData,
    SemaphoreClient,
    SemaphoreManager,
    TransactionTool,
    install_recovery,
)


class TestNewsService:
    def _setup(self, system, server_sites=(0, 1)):
        servers = []
        gid_box = {}
        proc0, isis0 = system.spawn(server_sites[0], "news0")
        NewsServer(isis0)
        servers.append((proc0, isis0))

        def create_main():
            gid = yield isis0.pg_create("@news")
            gid_box["gid"] = gid

        proc0.spawn(create_main(), "create")
        system.run_for(3.0)
        for i, site in enumerate(server_sites[1:], start=1):
            proc, isis = system.spawn(site, f"news{i}")
            NewsServer(isis)
            servers.append((proc, isis))

            def join_main(isis=isis):
                yield isis.pg_join(gid_box["gid"])

            proc.spawn(join_main(), f"join{i}")
            system.run_for(20.0)
        return gid_box["gid"], servers

    def test_subscriber_receives_posts_in_order(self):
        system = IsisCluster(n_sites=3, seed=31)
        gid, servers = self._setup(system)
        reader, isis_r = system.spawn(2, "reader")
        poster, isis_p = system.spawn(2, "poster")
        client = NewsClient(isis_r, gid)
        got = []

        def sub_main():
            yield client.subscribe("sports", lambda m: got.append(m["body"]))

        reader.spawn(sub_main(), "sub")
        system.run_for(20.0)

        def post_main():
            pub = NewsClient(isis_p, gid)
            for i in range(4):
                yield pub.post("sports", f"item-{i}")

        poster.spawn(post_main(), "post")
        system.run_for(40.0)
        assert got == [f"item-{i}" for i in range(4)]

    def test_unsubscribed_subject_not_delivered(self):
        system = IsisCluster(n_sites=2, seed=32)
        gid, servers = self._setup(system, server_sites=(0,))
        reader, isis_r = system.spawn(1, "reader")
        client = NewsClient(isis_r, gid)
        got = []

        def main():
            yield client.subscribe("weather", lambda m: got.append(m["body"]))
            yield client.post("finance", "stonks")
            yield client.post("weather", "rain")

        reader.spawn(main(), "main")
        system.run_for(40.0)
        assert got == ["rain"]


class TestRecoveryManager:
    def test_total_failure_last_site_restarts(self):
        system = IsisCluster(n_sites=3, seed=33)
        managers = install_recovery(system)
        restarted = []

        def service_program(process, mode, group_name):
            from repro.core.groups import Isis
            isis = Isis(process)
            restarted.append((process.site.site_id, mode))

            def main():
                if mode == "create":
                    yield isis.pg_create(group_name)
                else:
                    gid = yield isis.pg_lookup(group_name)
                    yield isis.pg_join(gid)

            process.spawn(main(), "svc.main")

        system.cluster.programs.register("svc", service_program)
        # Start the service at sites 0 and 1; register recovery there.
        for site in (0, 1):
            managers[site].register("the-service", "svc")
        system.run_for(2.0)
        server, isis = system.spawn(0, "svc")

        def boot_main():
            yield isis.pg_create("the-service")

        server.spawn(boot_main(), "boot")
        system.run_for(5.0)
        # Total failure: both registered sites crash.
        system.crash_site(0)
        system.crash_site(1)
        system.run_for(30.0)
        # Both restart; the recovery managers decide who recreates.
        system.restart_site(0)
        system.restart_site(1)
        system.run_for(120.0)
        modes = [m for _, m in restarted]
        assert "create" in modes, f"nobody restarted the group: {restarted}"
        assert system.sim.trace.value("tool.rm_restarts") >= 1

    def test_partial_failure_rejoins_running_group(self):
        system = IsisCluster(n_sites=3, seed=34)
        managers = install_recovery(system)
        actions = []

        def service_program(process, mode, group_name):
            from repro.core.groups import Isis
            isis = Isis(process)
            actions.append((process.site.site_id, mode))

            def main():
                if mode == "create":
                    yield isis.pg_create(group_name)
                else:
                    gid = yield isis.pg_lookup(group_name)
                    yield isis.pg_join(gid)

            process.spawn(main(), "svc.main")

        system.cluster.programs.register("svc", service_program)
        managers[0].register("dup-service", "svc")
        managers[1].register("dup-service", "svc")
        system.run_for(2.0)
        # The service runs at sites 0 and 1.
        for site in (0, 1):
            service_program(
                system.site(site).spawn_process("svc"),
                "create" if site == 0 else "join", "dup-service")
            system.run_for(10.0)
        actions.clear()
        # Site 1 crashes and recovers: the group still runs at site 0.
        system.crash_site(1)
        system.run_for(30.0)
        system.restart_site(1)
        system.run_for(120.0)
        assert (1, "join") in actions
        assert system.sim.trace.value("tool.rm_rejoins") >= 1


    def test_durable_replicated_data_restores_without_answering(self):
        """A durable service whose acked updates (``nwant=1``, as the
        transaction tool sends them) and remote read are replayed after
        a total failure: the restore raises nothing and answers none of
        the finished requests, and both restarted managers hold every
        item."""
        system = IsisCluster(n_sites=2, seed=5,
                             isis_config=IsisConfig(durability=True))
        managers = install_recovery(system)
        tools = {}

        def service_program(process, mode, group_name):
            from repro.core.groups import Isis
            isis = Isis(process)
            # Built before its gid exists, as a service factory does.
            tool = tools[process.site.site_id] = ReplicatedData(
                isis, None, name="kv")

            def main():
                if mode == "create":
                    tool.gid = yield isis.pg_create(group_name)
                else:
                    tool.gid = yield isis.pg_lookup(group_name)
                    yield isis.pg_join(tool.gid)

            process.spawn(main(), "svc.main")

        system.cluster.programs.register("kv-svc", service_program)
        for site in (0, 1):
            managers[site].register("kv", "kv-svc")
        system.run_for(2.0)
        service_program(system.site(0).spawn_process("kv"), "create", "kv")
        system.run_for(5.0)
        service_program(system.site(1).spawn_process("kv"), "join", "kv")
        system.run_for(20.0)
        writer = tools[0]

        def update_main():
            for i in range(5):
                yield writer.update(f"k{i}", nwant=1, value=i)
            return (yield writer.remote_read("k4"))

        task = writer.isis.process.spawn(update_main(), "update")
        system.run_for(20.0)
        assert task.done and task.value == 4
        expected = {f"k{i}": i for i in range(5)}
        trace = system.sim.trace
        replies = lambda: [trace.value(f"mcast.{kind}")
                           for kind in ("reply", "null_reply")]
        before = replies()
        for site in (0, 1):
            system.crash_site(site)
        system.run_for(10.0)
        for site in (0, 1):
            system.restart_site(site)
        system.run_for(120.0)
        assert trace.value("tool.rm_restored") == 1
        assert replies() == before
        assert [tools[site].items for site in (0, 1)] == [expected] * 2


class TestTransactions:
    def _setup(self, system):
        proc0, isis0 = system.spawn(0, "store0")
        data0 = ReplicatedData(isis0, None, name="txkv", ordering=ABCAST)
        gid_box = {}

        def create_main():
            gid = yield isis0.pg_create("txstore")
            gid_box["gid"] = gid
            data0.gid = gid
            SemaphoreManager(isis0, gid)

        proc0.spawn(create_main(), "create")
        system.run_for(3.0)
        return gid_box["gid"], proc0, isis0, data0

    def test_commit_makes_writes_visible(self):
        system = IsisCluster(n_sites=2, seed=35)
        gid, proc, isis, data = self._setup(system)
        tool = TransactionTool(isis, data, SemaphoreClient(isis, gid))

        def main():
            txn = tool.begin()
            yield from txn.write("balance", 100)
            value = yield from txn.read("balance")
            assert value == 100
            yield from txn.commit()
            return data.read("balance")

        task = proc.spawn(main(), "txn")
        system.run_for(60.0)
        assert task.value == 100

    def test_abort_discards_writes(self):
        system = IsisCluster(n_sites=2, seed=36)
        gid, proc, isis, data = self._setup(system)
        tool = TransactionTool(isis, data, SemaphoreClient(isis, gid))

        def main():
            txn = tool.begin()
            yield from txn.write("x", "dirty")
            yield from txn.abort()
            return data.read("x", default="clean")

        task = proc.spawn(main(), "txn")
        system.run_for(60.0)
        assert task.value == "clean"

    def test_nested_child_commit_merges_into_parent(self):
        system = IsisCluster(n_sites=2, seed=37)
        gid, proc, isis, data = self._setup(system)
        tool = TransactionTool(isis, data, SemaphoreClient(isis, gid))

        def main():
            parent = tool.begin()
            child = tool.begin(parent=parent)
            yield from child.write("k", "from-child")
            yield from child.commit()
            # Not yet durable: the parent still holds it.
            before = data.read("k", default=None)
            yield from parent.commit()
            after = data.read("k")
            return before, after

        task = proc.spawn(main(), "txn")
        system.run_for(60.0)
        before, after = task.value
        assert before is None
        assert after == "from-child"

    def test_nested_child_abort_leaves_parent_clean(self):
        system = IsisCluster(n_sites=2, seed=38)
        gid, proc, isis, data = self._setup(system)
        tool = TransactionTool(isis, data, SemaphoreClient(isis, gid))

        def main():
            parent = tool.begin()
            yield from parent.write("a", 1)
            child = tool.begin(parent=parent)
            yield from child.write("b", 2)
            yield from child.abort()
            yield from parent.commit()
            return data.read("a"), data.read("b", default="absent")

        task = proc.spawn(main(), "txn")
        system.run_for(60.0)
        assert task.value == (1, "absent")

    def test_isolation_between_transactions(self):
        """Locks are per process: a second process's read waits for commit."""
        system = IsisCluster(n_sites=2, seed=39)
        gid, proc, isis, data = self._setup(system)
        tool = TransactionTool(isis, data, SemaphoreClient(isis, gid))
        reader_proc, reader_isis = system.spawn(1, "reader")
        reader_data = ReplicatedData(reader_isis, gid, name="txkv",
                                     ordering=ABCAST)
        reader_tool = TransactionTool(
            reader_isis, reader_data, SemaphoreClient(reader_isis, gid))
        order = []

        def writer():
            txn = tool.begin()
            yield from txn.write("shared", "w1")
            order.append("w1-wrote")
            yield sleep(system.sim, 5.0)
            yield from txn.commit()
            order.append("w1-committed")

        def reader():
            yield sleep(system.sim, 1.0)  # start after the writer locks
            txn = reader_tool.begin()
            value = yield from txn.read("shared")  # blocks on the lock
            order.append(f"read:{value}")
            yield from txn.commit()

        proc.spawn(writer(), "w")
        reader_proc.spawn(reader(), "r")
        system.run_for(120.0)
        assert "w1-committed" in order
        assert order.index("w1-committed") < order.index(
            next(o for o in order if o.startswith("read:")))
