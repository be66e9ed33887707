"""Unit tests for sites, processes, programs and stable storage."""

import ast
import inspect
import pathlib
import re

import pytest

import repro
from repro.core.bootstrap import Deployment, IsisCluster
from repro.core.kernel import ProtocolsProcess
from repro.errors import IsisError, SiteDown, TaskKilled
from repro.msg import Message
from repro.net.lan import INTRA_SITE_DELAY
from repro.net.transport import Transport
from repro.net.udp import UdpTransport
from repro.runtime import Cluster, Site
from repro.runtime.asyncio_driver import (
    AsyncioCluster,
    AsyncioRuntime,
    NetSite,
    RealCpu,
)
from repro.runtime.driver import CpuLike, Scheduler, SiteLike, SiteTransport
from repro.runtime.site import BaseSite
from repro.runtime.stable import WRITE_LATENCY
from repro.sim import Simulator, sleep


def make_cluster(n=2):
    sim = Simulator()
    cluster = Cluster(sim, n_sites=n)
    cluster.boot_all()
    return sim, cluster


class TestSiteLifecycle:
    def test_boot_assigns_incarnations(self):
        sim, cluster = make_cluster()
        assert cluster.site(0).incarnation == 0
        cluster.site(0).crash()
        cluster.site(0).boot()
        assert cluster.site(0).incarnation == 1

    def test_double_boot_rejected(self):
        sim, cluster = make_cluster()
        with pytest.raises(IsisError):
            cluster.site(0).boot()

    def test_crash_kills_processes(self):
        sim, cluster = make_cluster()
        site = cluster.site(0)
        process = site.spawn_process("app")
        site.crash()
        assert not process.alive
        assert not site.up

    def test_crash_is_idempotent(self):
        sim, cluster = make_cluster()
        cluster.site(0).crash()
        cluster.site(0).crash()

    def test_spawn_on_down_site_rejected(self):
        sim, cluster = make_cluster()
        cluster.site(0).crash()
        with pytest.raises(SiteDown):
            cluster.site(0).spawn_process("app")

    def test_boot_hooks_run_each_boot(self):
        sim = Simulator()
        cluster = Cluster(sim, n_sites=1)
        boots = []
        cluster.site(0).on_boot(lambda s: boots.append(s.incarnation))
        cluster.site(0).boot()
        cluster.site(0).crash()
        cluster.site(0).boot()
        assert boots == [0, 1]

    def test_stable_store_survives_crash(self):
        sim, cluster = make_cluster()
        site = cluster.site(0)
        site.stable.write("checkpoint", b"state-v1")
        sim.run()
        site.crash()
        site.boot()
        assert site.stable.read("checkpoint") == b"state-v1"

    def test_up_sites_tracks_membership(self):
        sim, cluster = make_cluster(3)
        assert cluster.up_sites() == [0, 1, 2]
        cluster.site(1).crash()
        assert cluster.up_sites() == [0, 2]


class TestProcess:
    def test_addresses_unique_and_site_scoped(self):
        sim, cluster = make_cluster()
        p1 = cluster.site(0).spawn_process("a")
        p2 = cluster.site(0).spawn_process("b")
        p3 = cluster.site(1).spawn_process("c")
        assert p1.address != p2.address
        assert p1.address.site == 0 and p3.address.site == 1

    def test_restarted_site_mints_new_incarnation_addresses(self):
        sim, cluster = make_cluster()
        before = cluster.site(0).spawn_process("a").address
        cluster.site(0).crash()
        cluster.site(0).boot()
        after = cluster.site(0).spawn_process("a").address
        assert before.incarnation != after.incarnation

    def test_deliver_dispatches_to_entry(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        got = []
        process.bind(16, lambda msg: got.append(msg["q"]))
        msg = Message(q="hello", _entry=16)
        process.deliver(msg)
        assert got == ["hello"]

    def test_generator_handler_runs_as_task(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        got = []

        def handler(msg):
            yield sleep(sim, 1.0)
            got.append(msg["q"])

        process.bind(16, handler)
        process.deliver(Message(q="async", _entry=16))
        assert got == []
        sim.run()
        assert got == ["async"]

    def test_unbound_entry_drops_message(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        process.deliver(Message(_entry=99))
        assert sim.trace.value("process.dropped.nohandler") == 1

    def test_filter_can_absorb_message(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        got = []
        process.bind(16, lambda msg: got.append(msg))
        process.add_filter(lambda msg: None if msg.get("bad") else msg)
        process.deliver(Message(bad=True, _entry=16))
        process.deliver(Message(bad=False, _entry=16))
        assert len(got) == 1

    def test_filter_can_rewrite_message(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        got = []
        process.bind(16, lambda msg: got.append(msg["tag"]))

        def stamp(msg):
            msg["tag"] = "stamped"
            return msg

        process.add_filter(stamp)
        process.deliver(Message(_entry=16))
        assert got == ["stamped"]

    def test_kill_terminates_tasks_with_cleanup(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        cleanup = []

        def body():
            try:
                yield sleep(sim, 100.0)
            finally:
                cleanup.append("ran")

        process.spawn(body())
        sim.call_after(1.0, process.kill)
        sim.run()
        assert cleanup == ["ran"]
        assert process.task_count == 0

    def test_dead_process_drops_deliveries(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        process.kill()
        process.deliver(Message(_entry=16))
        assert sim.trace.value("process.dropped.dead") == 1

    def test_death_watchers_fire_once(self):
        sim, cluster = make_cluster()
        process = cluster.site(0).spawn_process("svc")
        deaths = []
        process.watch_death(lambda p: deaths.append(p.name))
        process.kill()
        process.kill()
        assert deaths == ["svc"]


class TestPrograms:
    def test_run_program_instantiates(self):
        sim, cluster = make_cluster()
        started = []

        def factory(process, greeting):
            started.append((process.site.site_id, greeting))

        cluster.programs.register("greeter", factory)
        cluster.site(1).run_program("greeter", "hi")
        assert started == [(1, "hi")]

    def test_unknown_program_rejected(self):
        sim, cluster = make_cluster()
        with pytest.raises(IsisError):
            cluster.site(0).run_program("ghost")


class TestStableStore:
    def test_logs_append_in_order(self):
        sim, cluster = make_cluster()
        store = cluster.site(0).stable
        store.append("log", b"r1")
        store.append("log", b"r2")
        sim.run()
        assert store.read_log("log") == [b"r1", b"r2"]

    def test_truncate_after_checkpoint(self):
        sim, cluster = make_cluster()
        store = cluster.site(0).stable
        for i in range(5):
            store.append("log", f"r{i}".encode())
        sim.run()
        store.truncate_log("log", keep_from=3)
        assert store.read_log("log") == [b"r3", b"r4"]

    def test_write_latency_is_charged(self):
        sim, cluster = make_cluster()
        store = cluster.site(0).stable
        done = []
        store.write("k", b"v").add_done_callback(lambda p: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(WRITE_LATENCY)

    def test_keys_prefix_listing(self):
        sim, cluster = make_cluster()
        store = cluster.site(0).stable
        store.write("grp/a", b"1")
        store.write("grp/b", b"2")
        store.write("other", b"3")
        sim.run()
        assert store.keys("grp/") == ["grp/a", "grp/b"]


class TestDriverSeam:
    """Both drivers offer the kernel what ``runtime/driver.py`` declares:
    every member, ``local_hop_delay`` included, and no argument more."""

    def test_sim_site_satisfies_the_seam(self):
        cluster = Cluster(Simulator(), n_sites=1)
        cluster.boot_all()
        site = cluster.site(0)
        assert isinstance(site, SiteLike)
        assert isinstance(site.transport, SiteTransport)
        assert site.local_hop_delay == INTRA_SITE_DELAY

    def test_net_site_satisfies_the_seam(self):
        runtime = AsyncioRuntime(n_sites=1)   # not booted: no socket yet
        try:
            site = runtime.site(0)
            assert isinstance(site, SiteLike)
            assert site.local_hop_delay == 0.0
        finally:
            runtime.loop.close()

    @pytest.mark.parametrize("send, params", [
        (ProtocolsProcess.send_to_site, ["self", "dst_site", "msg"]),
        (SiteLike.send_bytes, ["self", "dst_site", "data"]),
        (Site.send_bytes, ["self", "dst_site", "data"]),
        (NetSite.send_bytes, ["self", "dst_site", "data"]),
        (SiteTransport.send, ["self", "dst_site", "data"]),
        (Transport.send, ["self", "dst_site", "data"]),
        (UdpTransport.send, ["self", "dst_site", "data"]),
    ])
    def test_a_send_takes_a_destination_and_a_message_only(self, send, params):
        assert list(inspect.signature(send).parameters) == params

    #: Every ``site.<name>`` that ``core/``, ``tools/``, ``apps/`` and
    #: ``fd/`` read (``grep -rnoE "\bsite\.[a-z_]+"`` over those four).
    CENSUS = [
        "boot", "cluster", "cpu", "crash", "incarnation", "kernel",
        "local_hop_delay", "on_boot", "on_crash", "open_bulk_stream",
        "process_by_id", "run_program", "send_bytes", "send_raw",
        "set_bulk_handler", "set_message_handler", "set_raw_handler",
        "sim", "site_id", "spawn_process", "stable", "transport", "up",
    ]

    def test_the_seam_declares_everything_the_kernel_reads(self):
        """The census resolves on a booted site of either driver and is
        declared by ``SiteLike``; what the kernel calls on ``site.cpu``
        and ``site.transport`` by the protocols ``SiteLike`` names."""
        declared = set(SiteLike.__annotations__) | {
            name for name in vars(SiteLike) if not name.startswith("_")}
        assert "submit" in vars(CpuLike)
        assert {"reset_channel", "stats"} <= set(vars(SiteTransport))
        assert [n for n in self.CENSUS if n not in declared] == []
        read = set()
        for layer in ("core", "tools", "apps", "fd"):
            for path in (pathlib.Path(repro.__file__).parent / layer).rglob("*.py"):
                read |= set(re.findall(r"\bsite\.([a-z_]+)", path.read_text()))
        assert sorted(read) == self.CENSUS
        sim_site = Cluster(Simulator(), n_sites=1).site(0)
        runtime = AsyncioRuntime(n_sites=1)
        try:
            for site in (sim_site, runtime.site(0)):
                site.boot()
                assert [n for n in self.CENSUS if not hasattr(site, n)] == []
                assert isinstance(site, SiteLike)
                assert isinstance(site.cpu, CpuLike)
                assert isinstance(site.transport, SiteTransport)
                assert hasattr(site.cluster, "programs")
        finally:
            runtime.shutdown()

    def test_a_cpu_reports_its_backlog_and_a_real_one_holds_none(self):
        """The silence rule reads ``cpu.backlog``: the seam declares it,
        and the socket driver's CPU, which runs its work in the drain
        that queued it, never holds any."""
        assert "backlog" in vars(CpuLike)
        runtime = AsyncioRuntime(n_sites=1)
        try:
            assert RealCpu(runtime.scheduler).backlog == 0.0
        finally:
            runtime.loop.close()

    def test_both_schedulers_offer_both_verbs(self):
        runtime = AsyncioRuntime(n_sites=1)
        try:
            for scheduler in (Simulator(), runtime.scheduler):
                assert isinstance(scheduler, Scheduler)
        finally:
            runtime.loop.close()

    #: The scheduling calls that return a handle.
    HANDLE_VERBS = {"call_at", "call_after"}

    @staticmethod
    def _dropped_handles(tree: ast.AST):
        """``(line, verb)`` of every handle-returning call whose handle
        nobody keeps: called as a bare statement, or named without a call
        (handed on as a callback).  The asyncio loop's own methods (on a
        receiver named ``loop``) are what the driver adapts, not the
        seam's verbs."""
        verbs = TestDriverSeam.HANDLE_VERBS

        def on_loop(node: ast.expr) -> bool:
            return (isinstance(node, ast.Name) and node.id == "loop") or (
                isinstance(node, ast.Attribute) and node.attr == "loop")

        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        dropped = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                func = node.value.func
                if (isinstance(func, ast.Attribute) and func.attr in verbs
                        and not on_loop(func.value)):
                    dropped.append((node.lineno, func.attr))
            elif (isinstance(node, ast.Attribute) and node.attr in verbs
                  and id(node) not in called and not on_loop(node.value)):
                dropped.append((node.lineno, node.attr))
        return sorted(dropped)

    def test_every_handle_is_kept_and_every_other_callback_posted(self):
        """``runtime/driver.py``'s rule: a ``call_*`` caller keeps the
        handle to cancel it; a callback nobody cancels is a ``post``."""
        package = pathlib.Path(repro.__file__).parent
        dropped = {}
        for path in sorted(package.rglob("*.py")):
            found = self._dropped_handles(ast.parse(path.read_text()))
            if found:
                dropped[str(path.relative_to(package))] = found
        assert dropped == {}

    def test_the_handle_rule_sees_both_ways_of_dropping_one(self):
        source = """
sim.call_after(1.0, fn)                  # dropped: a bare statement
cpu.submit(0.0, sim.call_at, 1.0, fn)    # dropped: handed on
timer = sim.call_at(2.0, fn)             # kept
self.loop.call_soon(fn)                  # the asyncio loop's own
sim.post(0.0, fn)
"""
        assert self._dropped_handles(ast.parse(source)) == [
            (2, "call_after"), (3, "call_at")]

    def test_the_lifecycle_and_the_bootstrap_exist_once(self):
        for name in ("boot", "crash", "send_bytes", "send_raw", "run_program"):
            assert name in vars(BaseSite)
            assert name not in vars(Site) and name not in vars(NetSite), name
        for name in ("boot", "kernel", "spawn", "crash_site", "restart_site"):
            assert name in vars(Deployment)
            assert name not in vars(IsisCluster), name
            assert name not in vars(AsyncioCluster), name
