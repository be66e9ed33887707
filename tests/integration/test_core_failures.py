"""Failure-injection tests: virtual synchrony under crashes.

These exercise the guarantees §2.4 promises: all operational processes
observe the same events in the same order — message deliveries *and*
failures — and a multicast is delivered in the view it was sent in, or
nowhere.
"""

import importlib.util
import os

import pytest

from conformance import Run, Task, check, deploy_group, one_group
from repro import ALL, IsisCluster, IsisConfig
from repro.core import stability as stability_mod
from repro.errors import BroadcastFailed


def _crash_mid_stream(seed, n_sites, kind, senders, count, crash_after,
                      config=None):
    """The members at ``senders`` stream ``count`` multicasts of ``kind``
    to ``grp``; site 1 crashes ``crash_after`` s in.  The record, checked
    (``conformance.check``: one ABCAST order, per-sender FIFO, the same
    set per view)."""
    record = Run(one_group(
        "grp", n_sites, 20.0, seed=seed, config=config,
        traffic=tuple(Task(f"blast{s}", f"m{s}", ("grp",), kind, count,
                           f"s{s}." + "{i}") for s in senders),
        faults=((crash_after, ("crash", 1)),))).play()
    check(record)
    return record


class TestMemberFailure:
    def test_process_death_shrinks_view_everywhere(self):
        system = IsisCluster(n_sites=3, seed=1)
        procs, _ = deploy_group(system, "grp", 3)
        views = []

        def watch():
            gid = yield procs[0][1].pg_lookup("grp")
            yield procs[0][1].pg_monitor(gid, lambda v: views.append(v))

        procs[0][0].spawn(watch(), "watch")
        system.run_for(5.0)
        procs[1][0].kill()  # local death detection, no timeout needed
        system.run_for(20.0)
        assert len(views[-1].members) == 2
        assert views[-1].rank_of(procs[1][0].address) == -1

    def test_site_crash_removes_members_via_timeout(self):
        system = IsisCluster(n_sites=3, seed=2)
        procs, _ = deploy_group(system, "grp", 3)
        views = []

        def watch():
            gid = yield procs[0][1].pg_lookup("grp")
            yield procs[0][1].pg_monitor(gid, lambda v: views.append(v))

        procs[0][0].spawn(watch(), "watch")
        system.run_for(5.0)
        system.crash_site(2)
        system.run_for(60.0)  # heartbeat timeout + view change
        assert views, "no view change observed after site crash"
        assert len(views[-1].members) == 2

    def test_caller_gets_error_when_all_respondents_fail(self):
        system = IsisCluster(n_sites=3, seed=3)
        procs, _ = deploy_group(system, "grp", 2)
        # Members never reply at entry 20 (they just swallow the message).
        for proc, _ in procs:
            proc.bind(20, lambda msg: None)
        caller, caller_isis = system.spawn(2, "caller")

        def call_main():
            gid = yield caller_isis.pg_lookup("grp")
            try:
                yield caller_isis.cbcast(gid, 20, nwant=1, q="x")
            except BroadcastFailed:
                return "failed"
            return "unexpected"

        task = caller.spawn(call_main(), "call")
        system.run_for(10.0)  # let the call dispatch
        system.crash_site(0)
        system.crash_site(1)
        system.run_for(120.0)
        assert task.value == "failed"

    def test_coordinator_crash_next_oldest_takes_over(self):
        system = IsisCluster(n_sites=3, seed=4)
        procs, deliveries = deploy_group(system, "grp", 3)
        system.run_for(5.0)
        # Site 0 hosts the oldest member (group coordinator). Kill it.
        system.crash_site(0)
        system.run_for(60.0)
        # The group still works: member at site 1 multicasts.
        def send_main():
            gid = yield procs[1][1].pg_lookup("grp")
            yield procs[1][1].cbcast(gid, 16, q="after")

        procs[1][0].spawn(send_main(), "send")
        system.run_for(20.0)
        assert [m["q"] for m in deliveries[1]] == ["after"]
        assert [m["q"] for m in deliveries[2]] == ["after"]


    @pytest.mark.parametrize("delay", [0.0, 0.03, 0.05])
    def test_leave_survives_coordinator_crash(self, delay):
        """A leave whose request dies with the coordinator's site is
        asked again of the next coordinator."""
        system = IsisCluster(n_sites=3, seed=5)
        procs, _ = deploy_group(system, "grp", 3)
        left = []

        def leave_main():
            isis = procs[2][1]
            yield isis.pg_leave((yield isis.pg_lookup("grp")))
            left.append(system.now)

        procs[2][0].spawn(leave_main(), "leave")
        system.sim.call_after(delay, system.crash_site, 0)
        system.run_for(60.0)
        assert len(left) == 1
        (engine,) = system.kernel(1).engines.values()
        assert [m.site for m in engine.view.members] == [1]

    def test_gbcast_survives_coordinator_crash(self):
        system = IsisCluster(n_sites=3, seed=5)
        procs, deliveries = deploy_group(system, "grp", 3)

        def gbcast_main():
            isis = procs[2][1]
            yield isis.gbcast((yield isis.pg_lookup("grp")), 16, nwant=0,
                              q="gb")

        procs[2][0].spawn(gbcast_main(), "gbcast")
        system.sim.call_after(0.02, system.crash_site, 0)
        system.run_for(60.0)
        assert [m["q"] for m in deliveries[1]] == ["gb"]
        assert [m["q"] for m in deliveries[2]] == ["gb"]

    @pytest.mark.parametrize("kind,delay", [("cbcast", 0.050),
                                            ("abcast", 0.045)])
    def test_forwarded_multicast_survives_contact_crash(self, kind, delay):
        """A client outside the group multicasts through its contact,
        site 0, which crashes while the request is in flight."""
        system = IsisCluster(n_sites=4, seed=1)
        procs, deliveries = deploy_group(system, "grp", 3)
        client, isis = system.spawn(3, "client")

        def send_main():
            gid = yield isis.pg_lookup("grp")
            yield getattr(isis, kind)(gid, 16, nwant=0, q="fwd")

        client.spawn(send_main(), "send")
        system.sim.call_after(delay, system.crash_site, 0)
        system.run_for(60.0)
        assert [m["q"] for m in deliveries[1]] == ["fwd"]
        assert [m["q"] for m in deliveries[2]] == ["fwd"]


_SCALE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "scripts", "siteview_scale.py")


def _siteview_scale():
    spec = importlib.util.spec_from_file_location("siteview_scale", _SCALE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


siteview_scale = _siteview_scale()


class TestCorrelatedCrashes:
    def test_four_crashes_of_sixty_four_cost_one_proposal(self):
        """Sites that crash together fall silent in the same detector
        tick, wherever their ids are: every survivor reports all four at
        once, and the coordinator proposes the next view once."""
        proposals, done, _ = siteview_scale.run(
            64, [(site, 5.0) for site in (0, 1, 40, 41)])
        assert proposals == 1
        assert done is not None and done <= 2.5

    @pytest.mark.parametrize("n_sites,first", [(5, 3), (8, 3), (8, 5)])
    @pytest.mark.parametrize("gap", [0.6, 1.0])
    def test_a_takeover_removes_what_it_suspected_before(
            self, n_sites, first, gap):
        """Site ``first`` crashes, then coordinator 0 ``gap`` s later.
        The survivors had relayed their suspicion of ``first`` to site 0;
        the next-oldest site takes over and removes both at once rather
        than proposing ``first`` again and waiting out its ack."""
        proposals, done, _ = siteview_scale.run(
            n_sites, [(first, 5.0), (0, 5.0 + gap)])
        assert proposals == 1
        assert done is not None and done <= 2.1

    def test_a_site_swapped_in_one_round_is_removed_when_it_crashes_again(
            self):
        """Site 4 restarts 2 s after its crash: the survivors suspect its
        old incarnation as its join arrives, and one round swaps the two.
        Their suspicion was of the old incarnation, so when the new one
        crashes too, they report it and it is removed."""
        system = IsisCluster(n_sites=5, seed=3)
        system.sim.trace.enable("sv.install")
        system.run_for(5.0)
        system.crash_site(4)
        system.run_for(2.0)
        system.restart_site(4)
        system.run_for(6.0)
        installs = [members for t, _, (site, _, members)
                    in system.sim.trace.events("sv.install")
                    if site == 0 and t > 5.0]
        assert installs == [((0, 0), (1, 0), (2, 0), (3, 0), (4, 1))]
        system.crash_site(4)
        system.run_for(10.0)
        for site in range(4):
            assert system.kernel(site).agent.view.sites() == (0, 1, 2, 3)


class TestViewSynchrony:
    def test_same_deliveries_between_same_views(self):
        """Survivors deliver identical message sets despite sender crash."""
        record = _crash_mid_stream(5, 4, "cbcast", (1, 2, 3), 10, 0.5)
        assert set(record.tags("m2")) == set(record.tags("m3")), \
            "survivors delivered different sets"

    def test_abcast_order_identical_despite_crash(self):
        record = _crash_mid_stream(6, 3, "abcast", (1, 2), 6, 0.4)
        assert record.tags("m0") == record.tags("m2"), \
            "ABCAST order diverged between survivors"

    def test_excluded_live_site_self_destructs(self):
        """§3.7: a live site excluded from the view undergoes recovery."""
        system = IsisCluster(n_sites=3, seed=7)
        system.run_for(5.0)
        # Partition site 2 away long enough for the others to expel it.
        system.cluster.lan.partition([[0, 1], [2]])
        system.run_for(60.0)
        system.cluster.lan.heal()
        system.run_for(30.0)
        assert not system.site(2).up, "excluded site should have crashed"
        assert system.sim.trace.value("sv.self_destructs") >= 1


class TestPartitionStall:
    def test_minority_partition_stalls_but_heals(self):
        """§2.1: partitions are not tolerated — progress stalls until healed.

        The group coordinator is in the majority partition; a member in
        the minority is eventually expelled.  The paper's stated policy is
        that parts of the system 'hang until communication is restored' —
        we verify the minority member makes no progress mid-partition.
        """
        system = IsisCluster(n_sites=3, seed=8)
        procs, deliveries = deploy_group(system, "grp", 3)
        system.run_for(5.0)
        system.cluster.lan.partition([[0, 1], [2]])

        def send_main():
            gid = yield procs[0][1].pg_lookup("grp")
            yield procs[0][1].cbcast(gid, 16, q="during-partition")

        procs[0][0].spawn(send_main(), "send")
        system.run_for(10.0)
        # The minority member cannot receive it.
        assert not any(
            m["q"] == "during-partition" for m in deliveries[2]
        )


class TestBatchedVirtualSynchrony:
    """§2.4 guarantees must survive wire-level envelope batching.

    With ``batch_window > 0`` envelopes coalesce into ``g.batch`` wire
    messages and sit in a sender-side buffer for up to the window; a
    flush must still produce gap-free, identically-ordered deliveries at
    every survivor.
    """

    CONFIG = dict(batch_window=0.010, piggyback_stability=True)

    @pytest.fixture(autouse=True)
    def _announce_every_eighth(self, monkeypatch):
        monkeypatch.setattr(stability_mod, "STAB_ANNOUNCE_EVERY", 8)

    def _system(self, n_sites, seed):
        return IsisCluster(n_sites=n_sites, seed=seed,
                           isis_config=IsisConfig(**self.CONFIG))

    def test_same_deliveries_between_same_views(self):
        """Gap-free delivery across a flush: survivors agree on the set,
        each sender's order intact despite coalescing and refill."""
        # The sender's site crashes mid-stream, with batches in flight.
        record = _crash_mid_stream(105, 4, "cbcast", (1, 2, 3), 10, 0.5,
                                   IsisConfig(**self.CONFIG))
        assert record.trace.value("batch.sent") > 0, \
            "workload never exercised the batching path"
        assert set(record.tags("m2")) == set(record.tags("m3")), \
            "survivors delivered different sets"

    def test_abcast_order_identical_despite_crash(self):
        record = _crash_mid_stream(106, 3, "abcast", (1, 2), 6, 0.4,
                                   IsisConfig(**self.CONFIG))
        assert record.tags("m0") == record.tags("m2"), \
            "ABCAST order diverged between survivors"

    def test_join_mid_stream_sees_consistent_cut(self):
        """A member joining under batched traffic misses nothing after
        its first view: the flush drains coalescing buffers at wedge."""
        system = self._system(3, seed=107)
        procs, deliveries = deploy_group(system, "grp", 2)
        system.run_for(5.0)
        stop = {"done": False}

        def blast(idx):
            gid = yield procs[idx][1].pg_lookup("grp")
            i = 0
            while not stop["done"]:
                yield procs[idx][1].cbcast(gid, 16, tag=f"s{idx}.{i}")
                i += 1

        for idx in (0, 1):
            procs[idx][0].spawn(blast(idx), f"blast{idx}")
        late, late_isis = system.spawn(2, "late")
        late_delivered = []
        late.bind(16, lambda msg: late_delivered.append(msg["tag"]))

        def join_late():
            gid = yield late_isis.pg_lookup("grp")
            yield late_isis.pg_join(gid)

        system.run_for(1.0)
        late.spawn(join_late(), "join")
        system.run_for(30.0)
        stop["done"] = True
        system.run_for(20.0)
        # Gap-free delivery across the flush: the joiner's stream per
        # sender is one contiguous run overlapping the old members' run
        # (no message batched at wedge time fell into the gap).
        old_tags = [m["tag"] for m in deliveries[0]]
        assert late_delivered, "joiner never received batched traffic"
        for sender in ("s0", "s1"):
            seq = [int(t.split(".")[1]) for t in late_delivered
                   if t.startswith(sender)]
            full = [int(t.split(".")[1]) for t in old_tags
                    if t.startswith(sender)]
            assert full == list(range(full[0], full[0] + len(full)))
            assert seq, f"joiner received nothing from {sender}"
            assert seq == list(range(seq[0], seq[0] + len(seq)))
            assert seq[0] <= full[-1], "joiner's run does not overlap"

    def test_stability_trims_without_fallback_rounds(self):
        """Piggybacked have-vectors GC the buffers while traffic flows."""
        system = self._system(3, seed=108)
        procs, _ = deploy_group(system, "grp", 3)
        system.run_for(5.0)

        def blast(idx):
            gid = yield procs[idx][1].pg_lookup("grp")
            for i in range(40):
                yield procs[idx][1].cbcast(gid, 16, tag=f"s{idx}.{i}")

        for idx in range(3):
            procs[idx][0].spawn(blast(idx), f"blast{idx}")
        system.run_for(60.0)
        assert system.sim.trace.value("stability.piggyback_trimmed") > 0
        for site in range(3):
            assert system.kernel(site).stats()["buffered_messages"] == 0


class TestTotalGroupFailure:
    @staticmethod
    def _call_after_all_members_fail(n_sites):
        system = IsisCluster(n_sites=n_sites, seed=9)
        procs, _ = deploy_group(system, "grp", 2)
        for proc, isis in procs:
            def slow_answer(msg, isis=isis):
                yield isis.reply(msg, late=True)

            proc.bind(21, slow_answer)
        caller, caller_isis = system.spawn(3, "caller")

        def call_main():
            gid = yield caller_isis.pg_lookup("grp")
            try:
                replies = yield caller_isis.cbcast(gid, 21, nwant=2, q="x")
                return len(replies)
            except BroadcastFailed as err:
                return f"failed:{len(err.replies)}"

        system.crash_site(0)
        system.crash_site(1)
        task = caller.spawn(call_main(), "call")
        system.run_for(120.0)
        return task

    @pytest.mark.xfail(strict=True, reason=(
        "the two sites left of four are an exact half without the oldest "
        "site: the primary-partition rule cannot tell two crashes from a "
        "2-2 partition, so the site view stalls and pg_lookup never "
        "resolves (ROADMAP item 17)"))
    def test_all_members_fail_caller_unblocked(self):
        task = self._call_after_all_members_fail(4)
        # Either the call failed cleanly or got no stuck state; never hangs.
        assert task.done

    @pytest.mark.xfail(strict=True, reason=(
        "site 1 is an exact half of the two-site view without its oldest "
        "site: the primary-partition rule cannot tell site 0's crash from "
        "a 1-1 partition, so site 1's site view stalls and never drops "
        "site 0 (ROADMAP item 17)"))
    def test_the_younger_of_two_sites_outlives_the_oldest(self):
        system = IsisCluster(n_sites=2, seed=9)
        system.run_for(5.0)
        system.crash_site(0)
        system.run_for(60.0)
        assert system.kernel(1).agent.view.sites() == (1,)

    def test_all_members_fail_caller_unblocked_of_five_sites(self):
        # Three sites left of five are more than half of the site view.
        assert self._call_after_all_members_fail(5).done
