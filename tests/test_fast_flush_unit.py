"""Unit tests for the view-change flush.

Covers the pieces the churn property sweep cannot pin down
individually: the single-round pre-report path, the takeover fallback
to full reports when a coordinator dies mid-flush, delta report codecs,
malformed reports, delivered-finals pruning, and the streaming join
state transfer (including a joiner dying mid-stream).
"""

import pytest

from conformance import deploy_group
from repro import IsisCluster, IsisConfig
from repro.core.flush import PREREPORT_GRACE
from repro.errors import CodecError
from repro.msg import Message
from repro.msg.fields import (
    apply_have_diff,
    decode_have_vector,
    encode_have_vector,
    exact_diff_have_vector,
)
from repro.tools import register_raw_state

ENTRY = 16


def group_engine(system, site, name="ff"):
    for engine in system.kernel(site).engines.values():
        if engine.installed and engine.view is not None:
            return engine
    raise AssertionError(f"no installed engine at site {site}")


class TestExactDiffCodec:
    def test_roundtrip_both_directions(self):
        base = {0: 5, 1: 3, 2: 7}
        cases = [
            {0: 5, 1: 3, 2: 7},          # equal -> empty diff
            {0: 6, 1: 3, 2: 7, 3: 1},    # ahead + new origin
            {0: 5, 1: 2},                # behind + origin missing
            {},                          # everything missing
        ]
        for cur in cases:
            diff = exact_diff_have_vector(base, cur)
            assert apply_have_diff(base, diff) == {
                k: v for k, v in cur.items() if v > 0}
        assert exact_diff_have_vector(base, dict(base)) == {}

    def test_diff_travels_through_wire_codec(self):
        base = {0: 9, 4: 2}
        cur = {0: 11, 2: 5}
        diff = exact_diff_have_vector(base, cur)
        decoded = decode_have_vector(encode_have_vector(diff))
        assert apply_have_diff(base, decoded) == cur


class TestSingleRoundFastPath:
    def test_site_crash_commits_without_begin_round(self):
        system = IsisCluster(n_sites=3, seed=41)
        deploy_group(system, "ff", 3, 15.0)
        system.run_for(5.0)
        trace = system.sim.trace
        before = trace.snapshot("flush.")
        system.crash_site(2)
        system.run_for(15.0)
        delta = trace.delta(before, "flush.")
        assert delta.get("flush.prereports_sent", 0) >= 1
        assert delta.get("flush.fast_path", 0) >= 1
        assert delta.get("flush.grace_begins", 0) == 0
        for site in (0, 1):
            view = group_engine(system, site).view
            assert len(view.members) == 2
            assert not group_engine(system, site).wedged

    def test_a_relay_crash_in_tree_mode_commits_in_one_round(self):
        """Pre-reports go straight to the coordinator in tree mode too:
        when site 1, an interior relay of site 0's tree (fanout 4), dies,
        no report depends on it and the flush needs no begin round."""
        n = 32
        system = IsisCluster(n_sites=n, seed=601, isis_config=IsisConfig(
            dissemination="tree", tree_fanout=4, abcast_mode="sequencer"))
        members = [system.spawn(site, f"m{site}") for site in range(n)]

        def create(isis=members[0][1]):
            yield isis.pg_create("ff")

        def join(isis):
            gid = yield isis.pg_lookup("ff")
            yield isis.pg_join(gid)

        members[0][0].spawn(create(), "create")
        system.run_for(3.0)
        for process, isis in members[1:]:
            process.spawn(join(isis), "join")
        system.run_for(10.0)
        assert len(group_engine(system, 0).view.members) == n
        trace = system.sim.trace
        before = trace.snapshot("flush.")
        system.crash_site(1)
        system.run_for(10.0)
        delta = trace.delta(before, "flush.")
        assert delta.get("flush.prereports_sent", 0) == n - 2
        assert delta.get("flush.fast_path", 0) == 1
        assert delta.get("flush.fast_path_misses", 0) == 0
        assert delta.get("flush.grace_begins", 0) == 0
        for site in (0, 2, n - 1):
            assert len(group_engine(system, site).view.members) == n - 1

    def test_a_report_queued_on_the_cpu_when_the_grace_ends_counts(self):
        """The grace is judged once the coordinator's CPU has taken in
        what reached it: site 1's pre-report, queued behind a second of
        work submitted after the grace was armed, is not a straggler."""
        system = IsisCluster(n_sites=3, seed=41)
        deploy_group(system, "ff", 3, 15.0)
        system.run_for(5.0)
        trace = system.sim.trace
        before = trace.snapshot("flush.")
        system.crash_site(2)
        flush, cpu = group_engine(system, 0).flush, system.kernel(0).site.cpu
        deadline = system.sim.now + 15.0
        while flush._grace_timer is None and system.sim.now < deadline:
            system.run_for(0.001)
        assert flush._grace_timer is not None
        assert flush._grace_timer.time == pytest.approx(
            system.sim.now + PREREPORT_GRACE + cpu.backlog, abs=1e-9)
        cpu.submit(1.0)
        system.run_for(15.0)
        delta = trace.delta(before, "flush.")
        assert delta.get("flush.fast_path", 0) == 1
        assert delta.get("flush.grace_begins", 0) == 0
        assert len(group_engine(system, 0).view.members) == 2

    def test_leave_flush_uses_explicit_begin_with_base(self):
        """Reason-driven flushes (no site-view trigger) keep the begin
        round but carry the base union for delta reports."""
        system = IsisCluster(n_sites=3, seed=42)
        members, _ = deploy_group(system, "ff", 3, 15.0)
        system.run_for(5.0)
        trace = system.sim.trace
        before = trace.snapshot("flush.")

        def leave():
            gid = yield members[2][1].pg_lookup("ff")
            yield members[2][1].pg_leave(gid)

        members[2][0].spawn(leave(), "leave")
        system.run_for(10.0)
        delta = trace.delta(before, "flush.")
        assert delta.get("flush.runs", 0) >= 1
        # No site died, so no pre-reports; begins were sent instead.
        assert delta.get("flush.prereports_sent", 0) == 0
        stats = system.kernel(0).stats()
        assert stats["flush.fast_path_misses"] >= 1
        assert len(group_engine(system, 0).view.members) == 2

    def test_wedged_seconds_accumulate(self):
        system = IsisCluster(n_sites=3, seed=43)
        deploy_group(system, "ff", 3, 15.0)
        system.run_for(5.0)
        system.crash_site(2)
        system.run_for(15.0)
        for site in (0, 1):
            stats = system.kernel(site).stats()
            assert stats["flush.wedged_seconds"] > 0.0
        # Only the coordinator site counts flush rounds.
        assert system.kernel(0).stats()["flush.rounds"] >= 1


class TestRefillUnderPreReports:
    def test_crash_under_inflight_traffic_completes_flush(self):
        """Regression: a participant wedged under its pre-report fid
        (attempt 0) must adopt the coordinator's higher-fid
        ``g.fl.expect`` during the refill phase, or the flush stalls
        wedged forever (the pre-report snapshot can be stale, so the
        coordinator may schedule refills for a site that has since
        caught up)."""
        system = IsisCluster(n_sites=4, seed=3)
        members, _ = deploy_group(system, "ff", 4, 15.0)
        for idx in range(4):
            def gen(isis=members[idx][1], idx=idx):
                from repro.sim.tasks import sleep
                gid = yield isis.pg_lookup("ff")
                for i in range(12):
                    yield isis.bcast(gid, ENTRY,
                                     kind="abcast" if i % 2 else "cbcast",
                                     tag=f"{idx}:{i}")
                    yield sleep(system.sim, 0.15)

            members[idx][0].spawn(gen(), f"t{idx}")
        system.run_for(0.6)
        # A short split lets one side race ahead, then a crash right
        # after the heal wedges the group with stale pre-reports.
        system.cluster.lan.partition([[0, 1], [2, 3]])
        system.run_for(0.9)
        system.cluster.lan.heal()
        system.run_for(1.0)
        system.crash_site(3)
        system.run_for(30.0)
        views = set()
        for site in (0, 1, 2):
            engine = group_engine(system, site)
            assert not engine.wedged, f"site {site} stuck wedged"
            views.add(tuple(str(m) for m in engine.view.members))
        assert len(views) == 1
        assert len(next(iter(views))) == 3


class TestCoordinatorFailure:
    def test_takeover_falls_back_to_full_reports(self):
        """A participant wedged under a dead coordinator's explicit
        round must, on becoming coordinator, re-solicit full reports
        rather than trust pre-reports addressed elsewhere."""
        system = IsisCluster(n_sites=3, seed=44)
        deploy_group(system, "ff", 3, 15.0)
        system.run_for(5.0)
        engine1 = group_engine(system, 1)
        gid = engine1.gid
        target = engine1.view.view_id + 1
        # Fabricate a begin from the (about to die) coordinator site 0:
        # participants wedge under fid (target, attempt 1, site 0).
        begin = Message(_proto="g.fl.begin", gid=gid, fid=[target, 1, 0])
        for site in (1, 2):
            system.kernel(site)._dispatch(0, Message.decode(begin.encode()))
        assert group_engine(system, 1).wedged
        system.crash_site(0)
        system.run_for(20.0)
        trace = system.sim.trace
        assert trace.value("flush.takeover_full") >= 1
        for site in (1, 2):
            engine = group_engine(system, site)
            assert not engine.wedged
            assert len(engine.view.members) == 2
            assert engine.view.members[0].site == 1  # new coordinator

    def test_lower_fid_from_acting_coordinator_accepted(self):
        """The successor coordinator's attempt counter restarts, so its
        begin can carry a *lower* fid than the dead coordinator's —
        participants must still serve it."""
        system = IsisCluster(n_sites=3, seed=45)
        deploy_group(system, "ff", 3, 15.0)
        system.run_for(5.0)
        engine2 = group_engine(system, 2)
        gid = engine2.gid
        target = engine2.view.view_id + 1
        # Wedge site 2 under a high-attempt begin from site 0, then kill
        # site 0; site 1 becomes acting coordinator with attempt 1.
        begin = Message(_proto="g.fl.begin", gid=gid, fid=[target, 9, 0])
        system.kernel(2)._dispatch(0, Message.decode(begin.encode()))
        assert group_engine(system, 2).flush._participant_fid == (target, 9, 0)
        system.crash_site(0)
        system.run_for(20.0)
        engine = group_engine(system, 2)
        assert not engine.wedged
        assert len(engine.view.members) == 2


class TestMalformedReports:
    """A ``g.fl.ok`` is outside input: a bad one is counted, not raised."""

    def _setup(self):
        system = IsisCluster(n_sites=4, seed=49)
        deploy_group(system, "ff", 4, 15.0)
        engine = group_engine(system, 0)
        target = engine.view.view_id + 1

        def report(**fields):
            return Message(_proto="g.fl.ok", gid=engine.gid,
                           fid=[target, 0, 0], pre=True, **fields)

        good = report(have_b=encode_have_vector({0: 3}), abp=[], abd=[])
        return system, engine, target, report, good

    def test_a_bad_report_refuses_only_itself(self):
        """A wrong field refuses its message whole, and nothing else:
        the good pre-reports around it are stashed."""
        system, engine, target, report, good = self._setup()
        no_vector = report(abp=[], abd=[])
        for site, raw in ((1, good.encode()), (2, no_vector.encode()),
                          (3, good.encode())):
            engine.kernel._dispatch(site, Message.decode(raw))
        assert sorted(engine.flush._pre_reports[target]) == [1, 3]
        assert system.sim.trace.value("kernel.bad_message") == 1

    def test_bad_direct_reports_are_counted(self):
        system, engine, target, report, good = self._setup()
        vector = encode_have_vector({0: 3})
        for bad in (report(have_b=vector, abd=[]),              # no abp
                    report(have_b=vector, abp=[]),              # no abd
                    report(have_b=vector, abp=[{"ref": [0, 1]}], abd=[]),
                    Message(_proto="g.fl.ok", gid=engine.gid,   # no fid
                            have_b=vector, abp=[], abd=[])):
            with pytest.raises(CodecError):     # the sender's bug
                bad.encode()
            engine.kernel._dispatch(1, bad)     # and still the reader's
        assert system.sim.trace.value("kernel.bad_message") == 4
        assert target not in engine.flush._pre_reports
        engine.kernel._dispatch(1, Message.decode(good.encode()))
        assert sorted(engine.flush._pre_reports[target]) == [1]


def test_a_final_completed_by_a_site_death_keeps_sender_order():
    """Site 3 multicasts x1 and x2 just after site 0 sends m1, m2, m3:
    site 3 proposes high for m1 and dies before its proposal for m2
    reaches site 0, which then finishes m2's collection with the
    survivors' lower proposals alone.  That maximum sorts below m1's
    final, so site 0 gives m2 a fresh priority above it
    (``TotalOrdering.on_sites_died``)."""
    system = IsisCluster(n_sites=4, seed=1, isis_config=IsisConfig(
        abcast_mode="two_phase"))
    members, handed = deploy_group(system, "ff", 4, 15.0, field="tag")
    system.run_for(5.0)

    def send(isis, tags):
        gid = yield isis.pg_lookup("ff")
        for tag in tags[:-1]:
            isis.abcast(gid, ENTRY, tag=tag)
        yield isis.abcast(gid, ENTRY, tag=tags[-1])

    members[0][0].spawn(send(members[0][1], ["m1", "m2", "m3"]), "s0")
    system.run_for(0.005)
    members[3][0].spawn(send(members[3][1], ["x1", "x2"]), "s3")
    system.run_for(0.046)
    system.crash_site(3)
    system.run_for(20.0)
    for site in range(3):
        assert [tag for tag in handed[site] if tag.startswith("m")] == [
            "m1", "m2", "m3"], f"site {site}: {handed[site]}"


class TestDeliveredFinalsPruning:
    def _run(self):
        system = IsisCluster(n_sites=3, seed=46)
        members, _ = deploy_group(system, "ff", 3, 15.0)

        def blast():
            gid = yield members[0][1].pg_lookup("ff")
            for i in range(30):
                yield members[0][1].abcast(gid, ENTRY, tag=i)

        members[0][0].spawn(blast(), "blast")
        system.run_for(12.0)  # traffic + two stability ticks
        return system

    def test_fast_mode_prunes_delivered_finals(self):
        system = self._run()
        total = sum(len(group_engine(system, s).total.delivered)
                    for s in range(3))
        assert total <= 6, f"{total} delivered finals left unpruned"
        assert system.sim.trace.value("flush.finals_pruned") > 0

    @pytest.mark.parametrize("mode", ["two_phase", "sequencer"])
    def test_receivers_hold_pending_state_only(self, mode):
        """The stage's pruned book is the one record of what was
        delivered at which priority: the queues forget a ref once it is
        delivered, so a quiet stage holds nothing but its book however
        long the view has lived."""
        system = IsisCluster(n_sites=4, seed=3,
                             isis_config=IsisConfig(abcast_mode=mode))
        members, _ = deploy_group(system, "ff", 4, 15.0)

        def held(site):
            stage = group_engine(system, site).total
            return sum(len(value) for name, value in vars(stage).items()
                       if name != "delivered"
                       and isinstance(value, (dict, list, set)))

        def blast(isis, rnd):
            gid = yield isis.pg_lookup("ff")
            for i in range(25):
                yield isis.abcast(gid, ENTRY, tag=(rnd, i))

        for rnd in range(4):
            for proc, isis in members:
                proc.spawn(blast(isis, rnd), "blast")
            system.run_for(60.0)
            assert system.sim.trace.value("deliver.group") == \
                4 * 100 * (rnd + 1)
            assert [held(s) for s in range(4)] == [0, 0, 0, 0]


class TestStreamingJoinTransfer:
    def _deploy_source(self, system, blob):
        proc, isis = system.spawn(0, "src")
        proc.bind(ENTRY, lambda msg: None)
        register_raw_state(isis, "blob", lambda: blob, lambda b: None)

        def create():
            yield isis.pg_create("big")

        proc.spawn(create(), "create")
        system.run_for(3.0)
        return proc, isis

    def test_joiner_death_mid_stream_aborts_cleanly(self):
        blob = bytes(range(256)) * 1536  # ~384 KB -> several chunks
        system = IsisCluster(n_sites=2, seed=47)
        self._deploy_source(system, blob)
        joiner, joiner_isis = system.spawn(1, "joiner")
        got = {}
        register_raw_state(joiner_isis, "blob", lambda: b"",
                           lambda b: got.update(blob=b))

        def join():
            gid = yield joiner_isis.pg_lookup("big")
            yield joiner_isis.pg_join(gid)

        joiner.spawn(join(), "join")
        trace = system.sim.trace
        for _ in range(400):
            system.run_for(0.05)
            # Wait for the stream to begin AND the welcome to land at
            # the joiner (so its kernel watches the member's death).
            if (trace.value("state_transfer.chunks") >= 1
                    and system.kernel(1)._watched_procs):
                break
        assert trace.value("state_transfer.chunks") >= 1, "stream never began"
        assert trace.value("state_transfer.chunks") < 6, "stream finished"
        joiner.kill()
        system.run_for(20.0)
        assert trace.value("state_transfer.streams_aborted") >= 1
        assert "blob" not in got  # never finished
        # Source side: no dangling stream; joiner side: gated traffic
        # and join bookkeeping dropped cleanly.
        assert system.kernel(0).stats()["state_transfer.streams_active"] == 0
        assert system.kernel(1).joins.gated == {}
        assert system.kernel(1).joins.pending == {}
        # Group shrank back to the single original member.
        assert len(group_engine(system, 0, "big").view.members) == 1

    def test_concurrent_joiners_share_one_flush_and_encode(self):
        """Joins queued behind an in-progress flush batch into one
        successor flush; its joiners share a single snapshot encode."""
        blob = bytes(range(256)) * 1024  # 256 KB
        system = IsisCluster(n_sites=4, seed=48)
        encodes = {"n": 0}
        members, _ = deploy_group(system, "big", 2, 15.0)

        def snapshot():
            encodes["n"] += 1
            return blob

        register_raw_state(members[0][1], "blob", snapshot, lambda b: None)
        system.run_for(2.0)
        got = {}
        joiners = {}
        for site in (2, 3):
            jproc, jisis = system.spawn(site, f"j{site}")
            register_raw_state(jisis, "blob", lambda: b"",
                               lambda b, s=site: got.update({s: b}))
            joiners[site] = (jproc, jisis)
            # Resolve the name first so the join requests fire together.

            def lookup(jisis=jisis, site=site):
                joiners[site] = joiners[site] + (
                    (yield jisis.pg_lookup("big")),)

            jproc.spawn(lookup(), f"lk{site}")
        system.run_for(3.0)
        before = system.sim.trace.value("flush.runs")

        # A GBCAST flush wedges the group; both join requests arrive
        # while it runs and batch into one successor flush.
        def gb():
            gid = yield members[0][1].pg_lookup("big")
            yield members[0][1].gbcast(gid, ENTRY, tag="wedge")

        members[0][0].spawn(gb(), "gb")
        for site in (2, 3):
            jproc, jisis, gid = joiners[site]

            def join(jisis=jisis, gid=gid):
                yield jisis.pg_join(gid)

            jproc.spawn(join(), f"join{site}")
        system.run_for(40.0)
        assert got == {2: blob, 3: blob}
        assert len(group_engine(system, 0, "big").view.members) == 4
        flushes = system.sim.trace.value("flush.runs") - before
        assert flushes == 2, f"expected gbcast + one batched join flush, " \
                             f"got {flushes}"
        # One shared snapshot encode for both joiners, two streams.
        assert encodes["n"] == 1
        assert system.sim.trace.value("state_transfer.streams") == 2
