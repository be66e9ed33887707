"""Advanced integration scenarios: migration, bulk state transfer,
cross-group causality, site recovery, stability GC, bulletin boards."""

import pytest

from conformance import deploy_group
from repro import IsisCluster, IsisConfig
from repro.sim import sleep
from repro.tools import BulletinBoard, register_raw_state


class TestProcessMigration:
    def test_migrate_by_join_then_leave(self):
        """§3.8: 'Process migration can thus be performed by starting a
        process that will join the group and then arranging for some
        other member to drop out as soon as the transfer completes.'"""
        system = IsisCluster(n_sites=3, seed=61)
        members, deliveries = deploy_group(system, "adv", 1)
        old_proc, old_isis = members[0]
        state = {"counter": 41}
        register_raw_state(
            old_isis, "app",
            lambda: str(state["counter"]).encode(),
            lambda b: None)
        new_proc, new_isis = system.spawn(1, "migrated")
        landed = {}
        register_raw_state(
            new_isis, "app",
            lambda: b"",
            lambda b: landed.update(counter=int(b)))

        def migrate():
            gid = yield new_isis.pg_lookup("adv")
            yield new_isis.pg_join(gid)           # state transfers in
            yield old_isis.pg_leave(gid)          # old member drops out
            # The leave resolves at the leaver's site; give the commit a
            # moment to install at this member's site too.
            yield sleep(system.sim, 1.0)
            view = yield new_isis.pg_view(gid)
            return view

        task = new_proc.spawn(migrate(), "migrate")
        system.run_for(60.0)
        view = task.value
        assert landed["counter"] == 41            # state arrived intact
        assert len(view.members) == 1
        assert view.rank_of(new_proc.address) == 0


class TestBulkStateTransfer:
    def test_large_state_travels_over_tcp_channel(self):
        """§3.8: 'ISIS messages for small transfers and TCP channels for
        large ones.'"""
        system = IsisCluster(n_sites=2, seed=62)
        members, _ = deploy_group(system, "adv", 1)
        big = bytes(range(256)) * 1024  # 256 KB >> bulk threshold
        register_raw_state(members[0][1], "blob", lambda: big, lambda b: None)
        got = {}
        joiner, joiner_isis = system.spawn(1, "joiner")
        register_raw_state(joiner_isis, "blob", lambda: b"",
                           lambda b: got.update(blob=b))

        def join():
            gid = yield joiner_isis.pg_lookup("adv")
            yield joiner_isis.pg_join(gid)

        task = joiner.spawn(join(), "join")
        system.run_for(60.0)
        assert task.done and not task.rejected
        assert got["blob"] == big
        # The snapshot streams over the TCP channel in chunks.
        assert system.sim.trace.value("bulk.transfers") >= 2
        assert system.sim.trace.value("state_transfer.chunks") >= 2

    def test_stream_does_not_cross_a_partition(self):
        """A streamed snapshot rides the bulk channel, not the LAN's
        frames, so only the channel can refuse it across a partition:
        a chunk finishing into a split is a reset, like a crash."""
        system = IsisCluster(n_sites=3, seed=5)
        members, _ = deploy_group(system, "adv", 2)
        payload = bytes(range(256)) * 8192      # 2 MB, many chunks
        for proc, isis in members:
            register_raw_state(isis, "blob", lambda: payload, lambda b: None)
        joiner, joiner_isis = system.spawn(2, "joiner")
        register_raw_state(joiner_isis, "blob", lambda: b"", lambda b: None)
        site = system.cluster.site(2)
        crossed = []
        deliver = site.deliver_bulk
        site.deliver_bulk = lambda src, chunk: (crossed.append(len(chunk)),
                                                deliver(src, chunk))

        def join():
            gid = yield joiner_isis.pg_lookup("adv")
            yield joiner_isis.pg_join(gid)

        task = joiner.spawn(join(), "join")
        trace = system.sim.trace
        while trace.value("bulk.stream_chunks") < 1:
            system.run_for(0.01)
        system.cluster.lan.partition([[0, 1], [2]])
        system.run_for(1.2)
        assert trace.value("lan.dropped.partition") > 0
        assert crossed == []
        assert trace.value("state_transfer.streams_aborted") == 1
        assert not task.done

    def test_transfer_restarts_when_source_dies(self):
        system = IsisCluster(n_sites=3, seed=63)
        members, _ = deploy_group(system, "adv", 2)
        payload = b"replica-state"
        for proc, isis in members:
            register_raw_state(isis, "blob", lambda: payload, lambda b: None)
        got = {}
        joiner, joiner_isis = system.spawn(2, "joiner")
        register_raw_state(joiner_isis, "blob", lambda: b"",
                           lambda b: got.update(blob=b))

        def join():
            gid = yield joiner_isis.pg_lookup("adv")
            yield joiner_isis.pg_join(gid)
            return "joined"

        task = joiner.spawn(join(), "join")
        # Crash the transfer source (the oldest member, site 0) while the
        # join is in flight.
        system.run_for(0.05)
        system.crash_site(0)
        system.run_for(240.0)
        assert task.done and not task.rejected
        assert got.get("blob") == payload

    def test_stream_rerequested_when_source_dies_mid_stream(self):
        """The source dies after two ``st.chunk``s: the joiner's join,
        still outstanding, is sent again to the next coordinator, which
        streams it the whole state again."""
        system = IsisCluster(n_sites=3, seed=63)
        members, _ = deploy_group(system, "adv", 2)
        payload = bytes(range(200)) * 2000      # 400 KB: 7 chunks
        for proc, isis in members:
            register_raw_state(isis, "blob", lambda: payload, lambda b: None)
        got = {}
        joiner, joiner_isis = system.spawn(2, "joiner")
        register_raw_state(joiner_isis, "blob", lambda: b"",
                           lambda b: got.update(blob=b))

        def join():
            gid = yield joiner_isis.pg_lookup("adv")
            yield joiner_isis.pg_join(gid)

        task = joiner.spawn(join(), "join")
        trace = system.sim.trace
        while trace.value("state_transfer.chunks") < 2:
            system.run_for(0.001)
        assert trace.value("state_transfer.streams") == 1
        system.crash_site(0)
        system.run_for(60.0)
        assert task.done and not task.rejected
        assert trace.value("state_transfer.streams") >= 2
        assert got.get("blob") == payload


class TestCrossGroupCausality:
    def test_causal_chain_through_two_groups(self):
        """A CBCAST in group B after delivering from group A must not be
        seen before the group-A message by a common member."""
        system = IsisCluster(n_sites=3, seed=64,
                             isis_config=IsisConfig())
        order = []
        # p0 in A and B; p1 in A and B (observer); p2 client.
        p0, isis0 = system.spawn(0, "p0")
        p1, isis1 = system.spawn(1, "p1")
        p1.bind(20, lambda msg: order.append(("A", msg["n"])))
        p1.bind(21, lambda msg: order.append(("B", msg["n"])))
        p0.bind(20, lambda msg: None)
        p0.bind(21, lambda msg: None)
        gids = {}

        def setup():
            gids["A"] = yield isis0.pg_create("groupA")
            gids["B"] = yield isis0.pg_create("groupB")

        p0.spawn(setup(), "setup")
        system.run_for(3.0)

        def join_both():
            yield isis1.pg_join(gids["A"])
            yield isis1.pg_join(gids["B"])

        p1.spawn(join_both(), "join")
        system.run_for(40.0)

        def chain():
            # Send to A, then *causally after it* send to B.
            yield isis0.cbcast(gids["A"], 20, n=1)
            yield isis0.cbcast(gids["B"], 21, n=2)

        p0.spawn(chain(), "chain")
        system.run_for(30.0)
        assert order == [("A", 1), ("B", 2)]


class TestSiteRecovery:
    def test_crashed_site_rejoins_site_view(self):
        system = IsisCluster(n_sites=3, seed=65)
        system.run_for(5.0)
        system.crash_site(2)
        system.run_for(60.0)
        view = system.kernel(0).site_view
        assert 2 not in view.sites()
        system.restart_site(2)
        system.run_for(60.0)
        view = system.kernel(0).site_view
        assert 2 in view.sites()
        # The recovered incarnation is the new one.
        assert view.incarnation_of(2) == 1

    def test_recovered_site_can_host_group_members(self):
        system = IsisCluster(n_sites=3, seed=66)
        members, deliveries = deploy_group(system, "adv", 2)
        system.crash_site(1)
        system.run_for(60.0)
        system.restart_site(1)
        system.run_for(60.0)
        # A fresh process at the recovered site joins the running group.
        proc, isis = system.spawn(1, "reborn")
        got = []
        proc.bind(16, lambda msg: got.append(msg["q"]))

        def rejoin():
            gid = yield isis.pg_lookup("adv")
            yield isis.pg_join(gid)

        task = proc.spawn(rejoin(), "rejoin")
        system.run_for(60.0)
        assert task.done and not task.rejected

        def send():
            gid = yield members[0][1].pg_lookup("adv")
            yield members[0][1].cbcast(gid, 16, q="post-recovery")

        members[0][0].spawn(send(), "send")
        system.run_for(20.0)
        assert got == ["post-recovery"]


class TestStabilityGC:
    def test_buffers_trimmed_after_stability_round(self):
        system = IsisCluster(n_sites=2, seed=67)
        members, _ = deploy_group(system, "adv", 2)

        def blast():
            gid = yield members[0][1].pg_lookup("adv")
            for i in range(10):
                yield members[0][1].cbcast(gid, 16, n=i)

        members[0][0].spawn(blast(), "blast")
        system.run_for(30.0)  # several stability intervals
        assert system.sim.trace.value("stability.trimmed") > 0
        for site in (0, 1):
            engine = next(iter(system.kernel(site).engines.values()))
            assert engine.store.buffered_count == 0


class TestBulletinBoard:
    def _setup(self, system):
        members, _ = deploy_group(system, "bb", 2)
        boards = []
        gid_box = {}

        def get_gid():
            gid_box["gid"] = yield members[0][1].pg_lookup("bb")

        members[0][0].spawn(get_gid(), "gid")
        system.run_for(3.0)
        for proc, isis in members:
            boards.append(BulletinBoard(isis, gid_box["gid"]))
        return members, boards, gid_box["gid"]

    def test_posts_replicate_and_reads_are_local(self):
        system = IsisCluster(n_sites=2, seed=68)
        members, boards, gid = self._setup(system)

        def post():
            yield boards[0].post("hypotheses", "h1", "the cat did it")

        members[0][0].spawn(post(), "post")
        system.run_for(10.0)
        for board in boards:
            postings = board.read("hypotheses")
            assert [p.body for p in postings] == ["the cat did it"]

    def test_ordered_posts_agree_across_replicas(self):
        system = IsisCluster(n_sites=2, seed=69)
        members, boards, gid = self._setup(system)

        def post(idx):
            for i in range(3):
                yield boards[idx].post_ordered("plan", f"s{idx}", f"{idx}.{i}")

        members[0][0].spawn(post(0), "p0")
        members[1][0].spawn(post(1), "p1")
        system.run_for(40.0)
        seq0 = [p.body for p in boards[0].read("plan")]
        seq1 = [p.body for p in boards[1].read("plan")]
        assert seq0 == seq1 and len(seq0) == 6

    def test_watchers_fire_on_arrival(self):
        system = IsisCluster(n_sites=2, seed=70)
        members, boards, gid = self._setup(system)
        seen = []
        boards[1].watch("alerts", lambda p: seen.append(p.subject))

        def post():
            yield boards[0].post("alerts", "fire", "!")

        members[0][0].spawn(post(), "post")
        system.run_for(10.0)
        assert seen == ["fire"]

    def test_board_history_transfers_to_joiner(self):
        system = IsisCluster(n_sites=3, seed=71)
        members, boards, gid = self._setup(system)

        def post():
            yield boards[0].post("log", "entry", "before-join")

        members[0][0].spawn(post(), "post")
        system.run_for(10.0)
        late_proc, late_isis = system.spawn(2, "late")
        late_board = BulletinBoard(late_isis, gid)

        def join():
            yield late_isis.pg_join(gid)

        late_proc.spawn(join(), "join")
        system.run_for(30.0)
        assert [p.body for p in late_board.read("log")] == ["before-join"]
