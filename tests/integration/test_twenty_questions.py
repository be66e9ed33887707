"""Tests for the §5 twenty-questions application (all seven steps)."""

import pytest

from repro import IsisCluster, IsisConfig
from repro.apps.twenty_questions import (
    DEFAULT_DATABASE,
    GROUP_NAME,
    NO,
    UPDATE_ENTRY,
    SOMETIMES,
    YES,
    TwentyQuestionsClient,
    TwentyQuestionsServer,
    parse_query,
    register_program,
    verdict,
)
from repro.errors import IsisError
from repro.tools import install_recovery


class TestQueryParsing:
    def test_vertical_query(self):
        assert parse_query("color = red") == (False, "color", "=", "red")

    def test_horizontal_query(self):
        assert parse_query("*price > 9000") == (True, "price", ">", 9000)

    def test_numeric_coercion(self):
        assert parse_query("price < 100")[3] == 100

    def test_unknown_column_rejected(self):
        with pytest.raises(IsisError):
            parse_query("weight = 3")

    def test_garbage_rejected(self):
        with pytest.raises(IsisError):
            parse_query("what is this")


class TestVerdicts:
    def test_all_match_yes(self):
        rows = [{"color": "red"}, {"color": "red"}]
        assert verdict(rows, "color", "=", "red") == YES

    def test_none_match_no(self):
        rows = [{"color": "red"}]
        assert verdict(rows, "color", "=", "blue") == NO

    def test_some_match_sometimes(self):
        rows = [{"price": 10}, {"price": 10000}]
        assert verdict(rows, "price", ">", 9000) == SOMETIMES

    def test_empty_rows_no(self):
        assert verdict([], "color", "=", "red") == NO

    def test_type_mismatch_is_no_match(self):
        rows = [{"price": "cheap"}]
        assert verdict(rows, "price", ">", 100) == NO


def deploy_service(system, sites, nmembers=None, standby_sites=()):
    """Start the service with one member per site (+ optional standbys)."""
    nmembers = nmembers if nmembers is not None else len(sites)
    servers = []
    creator = TwentyQuestionsServer(
        system.site(sites[0]).spawn_process("tq0"),
        nmembers=nmembers)
    servers.append(creator)
    creator.process.spawn(creator.start(mode="create"), "start0")
    system.run_for(3.0)
    for i, site in enumerate(sites[1:], start=1):
        server = TwentyQuestionsServer(
            system.site(site).spawn_process(f"tq{i}"),
            nmembers=nmembers)
        servers.append(server)
        server.process.spawn(server.start(mode="join"), f"start{i}")
        system.run_for(25.0)
    for i, site in enumerate(standby_sites):
        standby = TwentyQuestionsServer(
            system.site(site).spawn_process(f"tq-sb{i}"),
            nmembers=nmembers, standby=True)
        servers.append(standby)
        standby.process.spawn(standby.start(mode="join"), f"sb{i}")
        system.run_for(25.0)
    return servers


def make_client(system, site, nmembers):
    proc = system.site(site).spawn_process("front-end")
    return proc, TwentyQuestionsClient(proc, nmembers=nmembers)


class TestDistributedService:
    def test_vertical_query_single_reply(self):
        system = IsisCluster(n_sites=4, seed=41)
        deploy_service(system, [0, 1, 2])
        proc, client = make_client(system, 3, nmembers=3)

        def main():
            result, answers = yield from client.ask("color = red")
            return result, answers

        task = proc.spawn(main(), "ask")
        system.run_for(40.0)
        result, answers = task.value
        assert result == SOMETIMES  # one red row among ten
        assert len(answers) == 1   # §5: vertical mode, one responder

    def test_horizontal_query_all_members_respond(self):
        system = IsisCluster(n_sites=4, seed=42)
        deploy_service(system, [0, 1, 2])
        proc, client = make_client(system, 3, nmembers=3)

        def main():
            result, answers = yield from client.ask("*price > 9000")
            return result, answers

        task = proc.spawn(main(), "ask")
        system.run_for(40.0)
        result, answers = task.value
        assert sorted(answers) == [0, 1, 2]
        assert result == SOMETIMES  # the paper's example answer vector

    def test_paper_example_price_query(self):
        """§5: '*price > 9000' over the paper's table, NMEMBERS rows split."""
        system = IsisCluster(n_sites=4, seed=43)
        deploy_service(system, [0, 1, 2, 3])
        proc, client = make_client(system, 0, nmembers=4)

        def main():
            result, answers = yield from client.ask("*price > 9000")
            return result, answers

        task = proc.spawn(main(), "ask")
        system.run_for(40.0)
        result, answers = task.value
        assert len(answers) == 4
        # Rows are dealt round-robin; with 10 rows over 4 members the
        # aggregate must be 'sometimes' (prices straddle 9000).
        assert result == SOMETIMES

    def test_secret_category_filters_rows(self):
        system = IsisCluster(n_sites=3, seed=44)
        deploy_service(system, [0, 1])
        proc, client = make_client(system, 2, nmembers=2)

        def main():
            yield from client.pick_category("car")
            result, _ = yield from client.ask("object = car")
            return result

        task = proc.spawn(main(), "ask")
        system.run_for(40.0)
        assert task.value == YES


class TestStandbys:
    def test_standby_nulls_until_member_fails(self):
        system = IsisCluster(n_sites=4, seed=45)
        servers = deploy_service(system, [0, 1], nmembers=2,
                                 standby_sites=(2,))
        proc, client = make_client(system, 3, nmembers=2)

        def ask_once():
            result, answers = yield from client.ask("*price > 9000")
            return answers

        task = proc.spawn(ask_once(), "ask1")
        system.run_for(40.0)
        assert sorted(task.value) == [0, 1]
        # Kill member 1: the standby recomputes its rank and takes over.
        servers[1].process.kill()
        system.run_for(40.0)
        task2 = proc.spawn(ask_once(), "ask2")
        system.run_for(60.0)
        assert sorted(task2.value) == [0, 1]  # served again by two members


class TestDynamicUpdates:
    def test_update_visible_to_subsequent_queries(self):
        system = IsisCluster(n_sites=3, seed=46)
        servers = deploy_service(system, [0, 1])
        proc, client = make_client(system, 2, nmembers=2)

        def main():
            size = yield from client.add_row(
                object="plane", color="silver", size="jumbo",
                price=1000000, make="Boeing", model="747")
            result, _ = yield from client.ask("*object = plane")
            return size, result

        task = proc.spawn(main(), "main")
        system.run_for(60.0)
        size, result = task.value
        assert size == len(DEFAULT_DATABASE) + 1
        assert result == SOMETIMES  # planes now exist among the cars
        assert all(len(s.database) == size for s in servers)

    def test_updates_totally_ordered_with_queries(self):
        """GBCAST updates serialize against CBCAST queries (§5 step 5)."""
        system = IsisCluster(n_sites=3, seed=47)
        servers = deploy_service(system, [0, 1])
        sizes = [len(s.database) for s in servers]
        proc, client = make_client(system, 2, nmembers=2)

        def main():
            for i in range(3):
                yield from client.add_row(
                    object=f"thing{i}", color="grey", size="s",
                    price=i, make="m", model="x")

        task = proc.spawn(main(), "main")
        system.run_for(90.0)
        assert all(len(s.database) == sizes[0] + 3 for s in servers)
        # Every member appended in the same order.
        tails = [tuple(r["object"] for r in s.database[-3:]) for s in servers]
        assert len(set(tails)) == 1


class TestTotalFailureRecovery:
    def test_log_replay_restores_updates(self):
        """§5 step 6 on the kernel WAL: after a total failure the
        recovery manager restarts the service from the log, and the
        restarted server holds the added row exactly once."""
        system = IsisCluster(n_sites=2, seed=48,
                             isis_config=IsisConfig(durability=True))
        managers = install_recovery(system)
        register_program(system.cluster, nmembers=1)
        for site in (0, 1):
            managers[site].register(GROUP_NAME, TwentyQuestionsServer.PROGRAM)
        deploy_service(system, [0])
        proc, client = make_client(system, 1, nmembers=1)

        def main():
            yield from client.add_row(
                object="boat", color="white", size="yacht",
                price=500000, make="Beneteau", model="Oceanis")

        task = proc.spawn(main(), "main")
        system.run_for(60.0)
        assert task.done and not task.rejected
        trace = system.sim.trace
        replies = lambda: [trace.value(f"mcast.{kind}")
                           for kind in ("reply", "null_reply")]
        before = replies()
        # Total failure: both sites crash and restart.
        for site in (0, 1):
            system.crash_site(site)
        system.run_for(10.0)
        for site in (0, 1):
            system.restart_site(site)
        system.run_for(120.0)
        assert trace.value("tool.rm_restored") == 1
        assert replies() == before  # the replayed update is not answered
        # The servers the recovery manager started, by their bound entry.
        reborn = [process.entries.lookup(UPDATE_ENTRY).__self__
                  for site in (0, 1)
                  for process in system.site(site).processes.values()
                  if process.entries.lookup(UPDATE_ENTRY) is not None]
        assert reborn
        for server in reborn:
            assert len(server.database) == len(DEFAULT_DATABASE) + 1
            assert [r["object"] for r in server.database].count("boat") == 1


class TestLoadBalancing:
    def test_shuffle_remaps_member_numbers(self):
        system = IsisCluster(n_sites=3, seed=49)
        servers = deploy_service(system, [0, 1])
        system.run_for(5.0)
        before = [s.my_number() for s in servers]

        def shuffle_main():
            yield servers[0].shuffle(1)

        servers[0].process.spawn(shuffle_main(), "shuffle")
        system.run_for(30.0)
        after = [s.my_number() for s in servers]
        assert before == [0, 1]
        assert after == [1, 0]
