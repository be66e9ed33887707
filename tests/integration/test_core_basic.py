"""End-to-end tests of the virtual synchrony core: groups and multicast."""

import pytest

from conformance import deploy_group
from repro import ALL, IsisCluster, Message
from repro.errors import GroupError, NoSuchGroup


def make_system(n_sites=3, seed=0):
    return IsisCluster(n_sites=n_sites, seed=seed)


def run_to_result(system, task, timeout=120.0):
    system.run(until=system.now + timeout)
    assert task.done, f"task {task.name} did not finish by t={system.now}"
    return task.value


class TestGroupLifecycle:
    def test_create_and_lookup(self):
        system = make_system()
        server, isis = system.spawn(0, "server")
        client, client_isis = system.spawn(1, "client")

        def server_main():
            gid = yield isis.pg_create("svc")
            return gid

        def client_main():
            gid = yield client_isis.pg_lookup("svc")
            return gid

        t1 = server.spawn(server_main(), "create")
        system.run_for(5.0)
        gid = t1.value
        assert gid.is_group
        t2 = client.spawn(client_main(), "lookup")
        system.run_for(5.0)
        assert t2.value == gid

    def test_lookup_unknown_name_fails(self):
        system = make_system()
        client, isis = system.spawn(0, "client")

        def main():
            try:
                yield isis.pg_lookup("ghost")
            except NoSuchGroup:
                return "missing"

        task = client.spawn(main(), "lookup")
        system.run_for(5.0)
        assert task.value == "missing"

    def test_join_from_another_site(self):
        system = make_system()
        creator, isis0 = system.spawn(0, "creator")
        joiner, isis1 = system.spawn(1, "joiner")
        views = {}

        def create_main():
            gid = yield isis0.pg_create("team")
            views["gid"] = gid

        def join_main():
            gid = yield isis1.pg_lookup("team")
            view = yield isis1.pg_join(gid)
            return view

        creator.spawn(create_main(), "create")
        system.run_for(3.0)
        task = joiner.spawn(join_main(), "join")
        system.run_for(20.0)
        view = task.value
        assert view.rank_of(creator.address) == 0  # creator is oldest
        assert view.rank_of(joiner.address) == 1
        assert len(view.members) == 2

    def test_members_see_same_view_sequence(self):
        system = make_system()
        creator, isis0 = system.spawn(0, "creator")
        history0, history1 = [], []

        def create_main():
            gid = yield isis0.pg_create("team")
            yield isis0.pg_monitor(gid, lambda v: history0.append(
                tuple(str(m) for m in v.members)))

        creator.spawn(create_main(), "create")
        system.run_for(3.0)

        joiners = []
        for site in (1, 2):
            proc, isis = system.spawn(site, f"j{site}")
            joiners.append(proc)

            def join_main(isis=isis, hist=history1 if site == 1 else None):
                gid = yield isis.pg_lookup("team")
                yield isis.pg_join(gid)
                if hist is not None:
                    yield isis.pg_monitor(gid, lambda v: hist.append(
                        tuple(str(m) for m in v.members)))

            proc.spawn(join_main(), f"join{site}")
            system.run_for(20.0)
        # The creator observed both joins, in order, ending at 3 members.
        assert len(history0) == 2
        assert len(history0[-1]) == 3

    def test_leave_shrinks_view(self):
        system = make_system()
        creator, isis0 = system.spawn(0, "creator")
        joiner, isis1 = system.spawn(1, "joiner")
        views = []

        def create_main():
            gid = yield isis0.pg_create("team")
            yield isis0.pg_monitor(gid, lambda v: views.append(v))

        def join_then_leave():
            gid = yield isis1.pg_lookup("team")
            yield isis1.pg_join(gid)
            yield isis1.pg_leave(gid)
            return "left"

        creator.spawn(create_main(), "create")
        system.run_for(3.0)
        task = joiner.spawn(join_then_leave(), "joinleave")
        system.run_for(30.0)
        assert task.value == "left"
        assert len(views[-1].members) == 1


class TestMulticast:
    def test_cbcast_reaches_all_members(self):
        system = make_system()
        procs, deliveries = deploy_group(system, "g3", 3)

        def send_main():
            gid = yield procs[0][1].pg_lookup("g3")
            yield procs[0][1].cbcast(gid, 16, q="hello")

        procs[0][0].spawn(send_main(), "send")
        system.run_for(10.0)
        for site in range(3):
            assert [m["q"] for m in deliveries[site]] == ["hello"]

    def test_cbcast_sender_order_preserved(self):
        system = make_system()
        procs, deliveries = deploy_group(system, "g3", 3)

        def send_main():
            gid = yield procs[0][1].pg_lookup("g3")
            for i in range(5):
                yield procs[0][1].cbcast(gid, 16, seq=i)

        procs[0][0].spawn(send_main(), "send")
        system.run_for(15.0)
        for site in range(3):
            assert [m["seq"] for m in deliveries[site]] == list(range(5))

    def test_abcast_total_order_across_concurrent_senders(self):
        system = make_system(seed=3)
        procs, deliveries = deploy_group(system, "g3", 3)

        def send_main(idx):
            gid = yield procs[idx][1].pg_lookup("g3")
            for i in range(4):
                yield procs[idx][1].abcast(gid, 16, tag=f"s{idx}.{i}")

        for idx in range(3):
            procs[idx][0].spawn(send_main(idx), f"send{idx}")
        system.run_for(40.0)
        orders = [[m["tag"] for m in deliveries[s]] for s in range(3)]
        assert len(orders[0]) == 12
        assert orders[0] == orders[1] == orders[2]

    def test_rpc_collects_requested_replies(self):
        system = make_system()
        procs, _ = deploy_group(system, "g3", 3)
        # Rebind: members answer queries.
        for site in range(3):
            proc, isis = procs[site]

            def answer(msg, isis=isis, site=site):
                yield isis.reply(msg, answer=site * 10)

            proc.bind(17, answer)
        caller, caller_isis = system.spawn(0, "caller")

        def call_main():
            gid = yield caller_isis.pg_lookup("g3")
            replies = yield caller_isis.cbcast(gid, 17, nwant=ALL, q="x")
            return sorted(r["answer"] for r in replies)

        task = caller.spawn(call_main(), "call")
        system.run_for(20.0)
        assert task.value == [0, 10, 20]

    def test_reply_cc_from_a_non_member_goes_out_as_the_local_member(self):
        """A process answers a call to its own group with copies to g3,
        which it is not in but whose member m0 shares its site: the copy
        is m0's CBCAST, the one dimension g3's vectors have there.  The
        stamp itself refuses a sender with no rank in the view."""
        from repro.core.rpc import CC_REPLY_ENTRY
        system = make_system()
        procs, _ = deploy_group(system, "g3", 3)
        copies = {0: [], 1: [], 2: []}
        for site, (proc, _) in enumerate(procs):
            proc.bind(CC_REPLY_ENTRY,
                      lambda msg, s=site: copies[s].append(msg))
        replier, replier_isis = system.spawn(0, "replier")
        box = {}

        def answer(msg):
            yield replier_isis.reply_cc(msg, box["g3"], answer=7)

        replier.bind(17, answer)

        def setup():
            yield replier_isis.pg_create("solo")
            box["g3"] = yield replier_isis.pg_lookup("g3")

        replier.spawn(setup(), "setup")
        system.run_for(5.0)
        caller, caller_isis = system.spawn(1, "caller")

        def call_main():
            gid = yield caller_isis.pg_lookup("solo")
            replies = yield caller_isis.cbcast(gid, 17, nwant=1, q="x")
            return [r["answer"] for r in replies]

        task = caller.spawn(call_main(), "call")
        system.run_for(20.0)
        assert task.value == [7]
        m0 = procs[0][0].address.process()
        assert not system.kernel(0).engines[box["g3"]].view.contains(
            replier.address)
        for site in range(3):
            assert [m["answer"] for m in copies[site]] == [7]
            assert copies[site][0]["_sender"] == replier.address.process()
            engine = system.kernel(site).engines[box["g3"]]
            assert engine.causal.delivered == {m0.pack(): 1}
        with pytest.raises(GroupError, match="no rank"):
            system.kernel(0).engines[box["g3"]].pipeline.causal.stamp(
                Message(), replier.address)

    def test_null_replies_release_all_waiters(self):
        system = make_system()
        procs, _ = deploy_group(system, "g3", 3)
        for site in range(3):
            proc, isis = procs[site]

            def answer(msg, isis=isis, site=site):
                if site == 1:
                    yield isis.reply(msg, answer="real")
                else:
                    yield isis.null_reply(msg)

            proc.bind(18, answer)
        caller, caller_isis = system.spawn(2, "caller")

        def call_main():
            gid = yield caller_isis.pg_lookup("g3")
            replies = yield caller_isis.cbcast(gid, 18, nwant=ALL, q="x")
            return [r["answer"] for r in replies]

        task = caller.spawn(call_main(), "call")
        system.run_for(20.0)
        assert task.value == ["real"]

    def test_gbcast_delivered_to_all(self):
        system = make_system()
        procs, deliveries = deploy_group(system, "g3", 3)

        def send_main():
            gid = yield procs[1][1].pg_lookup("g3")
            yield procs[1][1].gbcast(gid, 16, cfg="new")

        procs[1][0].spawn(send_main(), "send")
        system.run_for(20.0)
        for site in range(3):
            assert [m["cfg"] for m in deliveries[site]] == ["new"]

    def test_nonmember_client_rpc(self):
        system = make_system()
        procs, _ = deploy_group(system, "g3", 3)
        for site in range(3):
            proc, isis = procs[site]

            def answer(msg, isis=isis, site=site):
                yield isis.reply(msg, frm=site)

            proc.bind(19, answer)
        client, client_isis = system.spawn(1, "outsider")

        def call_main():
            gid = yield client_isis.pg_lookup("g3")
            replies = yield client_isis.cbcast(gid, 19, nwant=ALL, q="ping")
            return sorted(r["frm"] for r in replies)

        task = client.spawn(call_main(), "call")
        system.run_for(25.0)
        assert task.value == [0, 1, 2]
