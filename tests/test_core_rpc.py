"""Unit tests for group RPC reply collection (repro.core.rpc)."""

from types import SimpleNamespace

import pytest

from repro.core.rpc import (
    ALL, REQUEST_TIMEOUT, GroupRpc, Session, SessionTable)
from repro.errors import BroadcastFailed
from repro.msg import Message, make_group_address, make_process_address
from repro.sim import Simulator

CALLER = make_process_address(0, 0, 1)
M1 = make_process_address(1, 0, 1)
M2 = make_process_address(2, 0, 1)
M3 = make_process_address(3, 0, 1)


def make_table():
    return SessionTable(Simulator(), resolve_delay=0.0)


class TestSession:
    def test_nwant_zero_resolves_at_dispatch(self):
        table = make_table()
        session = table.create(CALLER, 0)
        table.on_dispatched(session.id, [M1, M2])
        assert session.promise.done
        assert session.promise.value == []

    def test_nwant_one_resolves_on_first_reply(self):
        table = make_table()
        session = table.create(CALLER, 1)
        table.on_dispatched(session.id, [M1, M2])
        table.on_reply(session.id, M1, Message(a=1), null=False)
        assert session.promise.value[0]["a"] == 1

    def test_reply_before_dispatch_counts(self):
        table = make_table()
        session = table.create(CALLER, 1)
        table.on_reply(session.id, M1, Message(a=1), null=False)
        assert session.promise.done

    def test_all_waits_for_every_member(self):
        table = make_table()
        session = table.create(CALLER, ALL)
        table.on_dispatched(session.id, [M1, M2, M3])
        table.on_reply(session.id, M1, Message(), null=False)
        table.on_reply(session.id, M2, Message(), null=False)
        assert not session.promise.done
        table.on_reply(session.id, M3, Message(), null=False)
        assert len(session.promise.value) == 3

    def test_null_replies_release_all(self):
        table = make_table()
        session = table.create(CALLER, ALL)
        table.on_dispatched(session.id, [M1, M2])
        table.on_reply(session.id, M1, Message(x=1), null=False)
        table.on_reply(session.id, M2, Message(), null=True)
        assert len(session.promise.value) == 1

    def test_duplicate_replies_discarded_silently(self):
        table = make_table()
        session = table.create(CALLER, 2)
        table.on_dispatched(session.id, [M1, M2])
        table.on_reply(session.id, M1, Message(n=1), null=False)
        table.on_reply(session.id, M1, Message(n=2), null=False)
        assert not session.promise.done
        table.on_reply(session.id, M2, Message(n=3), null=False)
        values = sorted(r["n"] for r in session.promise.value)
        assert values == [1, 3]

    def test_failure_makes_count_unreachable(self):
        table = make_table()
        session = table.create(CALLER, 2)
        table.on_dispatched(session.id, [M1, M2])
        table.on_reply(session.id, M1, Message(), null=False)
        table.note_members_failed([M2])
        assert session.promise.rejected
        err = session.promise.exception
        assert isinstance(err, BroadcastFailed)
        assert len(err.replies) == 1

    def test_all_with_failures_resolves_with_partial(self):
        table = make_table()
        session = table.create(CALLER, ALL)
        table.on_dispatched(session.id, [M1, M2])
        table.on_reply(session.id, M1, Message(), null=False)
        table.note_members_failed([M2])
        assert session.promise.done and not session.promise.rejected
        assert len(session.promise.value) == 1

    def test_failed_member_that_already_replied_is_harmless(self):
        table = make_table()
        session = table.create(CALLER, ALL)
        table.on_dispatched(session.id, [M1, M2])
        table.on_reply(session.id, M1, Message(), null=False)
        table.note_members_failed([M1])
        table.on_reply(session.id, M2, Message(), null=False)
        assert len(session.promise.value) == 2

    def test_note_failed_without_expected_is_noop(self):
        table = make_table()
        session = table.create(CALLER, 1)
        table.note_members_failed([M1])
        assert not session.promise.done

    def test_session_failed_explicitly(self):
        table = make_table()
        session = table.create(CALLER, 1)
        table.note_session_failed(session.id, BroadcastFailed("gone"))
        assert session.promise.rejected

    def test_resolve_delay_charges_intra_hop(self):
        sim = Simulator()
        table = SessionTable(sim, resolve_delay=0.010)
        session = table.create(CALLER, 0)
        table.on_dispatched(session.id, [])
        assert not session.promise.done
        sim.run()
        assert session.promise.done
        assert sim.now == pytest.approx(0.010)

    def test_via_site_recorded(self):
        table = make_table()
        session = table.create(CALLER, 1)
        table.on_dispatched(session.id, [M1], via_site=7)
        assert session.via_site == 7

    def test_open_count_tracks_lifecycle(self):
        table = make_table()
        session = table.create(CALLER, 1)
        assert table.open_count == 1
        table.on_reply(session.id, M1, Message(), null=False)
        assert table.open_count == 0


class StubKernel:
    """All a ``GroupRpc`` reads of its kernel: site 0, whose CPU holds
    ``backlog`` seconds of work, with site 1 alive and no group here."""

    def __init__(self, sim, backlog):
        self.sim = sim
        self.site_id = 0
        self.site = SimpleNamespace(local_hop_delay=0.0,
                                    cpu=SimpleNamespace(backlog=backlog))
        self.engines = {}
        self.contact_cache = {}
        self.sent = []

    def alive_sites(self):
        return {0, 1}

    def send_to_site(self, site, msg):
        self.sent.append((self.sim.now, site))


class TestRequestTimer:
    """A request is sent again once its notice has been silent for
    ``REQUEST_TIMEOUT`` after this site's CPU has drained."""

    def _sends(self, backlog, until):
        sim = Simulator()
        kernel = StubKernel(sim, backlog)
        gid = make_group_address(1, 1)
        GroupRpc(kernel).request(("g.join", gid), gid,
                                 Message(_proto="g.join"), pytest.fail)
        sim.run(until=until)
        return kernel.sent

    def test_an_unanswered_request_is_sent_again(self):
        assert self._sends(0.0, REQUEST_TIMEOUT + 1.0) == [
            (0.0, 1), (REQUEST_TIMEOUT, 1)]

    def test_a_request_waits_out_the_cpu_backlog_before_resending(self):
        assert self._sends(3.0, REQUEST_TIMEOUT + 1.0) == [(0.0, 1)]
        assert self._sends(3.0, REQUEST_TIMEOUT + 3.5) == [
            (0.0, 1), (REQUEST_TIMEOUT + 3.0, 1)]
