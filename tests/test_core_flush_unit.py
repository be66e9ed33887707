"""Unit tests for the flush coordinator bookkeeping (repro.core.flush)
and the ABCAST cut it commits (repro.core.ordering.cut_order)."""

import pytest

from repro.core.flush import FlushCoordinator, FlushReason
from repro.core.ordering import cut_order
from repro.core.view import View
from repro.msg import make_group_address, make_process_address

GID = make_group_address(0, 1)
P0 = make_process_address(0, 0, 1)
P1 = make_process_address(1, 0, 1)
P2 = make_process_address(2, 0, 1)
VIEW = View(gid=GID, view_id=3, members=(P0, P1, P2))


def make(reasons=None, participants=None):
    return FlushCoordinator(
        (4, 1, 0), VIEW, reasons or [],
        participants=participants or {0, 1, 2})


def cut(fc):
    """The ABCAST cut of the reports ``fc`` collected."""
    return cut_order([(r.ab_pending, r.ab_delivered)
                      for r in fc.reports.values()])


class TestReports:
    def test_collection_completes_when_all_report(self):
        fc = make()
        assert not fc.offer_report(0, {0: 2}, [], [])
        assert not fc.offer_report(1, {0: 1}, [], [])
        assert fc.offer_report(2, {0: 2, 1: 1}, [], [])
        assert fc.union == {0: 2, 1: 1}
        assert fc.phase == "fill"

    def test_report_from_non_participant_ignored(self):
        fc = make(participants={0, 1})
        assert not fc.offer_report(9, {0: 5}, [], [])
        assert not fc.offer_report(0, {}, [], [])
        assert fc.offer_report(1, {}, [], [])

    def test_duplicate_report_ignored_after_fill_phase(self):
        fc = make(participants={0})
        fc.offer_report(0, {0: 1}, [], [])
        assert fc.phase == "fill"
        assert not fc.offer_report(0, {0: 9}, [], [])
        assert fc.union == {0: 1}


class TestPulls:
    def test_pulls_route_from_holder_to_needy(self):
        fc = make()
        fc.offer_report(0, {0: 2}, [], [])
        fc.offer_report(1, {}, [], [])
        fc.offer_report(2, {0: 2}, [], [])
        pulls = fc.compute_pulls()
        # Site 1 misses (0,1) and (0,2); site 0 (first holder) supplies.
        assert pulls == {0: [(0, 1, 1), (0, 2, 1)]}

    def test_complete_sites_skip_fill(self):
        fc = make()
        fc.offer_report(0, {0: 2}, [], [])
        fc.offer_report(1, {0: 2}, [], [])
        fc.offer_report(2, {0: 1}, [], [])
        assert fc.complete_sites() == {0, 1}

    def test_filled_tracking_reaches_done(self):
        fc = make()
        fc.offer_report(0, {0: 1}, [], [])
        fc.offer_report(1, {0: 1}, [], [])
        fc.offer_report(2, {0: 1}, [], [])
        assert not fc.note_filled(0)
        assert not fc.note_filled(1)
        assert fc.note_filled(2)
        assert fc.phase == "done"


class TestCutOrder:
    def test_final_priorities_respected(self):
        fc = make(participants={0, 1})
        fc.offer_report(0, {}, [
            ((0, 1), (5, 0), True),
            ((1, 1), (2, 0), False),
        ], [])
        fc.offer_report(1, {}, [
            ((0, 1), (5, 0), True),
            ((1, 1), (3, 1), False),
        ], [])
        order = cut(fc)
        refs = [tuple(r) for r, _ in order]
        # (1,1): final = max proposals = (3,1) < (5,0): delivered first.
        assert refs == [(1, 1), (0, 1)]
        assert order[0][1] == [3, 1]

    def test_delivered_finals_pin_the_order(self):
        fc = make(participants={0, 1})
        # Site 0 already delivered (0,1) at final (9,1).
        fc.offer_report(0, {}, [], [((0, 1), (9, 1))])
        fc.offer_report(1, {}, [
            ((0, 1), (1, 1), False),
        ], [])
        order = cut(fc)
        assert order == [[[0, 1], [9, 1]]]

    def test_fully_delivered_messages_excluded(self):
        fc = make(participants={0, 1})
        fc.offer_report(0, {}, [], [((0, 1), (4, 0))])
        fc.offer_report(1, {}, [], [((0, 1), (4, 0))])
        assert cut(fc) == []


class TestNextView:
    def test_removals_then_joins(self):
        joiner = make_process_address(3, 0, 7)
        fc = make(reasons=[
            FlushReason(kind="remove", removals=(P1,)),
            FlushReason(kind="join", joiner=joiner),
        ])
        view = fc.next_view()
        assert view.view_id == 4
        assert view.members == (P0, P2, joiner.process())

    def test_gbcast_reason_keeps_members(self):
        fc = make(reasons=[FlushReason(kind="gbcast", payload=b"x")])
        view = fc.next_view()
        assert view.members == VIEW.members
        assert view.view_id == VIEW.view_id + 1

    def test_duplicate_join_not_added_twice(self):
        joiner = make_process_address(3, 0, 7)
        fc = make(reasons=[
            FlushReason(kind="join", joiner=joiner),
            FlushReason(kind="join", joiner=joiner),
        ])
        assert fc.next_view().members.count(joiner.process()) == 1


class TestCutOrderLift:
    def test_unheld_ref_lifted_after_finals(self):
        """A ref some reporter never held cannot be ordered by reported
        proposals alone: the missing site may have delivered past them."""
        fc = make(participants={0, 1})
        # Site 0 holds (1,1) pending at a small proposal and has already
        # delivered (0,1) at a larger final; site 1 never saw (1,1).
        fc.offer_report(0, {}, [
            ((1, 1), (2, 0), False),
        ], [((0, 1), (11, 1))])
        fc.offer_report(1, {}, [
            ((0, 1), (5, 1), False),
        ], [])
        order = cut(fc)
        refs = [tuple(r) for r, _ in order]
        # The delivered final pins (0,1) first; the unheld (1,1) sorts
        # after it even though its reported proposal (2,0) is smaller.
        assert refs == [(0, 1), (1, 1)]

    def test_lift_clears_reported_proposals_for_uniqueness(self):
        """Lifted priorities must not collide with held-everywhere refs'
        max-proposal priorities (cut order must stay tie-free)."""
        fc = make(participants={0, 1})
        fc.offer_report(0, {}, [
            ((0, 1), (53, 0), False),  # held by all
            ((1, 1), (3, 0), False),   # only here
        ], [((2, 1), (50, 1))])
        fc.offer_report(1, {}, [
            ((0, 1), (53, 0), False),
        ], [((2, 1), (50, 1))])
        order = cut(fc)
        prios = [tuple(p) for _, p in order]
        assert len(set(prios)) == len(prios), f"priority collision: {order}"
        refs = [tuple(r) for r, _ in order]
        assert refs.index((0, 1)) < refs.index((1, 1))


class TestCutOrderSenderOrder:
    """The cut hands out each sender's undelivered ABCASTs in gseq
    order, whatever order their finals are in."""

    @staticmethod
    def _refs(order):
        return [tuple(ref) for ref, _ in order]

    def test_inverted_finals_of_one_sender_keep_its_order(self):
        """Seed 175's cut: s0 issued finals (24,3), (21,1), (23,1) for
        its gseqs 10, 12 and 14, and both survivors hold all three."""
        held = [((0, 10), (24, 3), True), ((0, 12), (21, 1), True),
                ((0, 14), (23, 1), True), ((1, 5), (22, 2), True)]
        order = cut_order([(held, []), (held, [])])
        refs = self._refs(order)
        assert refs == [(1, 5), (0, 10), (0, 12), (0, 14)]
        prios = [tuple(prio) for _, prio in order]
        # (0,12) sorts below (0,10): it and (0,14) after it are lifted
        # above every reported priority (24), in gseq order.
        assert prios == [(22, 2), (24, 3), (24 + 21, 1), (24 + 23, 1)]

    def test_an_unheld_ref_lifts_the_senders_later_refs(self):
        fc = make(participants={0, 1})
        # Site 1 never received (0,1); (0,2) is final everywhere, below
        # the lifted (0,1).
        fc.offer_report(0, {}, [((0, 1), (2, 0), False),
                                ((0, 2), (5, 1), True)], [])
        fc.offer_report(1, {}, [((0, 2), (5, 1), True)], [])
        assert self._refs(cut(fc)) == [(0, 1), (0, 2)]

    def test_a_ref_delivered_somewhere_keeps_its_final(self):
        fc = make(participants={0, 1})
        # Site 0 delivered (0,1) at (9,1); (0,2)'s final sorts below it.
        fc.offer_report(0, {}, [((0, 2), (4, 0), True)], [((0, 1), (9, 1))])
        fc.offer_report(1, {}, [((0, 1), (9, 1), True),
                                ((0, 2), (4, 0), True)], [])
        order = cut(fc)
        assert order[0] == [[0, 1], [9, 1]]
        assert self._refs(order) == [(0, 1), (0, 2)]
