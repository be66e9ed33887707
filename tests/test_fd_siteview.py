"""Unit tests for the site-view membership agent (repro.fd.siteview).

The agents are wired to each other through a tiny in-memory message bus
with per-hop delay, isolating the protocol from the full transport stack.
"""

import pytest

from repro.core.kernel import PROTOCOLS
from repro.fd import SiteView, SiteViewAgent
from repro.fd.siteview import ACK_TIMEOUT, is_primary
from repro.msg import Message
from repro.sim import Simulator


class StubCpu:
    """The agents' CPU: all they read of it is its backlog."""

    backlog = 0.0


class Bus:
    """Direct agent-to-agent delivery with a fixed delay."""

    def __init__(self, sim, delay=0.01):
        self.sim = sim
        self.delay = delay
        self.agents = {}
        self.cut = set()  # (src, dst) pairs that drop messages
        self.cpu = StubCpu()

    def sender_for(self, src):
        def send(dst, msg):
            if (src, dst) in self.cut:
                return
            agent = self.agents.get(dst)
            if agent is not None:
                data = msg.encode()  # exercise codec fidelity
                msg = Message.decode(data)
                self.sim.call_after(   # parsed as the kernel would
                    self.delay, agent.handle, src,
                    PROTOCOLS[msg["_proto"]].read(msg))
        return send


def make_agents(sim, n=3):
    bus = Bus(sim)
    views = {i: [] for i in range(n)}
    destroyed = []
    agents = {}
    for i in range(n):
        agents[i] = SiteViewAgent(
            sim, bus.cpu, i, incarnation=0, all_sites=list(range(n)),
            send=bus.sender_for(i),
            on_view=lambda v, dep, joi, i=i: views[i].append((v, dep, joi)),
            self_destruct=lambda i=i: destroyed.append(i),
        )
        bus.agents[i] = agents[i]
    return bus, agents, views, destroyed


def genesis_all(agents):
    members = [(i, 0) for i in agents]
    for agent in agents.values():
        agent.genesis(members)


class TestGenesisAndQueries:
    def test_genesis_installs_view_one(self):
        sim = Simulator()
        _, agents, views, _ = make_agents(sim)
        genesis_all(agents)
        for i in agents:
            assert agents[i].view.view_id == 1
            assert agents[i].view.sites() == (0, 1, 2)
            assert agents[i].in_view

    def test_oldest_site_is_coordinator(self):
        sim = Simulator()
        _, agents, _, _ = make_agents(sim)
        genesis_all(agents)
        assert agents[0].is_coordinator()
        assert not agents[1].is_coordinator()


class TestRemoval:
    def test_coordinator_removes_suspected_site(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim)
        genesis_all(agents)
        agents[0].suspect([2])
        sim.run(until=5.0)
        for i in (0, 1):
            assert agents[i].view.sites() == (0, 1)
            assert agents[i].view.view_id == 2

    def test_member_forwards_suspicion_to_coordinator(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim)
        genesis_all(agents)
        agents[1].suspect([2])  # site 1 is not the coordinator
        sim.run(until=5.0)
        assert agents[0].view.sites() == (0, 1)

    def test_next_oldest_takes_over_when_coordinator_dies(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim)
        genesis_all(agents)
        # Site 1 believes 0 is dead (and only site 1 acts).
        agents[1].suspect([0])
        sim.run(until=10.0)
        assert agents[1].view.sites() == (1, 2)
        assert agents[1].is_coordinator()

    def test_excluded_live_site_self_destructs_on_commit(self):
        sim = Simulator()
        bus, agents, views, destroyed = make_agents(sim)
        genesis_all(agents)
        agents[0].suspect([2])
        sim.run(until=5.0)
        # Agent 2 is alive and receives the commit excluding it.
        assert destroyed == [2]

    def test_a_suspicion_from_an_excluded_site_removes_nobody(self):
        """Site 3 has left the site view without hearing so (the commit
        to it is lost).  Its suspicion of live site 1 still reaches the
        coordinator, which must not act on the word of a non-member."""
        sim = Simulator()
        bus, agents, views, destroyed = make_agents(sim, n=4)
        genesis_all(agents)
        bus.cut.add((0, 3))
        agents[0].suspect([3])
        sim.run(until=5.0)
        assert agents[0].view.sites() == (0, 1, 2)
        assert agents[3].view.view_id == 1  # still in the view it knew
        agents[3].suspect([1])  # relayed to site 0, its acting coordinator
        sim.run(until=10.0)
        for i in (0, 1, 2):
            assert agents[i].view.sites() == (0, 1, 2)
            assert agents[i].view.view_id == 2
        assert destroyed == []

    def test_batched_suspicions_one_view_change(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=4)
        genesis_all(agents)
        agents[0].suspect([2, 3])   # one detector tick
        sim.run(until=5.0)
        assert agents[0].view.sites() == (0, 1)
        assert agents[0].view.view_id == 2  # one change, not two

    def test_staggered_suspicions_coalesce_within_settle(self):
        """Correlated deaths arriving a few ms apart merge into ONE
        proposed view (the settle window), not serial view changes."""
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=4)
        genesis_all(agents)
        agents[0].suspect([2])
        sim.call_after(0.02, agents[0].suspect, [3])  # inside the window
        sim.run(until=5.0)
        assert agents[0].view.sites() == (0, 1)
        assert agents[0].view.view_id == 2  # exactly one view change
        assert sim.trace.value("sv.batched_removals") >= 1


    def test_a_member_relays_one_tick_in_one_message(self):
        sim = Simulator()
        sim.trace.enable("sv.propose")
        bus, agents, views, _ = make_agents(sim, n=4)
        genesis_all(agents)
        sent = []
        send = agents[1].send
        agents[1].send = lambda dst, msg: (sent.append(msg), send(dst, msg))
        agents[1].suspect([2, 3])
        sim.run(until=5.0)
        assert [m["suspects"] for m in sent if m["_proto"] == "sv.suspect"] \
            == [[2, 3]]
        assert agents[0].view.sites() == (0, 1)
        assert len(sim.trace.events("sv.propose")) == 1

    def test_a_takeover_removes_what_it_relayed_away(self):
        """Site 1 relays its suspicion of site 3 to coordinator 0, which
        has crashed too; once site 1 suspects 0 it coordinates, and its
        first proposal leaves out both sites instead of waiting out
        ``ACK_TIMEOUT`` for site 3's ack."""
        sim = Simulator()
        sim.trace.enable("sv.propose")
        bus, agents, views, _ = make_agents(sim, n=5)
        genesis_all(agents)
        agents[0].stop()
        agents[3].stop()
        agents[1].suspect([3])      # relayed to site 0, which is gone
        sim.run(until=0.5)
        agents[1].suspect([0])
        sim.run(until=1.5)
        proposals = sim.trace.events("sv.propose")
        assert [detail[2] for _, _, detail in proposals] == \
            [((1, 0), (2, 0), (4, 0))]
        for i in (1, 2, 4):
            assert agents[i].view.sites() == (1, 2, 4)
            assert agents[i].view.view_id == 2

    def test_a_suspicion_lapses_with_its_incarnation(self):
        """Site 2 restarts as incarnation 1 as the coordinator suspects
        incarnation 0: one round swaps the two, and the suspicion, which
        was of incarnation 0, does not remove the new one."""
        sim = Simulator()
        bus, agents, views, destroyed = make_agents(sim, n=3)
        genesis_all(agents)
        agents[2].stop()
        agents[2] = bus.agents[2] = SiteViewAgent(
            sim, bus.cpu, 2, incarnation=1, all_sites=[0, 1, 2],
            send=bus.sender_for(2), on_view=lambda *_: None,
            self_destruct=lambda: destroyed.append(2))
        agents[2].request_join()
        agents[0].suspect([2])
        sim.run(until=10.0)
        for i in (0, 1, 2):
            assert agents[i].view.view_id == 2
            assert agents[i].view.members == ((0, 0), (1, 0), (2, 1))
        assert not agents[0]._suspected and destroyed == []


class TestSilentRound:
    """Only the detector removes a site: a round whose member stays
    silent times out and proposes the same view again."""

    def _silent_member(self, backlog):
        """Site 0 removes site 2; site 1's acks to it are lost."""
        sim = Simulator()
        sim.trace.enable("sv.propose")
        bus, agents, views, destroyed = make_agents(sim)
        bus.cpu.backlog = backlog
        genesis_all(agents)
        bus.cut.add((1, 0))
        agents[0].suspect([2])
        return sim, bus, agents, destroyed, sim.trace.events

    def test_a_silent_member_is_proposed_again_and_kept(self):
        sim, bus, agents, destroyed, events = self._silent_member(0.0)
        sim.run(until=ACK_TIMEOUT + 1.0)
        assert len(events("sv.propose")) == 2    # timed out, proposed again
        assert agents[0].view.view_id == 1
        bus.cut.clear()
        sim.run(until=3 * ACK_TIMEOUT)
        for i in (0, 1):
            assert agents[i].view.sites() == (0, 1)
            assert agents[i].view.view_id == 2
        assert 1 not in agents[0]._suspected
        assert destroyed == [2]

    def test_a_round_times_out_only_after_the_cpu_has_drained(self):
        sim, bus, agents, destroyed, events = self._silent_member(3.0)
        sim.run(until=ACK_TIMEOUT + 1.0)
        assert len(events("sv.propose")) == 1    # 3 s of backlog: waiting
        sim.run(until=ACK_TIMEOUT + 3.5)
        assert len(events("sv.propose")) == 2


class TestQuorum:
    def test_minority_stalls_instead_of_forming_view(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=3)
        genesis_all(agents)
        # Site 2 is partitioned away and suspects both others.
        bus.cut = {(2, 0), (0, 2), (2, 1), (1, 2)}
        agents[2].suspect([0])
        agents[2].suspect([1])
        sim.run(until=20.0)
        assert agents[2].view.view_id == 1  # never installed a new view
        assert sim.trace.value("sv.stalls") >= 1

    def test_only_a_primary_component_may_commit(self):
        """The rule that gates an install gates a group commit too,
        judged over the sites this agent does not suspect."""
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=3)
        genesis_all(agents)
        bus.cut = {(2, 0), (0, 2), (2, 1), (1, 2)}
        for a, b in ((0, 2), (1, 2), (2, 0), (2, 1)):
            agents[a].suspect([b])
        assert agents[0].may_commit() and agents[1].may_commit()
        assert not agents[2].may_commit()
        sim.run(until=20.0)
        assert agents[0].view.sites() == (0, 1)
        assert agents[0].may_commit() and not agents[2].may_commit()

    def test_half_of_two_may_proceed(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=2)
        genesis_all(agents)
        agents[0].suspect([1])
        sim.run(until=5.0)
        assert agents[0].view.sites() == (0,)

    def test_an_exact_half_needs_the_oldest_member(self):
        """2-2: both halves hold half of the view; only the one with the
        previous view's oldest member may install, so the two cannot."""
        view = [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert is_primary(view, view[:2])
        assert not is_primary(view, view[2:])
        assert is_primary(view, view[1:])
        assert not is_primary(view, [view[0]])
        # Of two sites, the younger alone stalls: it cannot tell the
        # oldest's crash from a partition in which the oldest installs.
        assert is_primary(view[:2], view[:1])
        assert not is_primary(view[:2], view[1:2])

    def test_a_two_two_split_installs_one_view(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=4)
        genesis_all(agents)
        bus.cut = {(a, b) for a in (0, 1) for b in (2, 3)}
        bus.cut |= {(b, a) for a, b in bus.cut}
        for a in (0, 1):
            for b in (2, 3):
                agents[a].suspect([b])
                agents[b].suspect([a])
        sim.run(until=20.0)
        assert [agents[i].view.sites() for i in range(4)] == \
            [(0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3)]
        assert sim.trace.value("sv.stalls") >= 1


class TestJoin:
    def test_new_site_admitted_via_join_loop(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=3)
        # Genesis with only sites 0 and 1.
        for i in (0, 1):
            agents[i].genesis([(0, 0), (1, 0)])
        agents[2].request_join()
        sim.run(until=10.0)
        assert agents[0].view.sites() == (0, 1, 2)
        assert agents[2].in_view
        # Joiner is youngest: appended at the end.
        assert agents[0].view.members[-1] == (2, 0)

    def test_duplicate_join_requests_idempotent(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=2)
        agents[0].genesis([(0, 0)])
        agents[1].request_join()
        sim.run(until=20.0)
        final = agents[0].view
        assert final.sites() == (0, 1)
        # Repeated join-loop requests did not create repeated views.
        assert final.view_id == 2

    def test_lone_restarter_bootstraps_singleton(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=2)
        # Nobody has a view; site 0 starts its join loop alone.
        agents[0].request_join()
        sim.run(until=10.0)
        assert agents[0].view is not None
        assert agents[0].view.sites() == (0,)

    def test_higher_numbered_site_defers_to_lower(self):
        sim = Simulator()
        bus, agents, views, _ = make_agents(sim, n=2)
        agents[0].request_join()
        agents[1].request_join()
        sim.run(until=20.0)
        # Site 0 bootstraps; site 1 joins it.
        assert agents[0].view.sites() == (0, 1)
        assert agents[1].view.sites() == (0, 1)
        assert agents[0].view.members[0] == (0, 0)


class TestSiteViewValue:
    def test_incarnation_lookup(self):
        view = SiteView(view_id=3, members=((0, 1), (2, 5)))
        assert view.incarnation_of(2) == 5
        assert view.incarnation_of(9) is None
        assert view.contains_site(0)
        assert view.coordinator_site() == 0
