"""Ordering-engine properties under churn, and the partition rule.

Two families of checks over the ordering and membership seams:

* **Engine differential under churn** — with the same seed and
  workload, the two-phase and sequencer engines must carry a crash of a
  group member to the *same* execution: every survivor delivers the
  identical ABCAST order within a mode, the delivered message set is
  identical across modes, and both modes agree on the final site view.
* **The partition rule** (§2.1, §3.7) — only the primary component
  goes on: more than half of the previous site view, or exactly half
  with its oldest member ("quorum" here means that majority of the
  previous view, never of a static deployment).  Each partition
  scenario (3|2, 2|2, 3|2|1, a crash and then 2|2, 2|2|1, a group wholly
  inside the minority, and a total failure with durability on) asserts
  the site view each component holds, what its members are handed
  during the split and whether it may commit: exactly the entitled
  component installs and delivers, every other one hangs.  A healed
  minority self-destructs and rejoins through the ordinary state
  transfer path, converging on the survivors' state.

Every run also passes ``conformance.check``, whose ``one-view-per-id``
rule refuses two member lists for one group view.
"""

import pytest

from conformance import Run, Task, check, replicas
from repro import IsisConfig
from test_recovery_churn import kv_service

MODES = ["two_phase", "sequencer"]


def _turns(name, sites, count, tag):
    """``count`` ABCASTs to ``grp`` from the members at ``sites`` in
    turn, 1.2 s apart."""
    return Task(name, tuple(f"app{s}" for s in sites), ("grp",), "abcast",
                count, tag, gap=1.2)


def _site_view(run, site):
    view = run.system.kernel(site).agent.view
    return view.view_id, view.members


# ----------------------------------------------------------------------
# Engine differential under churn
# ----------------------------------------------------------------------
def _churn(mode, seed):
    run = Run(replicas(
        4, seed, IsisConfig(abcast_mode=mode),
        traffic=(_turns("before", range(4), 10, "m{i}"),),
        faults=((15.0, ("crash", 3)),
                (12.0, ("send", _turns("after", range(3), 10, "n{i}")))),
        tail=25.0))
    record = run.play()
    check(record)
    return ({s: record.tags(f"app{s}") for s in range(3)},
            {s: _site_view(run, s) for s in range(3)})


@pytest.mark.parametrize("seed", [11, 47])
def test_engine_differential_under_churn(seed):
    sets_by_mode = {}
    views_by_mode = {}
    for mode in MODES:
        deliveries, views = _churn(mode, seed)
        logs = list(deliveries.values())
        # Within a mode: every survivor delivered the identical order.
        assert all(log == logs[0] for log in logs), mode
        assert len(logs[0]) == 20, (mode, logs[0])
        # Survivors agree on the post-crash site view.
        assert len(set(views.values())) == 1, (mode, views)
        sets_by_mode[mode] = set(logs[0])
        views_by_mode[mode] = next(iter(views.values()))[1]
    # Across modes: same delivered set, same final membership.
    assert sets_by_mode["two_phase"] == sets_by_mode["sequencer"]
    assert views_by_mode["two_phase"] == views_by_mode["sequencer"]


@pytest.mark.parametrize("mode", MODES)
def test_churn_deterministic_same_seed(mode):
    assert _churn(mode, 23) == _churn(mode, 23)


# ----------------------------------------------------------------------
# The partition rule: only the primary component goes on
# ----------------------------------------------------------------------
def _split(n_sites, seed, components, during, tail=30.0, faults=(),
           config=None):
    """Five ABCASTs from every member in turn, then ``faults``, then
    ``components`` partitioned; ``during`` is sent 12 s into the split."""
    return Run(replicas(
        n_sites, seed, config or IsisConfig(),
        traffic=(_turns("before", range(n_sites), 5, "m{i}"),),
        faults=faults + ((15.0, ("partition", components)),
                         (12.0, ("send", during))),
        tail=tail))


def _components(run, record, components, prefix):
    """Each component as the split left it: the sites of the site view
    its sites hold, how many tags starting with ``prefix`` each of its
    members was handed, and whether its sites may commit.  The sites of
    one component agree on all three."""
    seen = []
    for sites in components:
        agents = [run.system.kernel(s).agent for s in sites]
        views = {agent.view.sites() for agent in agents}
        handed = {sum(tag.startswith(prefix) for tag in record.tags(f"app{s}"))
                  for s in sites}
        commits = {agent.may_commit() for agent in agents}
        assert len(views) == len(handed) == len(commits) == 1, (
            sites, views, handed, commits)
        seen.append((views.pop(), handed.pop(), commits.pop()))
    return seen


@pytest.mark.parametrize("mode", MODES)
def test_quorum_majority_commits_minority_wedges(mode):
    """3|2 of 5: the three go on in a view of their own and deliver
    what they send during the split; the two keep the old view, are
    handed nothing more and may not commit."""
    components = [[0, 1, 2], [3, 4]]
    run = _split(5, 77, components, _turns("majority", (0, 1, 2), 6, "n{i}"),
                 config=IsisConfig(abcast_mode=mode))
    record = run.play()
    check(record)
    assert _components(run, record, components, "n") == [
        ((0, 1, 2), 6, True), ((0, 1, 2, 3, 4), 0, False)]
    assert record.tags("app0") == record.tags("app1") == record.tags("app2")
    for s in (3, 4):
        assert len(record.tags(f"app{s}")) == 5


def test_primary_even_split_installs_one_side():
    """2|2 of 4: an exact half goes on only with the previous view's
    oldest member, so {0, 1} installs and delivers its own sends while
    {2, 3} hangs in the old view: one primary chain."""
    components = [[0, 1], [2, 3]]
    run = _split(4, 31, components, _turns("during", range(4), 8, "n{i}"))
    record = run.play()
    check(record)
    assert _components(run, record, components, "n") == [
        ((0, 1), 4, True), ((0, 1, 2, 3), 0, False)]
    assert run.system.sim.trace.value("sv.stalls") >= 1


def test_a_three_way_split_goes_on_only_beside_site_0():
    """3|2|1 of 6: {0, 1, 2} is exactly half of the view with its
    oldest member; {3, 4} and {5} are less than half and hang."""
    components = [[0, 1, 2], [3, 4], [5]]
    run = _split(6, 41, components, _turns("during", range(6), 12, "n{i}"))
    record = run.play()
    check(record)
    everyone = (0, 1, 2, 3, 4, 5)
    assert _components(run, record, components, "n") == [
        ((0, 1, 2), 6, True), (everyone, 0, False), (everyone, 0, False)]


def test_a_crash_then_a_two_two_split():
    """Site 4 of five crashes and the four left install a view; a 2|2
    split of those four then goes on in {0, 1}, half of the previous
    view (not of the five) with its oldest member."""
    components = [[0, 1], [2, 3]]
    run = _split(5, 53, components, _turns("during", range(4), 8, "n{i}"),
                 faults=((10.0, ("crash", 4)),))
    record = run.play()
    check(record)
    assert _components(run, record, components, "n") == [
        ((0, 1), 4, True), ((0, 1, 2, 3), 0, False)]


def test_a_split_without_a_primary_component_hangs_everywhere():
    """2|2|1 of 5: no component holds half of the view, so none installs
    or delivers, and none may commit.  Only safety is asserted: after a
    heal every site is stalled, and a stalled site ignores the others'
    probes (ROADMAP item 17b), so the run stops before one."""
    components = [[0, 1], [2, 3], [4]]
    run = _split(5, 61, components, _turns("during", range(5), 10, "n{i}"))
    record = run.play()
    check(record)
    everyone = (0, 1, 2, 3, 4)
    assert _components(run, record, components, "n") == [
        (everyone, 0, False)] * 3


def test_a_group_inside_the_minority_commits_nothing():
    """§2.1: the parts outside the primary component hang.  A group
    wholly on the minority's sites {3, 4} of a 3|2 split does not
    deliver a GBCAST sent into it during the split: its flush waits
    (``flush.membership_blocked``) while the sites its coordinator does
    not suspect are no primary component."""
    components = [[0, 1, 2], [3, 4]]

    def minor_group(run):
        run.procs["app3"].spawn(run.creating("app3", ("minor",)), "create")
        run.system.run_for(3.0)
        run.procs["app4"].spawn(run.joining("app4", ("minor",)), "join")
        run.system.run_for(10.0)
        assert len(run.record().views[4]["minor"].members) == 2

    run = _split(5, 77, components,
                 Task("gb", "app3", ("minor",), "gbcast", 1, "gb"))
    record = run.play(setup=minor_group)
    check(record)
    assert _components(run, record, components, "gb") == [
        ((0, 1, 2), 0, True), ((0, 1, 2, 3, 4), 0, False)]
    assert run.system.sim.trace.value("flush.membership_blocked") >= 1


def _total_failure():
    """Durability on.  Site 0 fails first; {1, 2} go on and ``svc1``
    alone delivers four more.  Then site 1 fails, and site 2, half of
    {1, 2} without its oldest member, hangs.  Sites 0 and 1 restart."""
    run = kv_service("two_phase")
    system = run.system
    system.crash_site(0)
    run.send(Task("alone", "svc1", ("kv",), "abcast", 4, "w{i}", gap=1.2))
    system.run_for(30.0)
    assert system.kernel(1).agent.view.sites() == (1, 2)
    assert run.states["svc1"] == run.states["svc0"] + ["w0", "w1", "w2", "w3"]
    system.crash_site(1)
    system.run_for(20.0)
    assert system.kernel(2).agent.view.sites() == (1, 2)
    assert not system.kernel(2).agent.may_commit()
    system.restart_site(0)
    system.restart_site(1)
    system.run_for(200.0)
    return run


def test_a_total_failure_restarts_from_the_last_to_fail():
    """The recovery manager's election (§5: the last to fail knows the
    final state) picks site 1's log over site 0's, which the lowest-id
    tie-break would have chosen."""
    run = _total_failure()
    system = run.system
    assert system.sim.trace.value("tool.rm_restarts") == 1
    assert run.gids["kv.1"].site == 1, "the restart did not start from site 1"
    run.restored_from("svc1.1", "svc1")
    check(run.record())
    assert run.states["svc0.1"] == run.states["svc1.1"]
    assert len(run.states["svc1.1"]) > len(run.states["svc0"]), (
        "the restart lost what only the last to fail had logged")


@pytest.mark.xfail(strict=True, reason=(
    "fd/siteview.py: a site restarted after a total failure forms its "
    "site view from id 1 again, so the restarted chain's view 2 "
    "({0, 1}) is no newer than the stalled bystander's view 2 ({1, 2}); "
    "site 2 ignores its commit, never learns it was excluded and stays "
    "stalled for good"))
def test_a_bystander_of_a_total_failure_rejoins():
    system = _total_failure().system
    views = {s: system.kernel(s).agent.view for s in range(3)}
    assert len(set(views.values())) == 1, views


# ----------------------------------------------------------------------
# The partition rule: a healed minority rejoins and converges
# ----------------------------------------------------------------------
def test_quorum_minority_rejoins_after_heal():
    run = _split(5, 77, [[0, 1, 2], [3, 4]],
                 _turns("majority", (0, 1, 2), 4, "n{i}"), tail=25.0)
    run.play()
    sites = run.system.cluster

    # Heal: the excluded minority learns of the majority's view chain
    # and self-destructs (agreed-view-excludes-me, §3.7).
    run.act(("heal",))
    for _ in range(12):
        run.system.run_for(10.0)
        if not any(sites.site(s).up for s in (3, 4)):
            break
    assert not sites.site(3).up
    assert not sites.site(4).up

    # Restart and rejoin through the ordinary state-transfer path.
    run.act(("restart", 3))
    run.act(("restart", 4))
    run.system.run_for(5.0)
    members = ["app0", "app1", "app2"]
    for s in (3, 4):
        members.append(run.spawn(s, f"app{s}"))
        run.isis[members[-1]].pg_join_by_name("grp")
    run.system.run_for(40.0)

    views = {s: run.system.kernel(s).agent.view for s in range(5)}
    assert len({(v.view_id, v.members) for v in views.values()}) == 1, views
    assert {s for s, _ in views[0].members} == {0, 1, 2, 3, 4}

    run.send(Task("after", tuple(members), ("grp",), "abcast", 5, "p{i}",
                  gap=1.2))
    run.system.run_for(25.0)
    record = run.record()
    check(record)
    reference = record.states["app0"]
    assert len(reference) == 14
    for member in members[1:]:
        assert record.states[member] == reference, (
            member, record.states[member], reference)
