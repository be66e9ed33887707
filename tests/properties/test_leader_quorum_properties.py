"""Ordering-engine and quorum-membership properties under churn.

Two families of differential checks over the ordering/membership seams:

* **Engine differential under churn** — with the same seed and
  workload, the two-phase and sequencer engines must carry a crash of a
  group member to the *same* execution: every survivor delivers the
  identical ABCAST order within a mode, the delivered message set is
  identical across modes, and both modes agree on the final site view.
* **Quorum-membership invariants** — under an asymmetric partition the
  majority component keeps installing views and delivering while the
  minority wedges (at most one committing component); under an exact
  50/50 split *neither* side commits, whereas primary-partition mode
  historically lets both halves install reduced views; a healed
  minority self-destructs and rejoins through the ordinary state
  transfer path, converging on the survivors' state.

Every run also passes ``conformance.check`` (under quorum, no two sites
install different member lists for one view).
"""

import pytest

from conformance import Run, Task, check, replicas
from repro import IsisConfig

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
# Quorum membership: at most one committing component
# ----------------------------------------------------------------------
def _split(n_sites, seed, config, components, after, tail):
    """Five ABCASTs from every member in turn, then ``components``
    partitioned; ``after`` is sent 12 s into the split."""
    return Run(replicas(
        n_sites, seed, config,
        traffic=(_turns("before", range(n_sites), 5, "m{i}"),),
        faults=((15.0, ("partition", components)),
                (12.0, ("send", after))),
        tail=tail))


@pytest.mark.parametrize("mode", MODES)
def test_quorum_majority_commits_minority_wedges(mode):
    run = _split(5, 77, IsisConfig(abcast_mode=mode, membership="quorum"),
                 [[0, 1, 2], [3, 4]], _turns("majority", (0, 1, 2), 6, "n{i}"),
                 tail=30.0)
    record = run.play()
    check(record)
    # The majority removed the minority and kept delivering.
    maj_view = run.system.kernel(0).agent.view
    assert {s for s, _ in maj_view.members} == {0, 1, 2}
    assert len(record.tags("app0")) == 5 + 6
    assert record.tags("app0") == record.tags("app1") == record.tags("app2")
    # The minority wedged: no new view, not one new delivery.
    for s in (3, 4):
        min_view = run.system.kernel(s).agent.view
        assert {m for m, _ in min_view.members} == {0, 1, 2, 3, 4}
        assert len(record.tags(f"app{s}")) == 5
        assert not run.system.kernel(s).membership_may_commit()


def test_quorum_even_split_wedges_both_sides():
    """A 2|2 split of 4 sites: no strict majority, nobody commits."""
    run = Run(replicas(
        4, 31, IsisConfig(membership="quorum"),
        traffic=(_turns("before", range(4), 4, "m{i}"),),
        faults=((15.0, ("partition", [[0, 1], [2, 3]])),
                (10.0, ("send", _turns("left", (0,), 2, "l{i}"))),
                (0.0, ("send", _turns("right", (2,), 2, "r{i}")))),
        tail=30.0))
    record = run.play()
    check(record)
    for s in range(4):
        view = run.system.kernel(s).agent.view
        assert {m for m, _ in view.members} == {0, 1, 2, 3}, s
        assert len(record.tags(f"app{s}")) == 4, s
        assert not run.system.kernel(s).membership_may_commit()
    # No component installed anything: both sides are waiting, not acting.
    assert run.system.sim.trace.value("sv.installs") == 0 or all(
        run.system.kernel(s).agent.view.view_id == 1 for s in range(4))


def test_primary_even_split_installs_one_side():
    """Contrast: the paper's primary-partition rule on a 50/50 split.
    Half of the previous view suffices only with that view's oldest
    member, so the side holding site 0 installs and the other stalls in
    the old view: one primary chain, where quorum mode wedges both."""
    run = Run(replicas(4, 31, IsisConfig(membership="primary"),
                       faults=((10.0, ("partition", [[0, 1], [2, 3]])),),
                       tail=40.0))
    check(run.play())
    left = run.system.kernel(0).agent.view
    right = run.system.kernel(2).agent.view
    assert {s for s, _ in left.members} == {0, 1}
    assert {s for s, _ in right.members} == {0, 1, 2, 3}
    assert run.system.sim.trace.value("sv.stalls") >= 1


# ----------------------------------------------------------------------
# Quorum membership: healed minority rejoins and converges
# ----------------------------------------------------------------------
def test_quorum_minority_rejoins_after_heal():
    run = _split(5, 77, IsisConfig(membership="quorum"), [[0, 1, 2], [3, 4]],
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


def test_primary_default_and_explicit_identical():
    """``membership='primary'`` must be byte-identical to the default:
    same deliveries, same view trajectory, same trace counters."""
    def play(config):
        run = Run(replicas(4, 55, config,
                           traffic=(_turns("before", range(4), 8, "m{i}"),),
                           faults=((15.0, ("crash", 3)),), tail=20.0))
        record = run.play()
        check(record)
        return (record.streams, {s: _site_view(run, s) for s in range(3)},
                dict(run.system.sim.trace.counters))

    default = play(IsisConfig())
    explicit = play(IsisConfig(membership="primary"))
    assert default == explicit
