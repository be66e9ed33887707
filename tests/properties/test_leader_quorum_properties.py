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
"""

import json

import pytest

from repro import IsisCluster, IsisConfig

MODES = ["two_phase", "sequencer"]


def attach(system, site_id, deliveries, name="app"):
    """Spawn a member process with a JSON-list transfer segment."""
    process, isis = system.spawn(site_id, f"{name}{site_id}")
    log = deliveries.setdefault(site_id, [])
    log.clear()
    process.xfer_segments["log"] = (
        lambda log=log: [json.dumps(log).encode()],
        lambda blocks, log=log: (
            log.clear(), log.extend(json.loads(blocks[0])),
        ) if blocks else None,
    )
    process.bind(1, lambda msg, log=log: log.append(msg["body"]))
    return process, isis


def build_group(system, handles, n_sites, deliveries, procs=None):
    for site in range(n_sites):
        proc, handles[site] = attach(system, site, deliveries)
        if procs is not None:
            procs[site] = proc
    system.run_for(3.0)
    box = {}
    handles[0].pg_create("grp").add_done_callback(
        lambda p: box.__setitem__("gid", p.value))
    system.run_for(5.0)
    for site in range(1, n_sites):
        handles[site].pg_join(box["gid"])
        system.run_for(5.0)
    return box["gid"]


def drive(system, handles, gid, start, count, kind="abcast", gap=1.2):
    senders = sorted(handles)
    for i in range(start, start + count):
        handles[senders[i % len(senders)]].bcast(
            gid, 1, 0, kind, body=f"m{i}")
        system.run_for(gap)


# ----------------------------------------------------------------------
# Engine differential under churn
# ----------------------------------------------------------------------
def _churn_run(mode, seed):
    system = IsisCluster(n_sites=4, seed=seed,
                         isis_config=IsisConfig(abcast_mode=mode))
    deliveries = {}
    handles = {}
    gid = build_group(system, handles, 4, deliveries)
    drive(system, handles, gid, 0, 10)
    system.run_for(15.0)

    system.crash_site(3)
    system.run_for(12.0)
    survivors = {s: h for s, h in handles.items() if s != 3}
    drive(system, survivors, gid, 10, 10)
    system.run_for(25.0)

    views = {s: system.kernel(s).agent.view for s in survivors}
    return ({s: list(deliveries[s]) for s in survivors},
            {s: (v.view_id, v.members) for s, v in views.items()})


@pytest.mark.parametrize("seed", [11, 47])
def test_engine_differential_under_churn(seed):
    sets_by_mode = {}
    views_by_mode = {}
    for mode in MODES:
        deliveries, views = _churn_run(mode, seed)
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
    assert _churn_run(mode, 23) == _churn_run(mode, 23)


# ----------------------------------------------------------------------
# Quorum membership: at most one committing component
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_quorum_majority_commits_minority_wedges(mode):
    system = IsisCluster(
        n_sites=5, seed=77,
        isis_config=IsisConfig(abcast_mode=mode, membership="quorum"))
    deliveries = {}
    handles = {}
    gid = build_group(system, handles, 5, deliveries)
    drive(system, handles, gid, 0, 5)
    system.run_for(15.0)
    baseline = len(deliveries[0])
    assert baseline == 5

    system.cluster.lan.partition([[0, 1, 2], [3, 4]])
    system.run_for(12.0)
    majority = {s: handles[s] for s in (0, 1, 2)}
    drive(system, majority, gid, 100, 6)
    system.run_for(30.0)

    # The majority removed the minority and kept delivering.
    maj_view = system.kernel(0).agent.view
    assert {s for s, _ in maj_view.members} == {0, 1, 2}
    assert len(deliveries[0]) == baseline + 6
    assert deliveries[0] == deliveries[1] == deliveries[2]
    # The minority wedged: no new view, not one new delivery.
    for s in (3, 4):
        min_view = system.kernel(s).agent.view
        assert {m for m, _ in min_view.members} == {0, 1, 2, 3, 4}
        assert len(deliveries[s]) == baseline
        assert not system.kernel(s).membership_may_commit()


def test_quorum_even_split_wedges_both_sides():
    """A 2|2 split of 4 sites: no strict majority, nobody commits."""
    system = IsisCluster(
        n_sites=4, seed=31,
        isis_config=IsisConfig(membership="quorum"))
    deliveries = {}
    handles = {}
    gid = build_group(system, handles, 4, deliveries)
    drive(system, handles, gid, 0, 4)
    system.run_for(15.0)
    baseline = len(deliveries[0])

    system.cluster.lan.partition([[0, 1], [2, 3]])
    system.run_for(10.0)
    drive(system, {0: handles[0]}, gid, 100, 2)
    drive(system, {2: handles[2]}, gid, 200, 2)
    system.run_for(30.0)

    for s in range(4):
        view = system.kernel(s).agent.view
        assert {m for m, _ in view.members} == {0, 1, 2, 3}, s
        assert len(deliveries[s]) == baseline, s
        assert not system.kernel(s).membership_may_commit()
    # No component installed anything: both sides are waiting, not acting.
    assert system.sim.trace.value("sv.installs") == 0 or all(
        system.kernel(s).agent.view.view_id == 1 for s in range(4))


def test_primary_even_split_installs_both_sides():
    """Contrast: the paper's primary-partition rule admits a 50/50
    split on both sides (half *of the previous view* suffices), which
    is exactly the split-brain quorum mode exists to rule out."""
    system = IsisCluster(
        n_sites=4, seed=31,
        isis_config=IsisConfig(membership="primary"))
    deliveries = {}
    handles = {}
    gid = build_group(system, handles, 4, deliveries)
    system.run_for(10.0)

    system.cluster.lan.partition([[0, 1], [2, 3]])
    system.run_for(40.0)

    left = system.kernel(0).agent.view
    right = system.kernel(2).agent.view
    assert {s for s, _ in left.members} == {0, 1}
    assert {s for s, _ in right.members} == {2, 3}


# ----------------------------------------------------------------------
# Quorum membership: healed minority rejoins and converges
# ----------------------------------------------------------------------
def test_quorum_minority_rejoins_after_heal():
    system = IsisCluster(
        n_sites=5, seed=77,
        isis_config=IsisConfig(membership="quorum"))
    deliveries = {}
    handles = {}
    gid = build_group(system, handles, 5, deliveries)
    drive(system, handles, gid, 0, 5)
    system.run_for(15.0)

    system.cluster.lan.partition([[0, 1, 2], [3, 4]])
    system.run_for(12.0)
    majority = {s: handles[s] for s in (0, 1, 2)}
    drive(system, majority, gid, 100, 4)
    system.run_for(25.0)

    # Heal: the excluded minority learns of the majority's view chain
    # and self-destructs (agreed-view-excludes-me, §3.7).
    system.cluster.lan.heal()
    for _ in range(12):
        system.run_for(10.0)
        if not any(system.cluster.site(s).up for s in (3, 4)):
            break
    assert not system.cluster.site(3).up
    assert not system.cluster.site(4).up

    # Restart and rejoin through the ordinary state-transfer path.
    system.restart_site(3)
    system.restart_site(4)
    system.run_for(5.0)
    for s in (3, 4):
        _, handles[s] = attach(system, s, deliveries)
        handles[s].pg_join_by_name("grp")
    system.run_for(40.0)

    views = {s: system.kernel(s).agent.view for s in range(5)}
    assert len({(v.view_id, v.members) for v in views.values()}) == 1, views
    assert {s for s, _ in views[0].members} == {0, 1, 2, 3, 4}

    drive(system, handles, gid, 200, 5)
    system.run_for(25.0)
    reference = deliveries[0]
    assert len(reference) == 14
    for s in range(1, 5):
        assert deliveries[s] == reference, (s, deliveries[s], reference)


def test_primary_default_and_explicit_identical():
    """``membership='primary'`` must be byte-identical to the default:
    same deliveries, same view trajectory, same trace counters."""
    def run(config):
        system = IsisCluster(n_sites=4, seed=55, isis_config=config)
        deliveries = {}
        handles = {}
        gid = build_group(system, handles, 4, deliveries)
        drive(system, handles, gid, 0, 8)
        system.run_for(15.0)
        system.crash_site(3)
        system.run_for(20.0)
        views = {s: (system.kernel(s).agent.view.view_id,
                     system.kernel(s).agent.view.members)
                 for s in range(3)}
        return deliveries, views, dict(system.sim.trace.counters)

    default = run(IsisConfig())
    explicit = run(IsisConfig(membership="primary"))
    assert default == explicit
