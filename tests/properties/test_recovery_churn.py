"""Crash-recovery churn properties: the WAL under kill/restart storms.

Three families of checks, each run across both ABCAST engines:

* **Trajectory neutrality** — ``durability=True`` must be a pure
  observer: with the same seed and workload, every site's delivered
  sequence is byte-identical to the ``durability=False`` run.  The WAL
  only ever *reads* the delivery stream, so any divergence is a bug in
  the hooks, not a legitimate reordering.
* **Rejoin churn** — crash a site mid-stream (with a fault-injecting
  disk: unsynced writes lost, torn tails possible), restart it, replay
  its log, rejoin.  The rejoined member must converge to exactly the
  survivors' state: no stable delivery lost, none duplicated.
* **Kill-all/restart-all** — crash *every* site, restart all, let the
  recovery managers elect a restarter.  Exactly one site re-creates the
  group, and its restored state must equal some crash-consistent prefix
  of the pre-crash delivery sequence (the WAL may lose the unsynced
  suffix, never the middle).

Every run also passes ``conformance.check``, whose durable-replica rule
is that prefix check for each member rebuilt from its site's log.
"""

import pytest

from conformance import Run, Scenario, Task, check, replicas
from repro.core import wal as wal_mod
from repro.core.groups import Isis
from repro.core.kernel import IsisConfig
from repro.runtime.stable import StorageFaults
from repro.tools.recovery import install_recovery

# The ids keep the "-True" of the retired flush-engine axis, so that the
# cases that remain keep the names recorded test lists know them by.
ENGINE_GRID = [pytest.param(mode, id=f"{mode}-True")
               for mode in ("two_phase", "sequencer")]


def make_config(abcast_mode, durable):
    return IsisConfig(
        abcast_mode=abcast_mode,
        durability=durable,
        wal_checkpoint_every=12,
    )


@pytest.fixture
def trim_checkpoints_early(monkeypatch):
    """A stability trim checkpoints after 6 deliveries, not 16: the
    short runs of the ``make_config`` tests cross several checkpoints."""
    monkeypatch.setattr(wal_mod, "WAL_TRIM_MIN", 6)


def _turns(name, members, kind, count, tag):
    """``count`` multicasts to ``grp`` from ``members`` in turn, 1.5 s
    apart."""
    return Task(name, tuple(members), ("grp",), kind, count, tag, gap=1.5)


def _apps(n):
    return [f"app{s}" for s in range(n)]


def _rejoin(run, site):
    """Restart ``site``, rebuild its member from the site's log, and
    record it as restored from its predecessor; returns its name."""
    run.act(("restart", site))
    run.system.run_for(3.0)
    name = run.spawn(site, f"app{site}")
    replayed = run.system.kernel(site).wal.replay_to(run.gids["grp"],
                                                     run.procs[name])
    run.restored_from(name, f"app{site}")
    return name, replayed


@pytest.mark.parametrize("abcast_mode", ENGINE_GRID)
@pytest.mark.parametrize("kind", ["cbcast", "abcast"])
@pytest.mark.usefixtures("trim_checkpoints_early")
def test_durability_is_trajectory_neutral(abcast_mode, kind):
    def play(durable):
        record = Run(replicas(
            3, 101, make_config(abcast_mode, durable),
            traffic=(_turns("drive", _apps(3), kind, 18, "m{i}"),),
            tail=25.0)).play()
        check(record)
        return record.states

    with_wal = play(True)
    without = play(False)
    assert with_wal == without, (
        "enabling durability changed a delivery trajectory")
    assert all(len(log) == 18 for log in without.values())


@pytest.mark.parametrize("abcast_mode", ENGINE_GRID)
@pytest.mark.usefixtures("trim_checkpoints_early")
def test_crash_replay_rejoin_converges(abcast_mode):
    run = Run(replicas(
        4, 202, make_config(abcast_mode, True),
        storage_faults=StorageFaults(torn_tail_prob=0.5, seed=5),
        traffic=(_turns("before", _apps(4), "cbcast", 12, "m{i}"),),
        faults=((15.0, ("crash", 3)),
                (10.0, ("send", _turns("during", _apps(3), "abcast", 12,
                                       "n{i}")))),
        tail=15.0))
    run.play()
    rejoined, replayed = _rejoin(run, 3)
    run.isis[rejoined].pg_join_by_name("grp")
    run.system.run_for(30.0)
    run.send(_turns("after", _apps(3) + [rejoined], "cbcast", 6, "p{i}"))
    run.system.run_for(25.0)

    # The durable-replica rule: the replay resurrected no delivery out
    # of order or from thin air.
    record = run.record()
    check(record)
    reference = record.states["app0"]
    assert len(reference) == 30
    assert record.states[rejoined] == reference, (
        f"rejoined member diverged (replayed {replayed} from log): "
        f"{record.states[rejoined]} != {reference}")
    assert record.states["app1"] == reference
    assert record.states["app2"] == reference


def test_large_wal_suffix_arrives_as_chunks():
    """A rejoiner that missed more logged deliveries than one message
    may carry gets the suffix as an ``st.chunk`` stream, like a large
    snapshot, and replays to the survivors' state."""
    run = Run(replicas(
        3, 404, IsisConfig(durability=True),
        traffic=(_turns("before", _apps(3), "cbcast", 4, "m{i}"),),
        # ~70 KB of log the crashed site never sees.
        faults=((10.0, ("crash", 2)),
                (10.0, ("send", _turns("big", _apps(2), "abcast", 14,
                                       "big{i}:" + "x" * 5000)))),
        tail=10.0))
    run.play()
    rejoined, _ = _rejoin(run, 2)
    trace = run.system.sim.trace
    before = trace.snapshot("state_transfer.")
    run.isis[rejoined].pg_join_by_name("grp")
    run.system.run_for(30.0)

    record = run.record()
    check(record)
    assert trace.value("transfer.log_assisted") == 1
    assert trace.value("transfer.suffix_bytes") > 70_000
    streamed = trace.delta(before, "state_transfer.")
    assert streamed.get("state_transfer.streams") == 1
    assert streamed.get("state_transfer.chunks") == 2
    assert streamed.get("state_transfer.stream_bytes") > 70_000
    assert len(record.states["app0"]) == 18
    assert record.states[rejoined] == record.states["app0"] \
        == record.states["app1"]


def kv_service(abcast_mode):
    """Members ``svc0`` and ``svc1`` of ``kv`` on sites 0 and 1 of three,
    which their recovery managers may restart there, after 20 ABCASTs
    between them; the run."""
    run = Run(Scenario(
        n_sites=3, seed=303, config=make_config(abcast_mode, True),
        storage_faults=StorageFaults(torn_tail_prob=0.3, seed=9),
        state=True))
    system = run.system
    managers = install_recovery(system)

    def service_program(process, mode, group_name):
        isis = Isis(process)
        name = run.attach(process, f"svc{process.site.site_id}", isis)
        body = run.creating if mode == "create" else run.joining
        process.spawn(body(name, (group_name,)), "svc.main")
        return isis

    system.cluster.programs.register("svc", service_program)
    for site in (0, 1):
        managers[site].register("kv", "svc")
    system.run_for(2.0)
    service_program(system.site(0).spawn_process("svc"), "create", "kv")
    system.run_for(5.0)
    service_program(system.site(1).spawn_process("svc"), "join", "kv")
    system.run_for(10.0)
    run.send(Task("drive", ("svc1", "svc0"), ("kv",), "abcast", 20, "v{i}",
                  gap=1.2))
    system.run_for(20.0)
    assert run.states["svc0"] == run.states["svc1"]
    return run


@pytest.mark.parametrize("abcast_mode", ENGINE_GRID)
@pytest.mark.usefixtures("trim_checkpoints_early")
def test_kill_all_restart_all_elects_one_restarter(abcast_mode):
    run = kv_service(abcast_mode)
    system = run.system
    system.crash_site(0)
    system.crash_site(1)
    system.run_for(20.0)
    system.restart_site(0)
    system.restart_site(1)
    system.run_for(200.0)

    assert system.sim.trace.value("tool.rm_restarts") == 1, (
        "the restart election split-brained (or nobody restarted)")
    assert system.sim.trace.value("recovery.total_restarts") >= 1
    # The durable-replica rule: each site restored a prefix of the
    # pre-crash state.
    for site in (0, 1):
        run.restored_from(f"svc{site}.1", f"svc{site}")
    check(run.record())
    assert run.states["svc0.1"] == run.states["svc1.1"], (
        "restarter and rejoiner disagree after recovery")
    assert len(run.states["svc0.1"]) > 0, "recovery lost the entire log"
