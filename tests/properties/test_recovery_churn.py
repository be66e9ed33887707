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
"""

import json

import pytest

from repro.core import wal as wal_mod
from repro.core.bootstrap import IsisCluster
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


def drive(system, handles, gid, start, count, mode, gap=1.5):
    senders = sorted(handles)
    for i in range(start, start + count):
        handles[senders[i % len(senders)]].bcast(
            gid, 1, 0, mode, body=f"m{i}")
        system.run_for(gap)


def crash_consistent_prefix_of(replayed, reference):
    """``replayed`` must be ``reference`` minus a (possibly empty)
    unsynced suffix — the only data a crash is allowed to eat."""
    return replayed == reference[:len(replayed)]


@pytest.mark.parametrize("abcast_mode", ENGINE_GRID)
@pytest.mark.parametrize("kind", ["cbcast", "abcast"])
@pytest.mark.usefixtures("trim_checkpoints_early")
def test_durability_is_trajectory_neutral(abcast_mode, kind):
    def run(durable):
        system = IsisCluster(
            n_sites=3, seed=101,
            isis_config=make_config(abcast_mode, durable))
        deliveries = {}
        handles = {}
        for site in range(3):
            _, handles[site] = attach(system, site, deliveries)
        system.run_for(3.0)
        box = {}
        handles[0].pg_create("grp").add_done_callback(
            lambda p: box.__setitem__("gid", p.value))
        system.run_for(5.0)
        for site in (1, 2):
            handles[site].pg_join(box["gid"])
            system.run_for(5.0)
        drive(system, handles, box["gid"], 0, 18, kind)
        system.run_for(25.0)
        return deliveries

    with_wal = run(True)
    without = run(False)
    assert with_wal == without, (
        "enabling durability changed a delivery trajectory")
    assert all(len(log) == 18 for log in without.values())


@pytest.mark.parametrize("abcast_mode", ENGINE_GRID)
@pytest.mark.usefixtures("trim_checkpoints_early")
def test_crash_replay_rejoin_converges(abcast_mode):
    system = IsisCluster(
        n_sites=4, seed=202,
        isis_config=make_config(abcast_mode, True),
        storage_faults=StorageFaults(torn_tail_prob=0.5, seed=5))
    deliveries = {}
    handles = {}
    procs = {}
    for site in range(4):
        procs[site], handles[site] = attach(system, site, deliveries)
    system.run_for(3.0)
    box = {}
    handles[0].pg_create("grp").add_done_callback(
        lambda p: box.__setitem__("gid", p.value))
    system.run_for(5.0)
    gid = box["gid"]
    for site in (1, 2, 3):
        handles[site].pg_join(gid)
        system.run_for(5.0)
    drive(system, handles, gid, 0, 12, "cbcast")
    system.run_for(15.0)
    pre_crash = list(deliveries[3])

    system.crash_site(3)
    system.run_for(10.0)
    survivors = {s: h for s, h in handles.items() if s != 3}
    drive(system, survivors, gid, 12, 12, "abcast")
    system.run_for(15.0)

    system.restart_site(3)
    system.run_for(3.0)
    procs[3], handles[3] = attach(system, 3, deliveries)
    replayed = system.kernel(3).wal.replay_to(gid, procs[3])
    assert crash_consistent_prefix_of(deliveries[3], pre_crash), (
        "replay resurrected deliveries out of order or from thin air")
    handles[3].pg_join_by_name("grp")
    system.run_for(30.0)
    drive(system, handles, gid, 24, 6, "cbcast")
    system.run_for(25.0)

    reference = deliveries[0]
    assert len(reference) == 30
    assert deliveries[3] == reference, (
        f"rejoined member diverged (replayed {replayed} from log): "
        f"{deliveries[3]} != {reference}")
    assert deliveries[1] == reference and deliveries[2] == reference


def test_large_wal_suffix_arrives_as_chunks():
    """A rejoiner that missed more logged deliveries than one message
    may carry gets the suffix as an ``st.chunk`` stream, like a large
    snapshot, and replays to the survivors' state."""
    system = IsisCluster(n_sites=3, seed=404,
                         isis_config=IsisConfig(durability=True))
    deliveries = {}
    handles = {}
    procs = {}
    for site in range(3):
        procs[site], handles[site] = attach(system, site, deliveries)
    system.run_for(3.0)
    box = {}
    handles[0].pg_create("grp").add_done_callback(
        lambda p: box.__setitem__("gid", p.value))
    system.run_for(5.0)
    gid = box["gid"]
    for site in (1, 2):
        handles[site].pg_join(gid)
        system.run_for(5.0)
    drive(system, handles, gid, 0, 4, "cbcast")
    system.run_for(10.0)

    system.crash_site(2)
    system.run_for(10.0)
    for i in range(14):  # ~70 KB of log the crashed site never saw
        handles[i % 2].bcast(gid, 1, 0, "abcast", body=f"big{i}:" + "x" * 5000)
        system.run_for(1.5)
    system.run_for(10.0)

    system.restart_site(2)
    system.run_for(3.0)
    procs[2], handles[2] = attach(system, 2, deliveries)
    system.kernel(2).wal.replay_to(gid, procs[2])
    trace = system.sim.trace
    before = trace.snapshot("state_transfer.")
    handles[2].pg_join_by_name("grp")
    system.run_for(30.0)

    assert trace.value("transfer.log_assisted") == 1
    assert trace.value("transfer.suffix_bytes") > 70_000
    streamed = trace.delta(before, "state_transfer.")
    assert streamed.get("state_transfer.streams") == 1
    assert streamed.get("state_transfer.chunks") == 2
    assert streamed.get("state_transfer.stream_bytes") > 70_000
    assert len(deliveries[0]) == 18
    assert deliveries[2] == deliveries[0] == deliveries[1]


@pytest.mark.parametrize("abcast_mode", ENGINE_GRID)
@pytest.mark.usefixtures("trim_checkpoints_early")
def test_kill_all_restart_all_elects_one_restarter(abcast_mode):
    system = IsisCluster(
        n_sites=3, seed=303,
        isis_config=make_config(abcast_mode, True),
        storage_faults=StorageFaults(torn_tail_prob=0.3, seed=9))
    managers = install_recovery(system, settle_delay=4.0)
    deliveries = {}

    def service_program(process, mode, group_name):
        isis = Isis(process)
        log = deliveries.setdefault(process.site.site_id, [])
        log.clear()
        process.xfer_segments["log"] = (
            lambda log=log: [json.dumps(log).encode()],
            lambda blocks, log=log: (
                log.clear(), log.extend(json.loads(blocks[0])),
            ) if blocks else None,
        )
        process.bind(1, lambda msg, log=log: log.append(msg["body"]))

        def main():
            if mode == "create":
                yield isis.pg_create(group_name)
            else:
                gid = yield isis.pg_lookup(group_name)
                yield isis.pg_join(gid)

        process.spawn(main(), "svc.main")
        return isis

    system.cluster.programs.register("svc", service_program)
    for site in (0, 1):
        managers[site].register("kv", "svc")
    system.run_for(2.0)
    h0 = service_program(system.site(0).spawn_process("svc"), "create", "kv")
    system.run_for(5.0)
    h1 = service_program(system.site(1).spawn_process("svc"), "join", "kv")
    system.run_for(8.0)
    box = {}
    h0.pg_lookup("kv").add_done_callback(
        lambda p: box.__setitem__("gid", p.value))
    system.run_for(2.0)
    for i in range(20):
        (h0 if i % 2 else h1).bcast(box["gid"], 1, 0, "abcast", body=f"v{i}")
        system.run_for(1.2)
    system.run_for(20.0)
    pre_crash = list(deliveries[0])
    assert pre_crash == deliveries[1]

    system.crash_site(0)
    system.crash_site(1)
    system.run_for(20.0)
    system.restart_site(0)
    system.restart_site(1)
    system.run_for(200.0)

    assert system.sim.trace.value("tool.rm_restarts") == 1, (
        "the restart election split-brained (or nobody restarted)")
    assert system.sim.trace.value("recovery.total_restarts") >= 1
    for site in (0, 1):
        assert crash_consistent_prefix_of(deliveries[site], pre_crash), (
            f"site {site} restored a non-prefix of the pre-crash state")
    assert deliveries[0] == deliveries[1], (
        "restarter and rejoiner disagree after recovery")
    assert len(deliveries[0]) > 0, "recovery lost the entire log"
