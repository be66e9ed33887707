"""The kernel's metrics surface: ``ProtocolsProcess.stats()``,
``kernel.counters`` and the names frozen ``bench/run.py`` reads."""

import ast
import pathlib
import re

import pytest

from repro import IsisCluster, IsisConfig
from repro.core.kernel import KERNEL_COUNTERS
from repro.net.reliable import ReliableEndpoint
from repro.net.udp import UdpTransport

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: ``stats()`` key -> the counter it reads.  A rename on either side is
#: a deliberate edit here (and, for a key, in whoever reads it by name:
#: ``bench/run.py``, the ablations, ``scripts/run_site.py``'s report).
EVENTS = {
    "trimmed_messages": "stability.trimmed",
    "batches_sent": "batch.sent",
    "envelopes_batched": "batch.envelopes",
    "flush.rounds": "flush.runs",
    "flush.fast_path_hits": "flush.fast_path",
    **{name: name for name in [
        "abcast.finals", "abcast.proposals", "abcast.seq_stamps",
        "abcast.token_handoffs", "causal.ctx_delta_entries",
        "causal.ctx_full_walks", "checkpoint.bytes", "checkpoint.writes",
        "flush.fast_path_misses", "flush.refill_bytes",
        "flush.wedged_seconds", "recovery.rejoins", "recovery.torn_tails",
        "recovery.total_restarts", "request.duplicates", "stab.dn_sent", "stab.idle_skipped",
        "stab.up_sent", "state_transfer.chunks",
        "state_transfer.stream_bytes", "state_transfer.streams_aborted",
        "transfer.log_assisted_bytes_saved", "tree.dup_drops",
        "tree.flat_fallbacks", "tree.relayed", "wal.appends", "wal.bytes",
        "wal.replayed", "wal.truncations"]},
}
#: Computed from live state when read.  ``wal.groups`` only with a WAL.
GAUGES = {
    "batch_pending", "buffered_bytes", "buffered_messages",
    "causal.ctx_cache", "causal.peak_pending", "causal.pending",
    "groups",
    "kernel.peak_groups_per_shard", "state_transfer.streams_active",
    "tree.depth", "tree.fanout", "wait_index.peak", "wait_index.size",
} | {f"transport.{name}" for name in ReliableEndpoint.COUNTERS}


def _probe():
    """Site 0 creates a group, site 1 joins it and sends 10 CBCASTs and
    10 ABCASTs; returns the cluster, site 1's handles and the gid."""
    system = IsisCluster(n_sites=2, seed=19,
                         isis_config=IsisConfig(batch_window=0.010))
    members = [system.spawn(s, f"m{s}") for s in range(2)]
    for process, _ in members:
        process.bind(16, lambda msg: None)
    box = {}

    def create():
        box["gid"] = yield members[0][1].pg_create("probe")

    def join():
        yield members[1][1].pg_join(box["gid"])

    def send(kind):     # the two streams share each batch window
        for i in range(10):
            yield members[1][1].bcast(box["gid"], 16, kind=kind, tag=i)

    members[0][0].spawn(create(), "create")
    system.run_for(5.0)
    members[1][0].spawn(join(), "join")
    system.run_for(20.0)
    for kind in ("cbcast", "abcast"):
        members[1][0].spawn(send(kind), kind)
    system.run_for(30.0)
    return system, members[1], box["gid"]


def test_stats_key_set_is_pinned():
    assert KERNEL_COUNTERS == EVENTS
    assert not GAUGES & set(EVENTS)
    plain = IsisCluster(n_sites=2, seed=1).kernel(0).stats()
    durable = IsisCluster(
        n_sites=2, seed=1,
        isis_config=IsisConfig(durability=True)).kernel(0).stats()
    assert set(plain) == set(EVENTS) | GAUGES
    assert set(durable) == set(plain) | {"wal.groups"}
    # Present and zero before the first event, the WAL's included.
    assert all(plain[key] == 0 for key in EVENTS)


def test_kernel_stats_never_go_backwards():
    """An event counted is counted for good: a group retiring from the
    kernel takes its engine away, not what the engine did."""
    system, (process, isis), gid = _probe()
    before = system.kernel(1).stats()
    assert before["batches_sent"] == 10
    assert before["envelopes_batched"] == before["trimmed_messages"] == 20
    assert before["abcast.finals"] == 10

    def leave():
        yield isis.pg_leave(gid)

    process.spawn(leave(), "leave")
    system.run_for(30.0)
    after = system.kernel(1).stats()
    assert after["groups"] == 0 and before["groups"] == 1
    kernels = [system.kernel(0).stats(), after]
    for key, name in KERNEL_COUNTERS.items():
        assert after[key] >= before[key], key
        # Nobody is wedged now, so every second of it has been counted.
        assert sum(k[key] for k in kernels) == pytest.approx(
            system.sim.trace.value(name), abs=1e-9), key


def test_crashed_kernel_keeps_its_counters():
    system, _member, _gid = _probe()
    kernel = system.kernel(1)
    before = kernel.stats()
    system.crash_site(1)
    system.run_for(30.0)
    assert not kernel.alive and system.kernel(0).stats()["flush.rounds"] > 0
    after = kernel.stats()
    assert {key: after[key] for key in KERNEL_COUNTERS} \
        == {key: before[key] for key in KERNEL_COUNTERS}
    assert after["abcast.finals"] == 10 and after["groups"] == 0


def _src_text():
    return "\n".join(path.read_text()
                     for path in sorted((ROOT / "src").rglob("*.py")))


def _bench_reads():
    """Every ``c.delta("...")`` / ``c.peak("...")`` name in ``bench/run.py``
    (parsed, not imported: the file is frozen and has its own path set-up)."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("delta", "peak")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "c"}


def test_every_name_the_benchmark_reads_resolves():
    """A renamed key or counter fails here instead of silently zeroing a
    ``per_layer`` metric."""
    reads = _bench_reads()
    assert len(reads) > 30
    bumped = set(re.findall(r'\bbump\(\s*"([^"]+)"', _src_text()))
    transport = {f"transport.{name}" for name in
                 set(ReliableEndpoint.COUNTERS) | set(UdpTransport.COUNTERS)}
    for name in sorted(reads):
        scope, _, key = name.partition(".")
        if scope == "k":        # summed over ``kernel.stats()``
            assert key in set(EVENTS) | GAUGES | transport, name
        elif scope not in ("n", "sched"):   # the cluster's trace counters
            assert name in bumped, name


def test_kernel_counters_are_bumped_on_the_kernel_only():
    """The one rule: an event ``stats()`` reports goes through
    ``kernel.counters``, so the site's book and the cluster's agree."""
    source = _src_text()
    for name in KERNEL_COUNTERS.values():
        assert re.search(r'counters\.bump\(\s*"%s"' % re.escape(name),
                         source), name
        assert not re.search(r'trace\.bump\(\s*"%s"' % re.escape(name),
                             source), name
