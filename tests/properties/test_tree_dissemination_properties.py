"""Differential properties: tree dissemination vs the flat oracle.

``IsisConfig.dissemination = "tree"`` replaces the *wire topology* —
envelopes, sequencer stamps, and stability traffic relay along a k-ary
spanning tree instead of every sender paying O(n) sends — but must
preserve every virtual synchrony guarantee.  The two modes send
different traffic, so arrival timing (and therefore the interleaving of
concurrent multicasts) legitimately differs.  What must match:

* each mode independently satisfies §2.4: one global ABCAST order
  among final-view members, per-sender FIFO, survivors deliver the
  same sets;
* both modes converge to the same final membership for the same
  scripted churn, under both abcast modes;
* messages from senders on surviving sites are delivered identically
  in both modes — including when an *interior relay* of the tree dies
  mid-multicast, the case where the subtree behind it sees nothing
  until the view-change flush refills the hole.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IsisCluster, IsisConfig
from repro.core.engine import GroupEngine
from repro.core.store import MessageStore

ENTRY = 16
N_SITES = 5


def _churn_run(dissemination, seed, mode, script):
    """One scripted churn workload; returns deliveries/views/trace."""
    system = IsisCluster(
        n_sites=N_SITES, seed=seed,
        isis_config=IsisConfig(dissemination=dissemination, tree_fanout=2,
                               abcast_mode=mode),
    )
    deliveries = {s: [] for s in range(N_SITES)}
    members = []
    for site in range(N_SITES):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(ENTRY, lambda msg, s=site: deliveries[s].append(msg["tag"]))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("td")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, N_SITES):
        def join(isis=members[i][1]):
            gid = yield isis.pg_lookup("td")
            yield isis.pg_join(gid)

        members[i][0].spawn(join(), f"j{i}")
        system.run_for(15.0)

    for idx, (proc, isis) in enumerate(members):
        def gen(isis=isis, idx=idx):
            from repro.sim.tasks import sleep
            gid = yield isis.pg_lookup("td")
            for i in range(12):
                kind = "abcast" if (idx + i) % 2 else "cbcast"
                yield isis.bcast(gid, ENTRY, kind=kind,
                                 tag=f"s{idx}:{kind[:2]}:{i}")
                yield sleep(system.sim, 0.11)

        proc.spawn(gen(), f"t{idx}")

    crashed_sites = set()
    for step, (kind, arg) in enumerate(script):
        system.run_for(1.2)
        if kind == "kill" and members[arg][0].alive:
            members[arg][0].kill()
        elif kind == "crash" and arg not in crashed_sites:
            crashed_sites.add(arg)
            system.crash_site(arg)
        elif kind == "gbcast":
            def gb(step=step):
                gid = yield members[0][1].pg_lookup("td")
                yield members[0][1].gbcast(gid, ENTRY, tag=f"gb:{step}")

            members[0][0].spawn(gb(), f"gb{step}")
    system.run_for(120.0)

    survivors = [s for s in range(N_SITES) if s not in crashed_sites]
    views = {}
    for s in survivors:
        for engine in system.kernel(s).engines.values():
            if engine.installed and engine.view is not None:
                views[s] = tuple(sorted(str(m) for m in engine.view.members))
    return {
        "deliveries": deliveries,
        "survivor_sites": survivors,
        "views": views,
        "trace": system.sim.trace,
        "stats": {s: system.kernel(s).stats() for s in survivors},
    }


def _check_vs_invariants(result):
    """Per-mode §2.4 invariants over the original (site-bound) members."""
    deliveries = result["deliveries"]
    member_sites = list(result["survivor_sites"])
    final_sites = [s for s in member_sites if s in result["views"]]
    ab_orders = {}
    for s in final_sites:
        ab_orders[s] = [t for t in deliveries[s]
                        if isinstance(t, str) and ":ab:" in t]
    for a in final_sites:
        for b in final_sites:
            if a >= b:
                continue
            common = set(ab_orders[a]) & set(ab_orders[b])
            seq_a = [t for t in ab_orders[a] if t in common]
            seq_b = [t for t in ab_orders[b] if t in common]
            assert seq_a == seq_b, (
                f"ABCAST order diverged between sites {a} and {b}")
    for s in member_sites:
        for sender in range(N_SITES):
            for kind in ("cb", "ab"):
                seq = [int(t.split(":")[2]) for t in deliveries[s]
                       if isinstance(t, str)
                       and t.startswith(f"s{sender}:{kind}:")]
                assert seq == sorted(seq), (
                    f"FIFO violated at site {s} for sender {sender}")


def _surviving_sender_tags(result):
    out = set()
    for s in result["survivor_sites"]:
        for t in result["deliveries"][s]:
            if isinstance(t, str) and t.startswith("s"):
                sender = int(t.split(":")[0][1:])
                if sender in result["survivor_sites"]:
                    out.add(t)
            elif isinstance(t, str) and t.startswith("gb:"):
                out.add(t)
    return out


SCRIPT_STEP = st.one_of(
    st.tuples(st.just("kill"), st.integers(1, 4)),
    st.tuples(st.just("gbcast"), st.just(0)),
    st.tuples(st.just("crash"), st.integers(1, 4)),
)


@given(
    seed=st.integers(0, 300),
    mode=st.sampled_from(["two_phase", "sequencer"]),
    script=st.lists(SCRIPT_STEP, min_size=1, max_size=2),
)
@settings(max_examples=6, deadline=None)
def test_tree_matches_flat_under_churn(seed, mode, script):
    tree = _churn_run("tree", seed, mode, script)
    flat = _churn_run("flat", seed, mode, script)
    for result in (tree, flat):
        _check_vs_invariants(result)
    tree_views = set(tree["views"].values())
    flat_views = set(flat["views"].values())
    assert len(tree_views) <= 1 and len(flat_views) <= 1, (
        "sites disagree on the final view within one mode")
    assert tree_views == flat_views, (
        f"final membership diverged: {tree_views} vs {flat_views}")
    assert _surviving_sender_tags(tree) == _surviving_sender_tags(flat)
    # The tree actually carried traffic (not a silent flat fallback).
    assert tree["trace"].value("tree.relayed") > 0


# The ids keep the "True-" of the retired flush-engine axis, so that the
# cases that remain keep the names recorded test lists know them by.
@pytest.mark.parametrize("mode", [
    pytest.param(mode, id=f"True-{mode}")
    for mode in ("two_phase", "sequencer")])
def test_tree_ancestor_crash_mid_multicast(mode):
    """Kill an interior relay while its subtree depends on it.

    Sites sorted [0..4] with fanout 2: in the tree rooted at site 0,
    site 1 relays to sites 3 and 4.  Crashing site 1 mid-burst from
    site 0 loses the subtree's copies until the removal flush runs; the
    union cut + refill must deliver every survivor-sent message to every
    survivor anyway, identically to flat mode.
    """
    script = [("crash", 1)]
    tree = _churn_run("tree", 42, mode, script)
    flat = _churn_run("flat", 42, mode, script)
    for result in (tree, flat):
        _check_vs_invariants(result)
    assert set(tree["views"].values()) == set(flat["views"].values())
    assert len(set(tree["views"].values())) == 1
    tags = _surviving_sender_tags(tree)
    assert tags == _surviving_sender_tags(flat)
    # Site 0 sent 12 messages and survived: subtree sites 3 and 4 must
    # have received all of them despite losing their relay.
    for i in range(12):
        kind = "ab" if i % 2 else "cb"
        assert f"s0:{kind}:{i}" in tags
    for s in (3, 4):
        got = {t for t in tree["deliveries"][s]
               if isinstance(t, str) and t.startswith("s0:")}
        assert len(got) == 12, f"site {s} missed relayed traffic: {got}"


def test_refill_resends_the_bytes_recorded(monkeypatch):
    """The relay crash above makes the flush refill the subtree from
    the survivors' buffers.  A store keeps each envelope as its wire
    bytes, so every refilled envelope is byte-identical to what each
    site recorded for it (the origin: what its fan-out sent), and
    ``flush.refill_bytes`` is their total length."""
    recorded = {}
    refilled = []
    real_record = MessageStore.record
    real_send = GroupEngine._send_flush_msg

    def key(env):
        return env["gid"].pack(), env["view"], env["origin"], env["gseq"]

    def record(store, origin, gseq, env):
        new = real_record(store, origin, gseq, env)
        if new:
            assert recorded.setdefault(key(env), env.encode()) == \
                env.encode()
            assert store._messages[(origin, gseq)] is env.encode()
        return new

    def send_flush_msg(engine, site, msg):
        if msg["_proto"] == "g.fl.data":
            refilled.extend(msg["msgs"])
        real_send(engine, site, msg)

    monkeypatch.setattr(MessageStore, "record", record)
    monkeypatch.setattr(GroupEngine, "_send_flush_msg", send_flush_msg)
    result = _churn_run("tree", 42, "two_phase", [("crash", 1)])
    _check_vs_invariants(result)
    assert refilled
    for env in refilled:
        assert env.encode() == recorded[key(env)]
    assert result["trace"].value("flush.refill_bytes") == \
        sum(len(env.encode()) for env in refilled)


def test_tree_trims_buffers_and_counts():
    """Aggregated stability must actually reclaim buffers in tree mode,
    and the new observability counters must be live."""
    result = _churn_run("tree", 11, "sequencer", [("gbcast", 0)])
    trace = result["trace"]
    assert trace.value("stab.up_sent") > 0
    assert trace.value("stab.dn_sent") > 0
    assert trace.value("tree.relayed") > 0
    for s, stats in result["stats"].items():
        assert stats["buffered_messages"] == 0, (
            f"site {s} still buffers {stats['buffered_messages']}")
        assert stats["kernel.peak_groups_per_shard"] >= 1
        assert stats["tree.fanout"] == 2
        assert stats["tree.depth"] >= 1
        assert stats["fd.buckets"] >= 1
