"""Differential properties: tree dissemination vs the flat oracle.

``IsisConfig.dissemination = "tree"`` replaces the *wire topology* —
envelopes, sequencer stamps, and stability traffic relay along a k-ary
spanning tree instead of every sender paying O(n) sends — but must
preserve every virtual synchrony guarantee.  The two modes send
different traffic, so arrival timing (and therefore the interleaving of
concurrent multicasts) legitimately differs.  What must match:

* each mode independently satisfies §2.4 (``conformance.check``);
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

from conformance import Run, check, churn
from repro import IsisConfig
from repro.core.flush import GroupFlush
from repro.core.store import MessageStore

N_SITES = 5


def _conforming(dissemination, seed, mode, script):
    """The churn family on five sites, fanout 2, checked and returned."""
    record = Run(churn(
        seed, script, n_sites=N_SITES, group="td", sends=12,
        config=IsisConfig(dissemination=dissemination, tree_fanout=2,
                          abcast_mode=mode))).play()
    check(record)
    return record


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
    tree = _conforming("tree", seed, mode, script)
    flat = _conforming("flat", seed, mode, script)
    tree_views = tree.final_members()
    flat_views = flat.final_members()
    assert len(tree_views) <= 1 and len(flat_views) <= 1, (
        "sites disagree on the final view within one mode")
    assert tree_views == flat_views, (
        f"final membership diverged: {tree_views} vs {flat_views}")
    assert tree.survivor_sent() == flat.survivor_sent()
    # The tree actually carried traffic (not a silent flat fallback).
    assert tree.trace.value("tree.relayed") > 0


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
    tree = _conforming("tree", 42, mode, script)
    flat = _conforming("flat", 42, mode, script)
    assert tree.final_members() == flat.final_members()
    assert len(tree.final_members()) == 1
    tags = tree.survivor_sent()
    assert tags == flat.survivor_sent()
    # Site 0 sent 12 messages and survived: subtree sites 3 and 4 must
    # have received all of them despite losing their relay.
    for i in range(12):
        kind = "ab" if i % 2 else "cb"
        assert f"s0:{kind}:{i}" in tags
    for s in (3, 4):
        got = {t for t in tree.tags(f"m{s}") if t.startswith("s0:")}
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
    real_send = GroupFlush._send

    def key(env):
        return env["gid"].pack(), env["view"], env["origin"], env["gseq"]

    def record(store, origin, gseq, env):
        new = real_record(store, origin, gseq, env)
        if new:
            assert recorded.setdefault(key(env), env.encode()) == \
                env.encode()
            assert store._messages[(origin, gseq)] is env.encode()
        return new

    def send_flush_msg(flush, site, msg):
        if msg["_proto"] == "g.fl.data":
            refilled.extend(msg["msgs"])
        real_send(flush, site, msg)

    monkeypatch.setattr(MessageStore, "record", record)
    monkeypatch.setattr(GroupFlush, "_send", send_flush_msg)
    record = _conforming("tree", 42, "two_phase", [("crash", 1)])
    assert refilled
    for env in refilled:
        assert env.encode() == recorded[key(env)]
    assert record.trace.value("flush.refill_bytes") == \
        sum(len(env.encode()) for env in refilled)


def test_tree_trims_buffers_and_counts():
    """Aggregated stability must actually reclaim buffers in tree mode,
    and the new observability counters must be live."""
    record = _conforming("tree", 11, "sequencer", [("gbcast", 0)])
    trace = record.trace
    assert trace.value("stab.up_sent") > 0
    assert trace.value("stab.dn_sent") > 0
    assert trace.value("tree.relayed") > 0
    for s, kernel in record.kernels.items():
        stats = kernel.stats()
        assert stats["buffered_messages"] == 0, (
            f"site {s} still buffers {stats['buffered_messages']}")
        assert stats["kernel.peak_groups_per_shard"] >= 1
        assert stats["tree.fanout"] == 2
        assert stats["tree.depth"] >= 1
        assert stats["fd.buckets"] >= 1
