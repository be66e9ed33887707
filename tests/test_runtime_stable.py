"""Unit tests for stable storage semantics and the fault model.

The WAL layer (``repro.core.wal``) stakes its correctness on a handful
of :class:`StableStore` properties: persistence across incarnations,
append ordering, front-truncation, and — with a fault model — the exact
shape of what a crash may do to unsynced writes.  These tests pin those
properties down in isolation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IsisCluster, IsisConfig, Message
from repro.core.kernel import PROTOCOLS
from repro.core.store import SeqSet
from repro.core.wal import frame_record, unframe_record
from repro.msg import make_group_address, make_process_address
from repro.runtime import Cluster
from repro.runtime.stable import StableStore, StorageFaults
from repro.sim import Simulator


def make_store(faults=None, site_id=0):
    sim = Simulator()
    return sim, StableStore(sim, site_id, faults=faults)


class TestBlobSemantics:
    def test_write_commits_after_latency(self):
        sim, store = make_store()
        promise = store.write("k", b"v1")
        assert store.read("k") is None, "write visible before disk latency"
        sim.run(until=1.0)
        assert promise.value is None
        assert store.read("k") == b"v1"

    def test_last_write_wins(self):
        sim, store = make_store()
        store.write("k", b"old")
        store.write("k", b"new")
        sim.run(until=1.0)
        assert store.read("k") == b"new"

    def test_keys_filter_by_prefix(self):
        sim, store = make_store()
        store.write("a/1", b"")
        store.write("a/2", b"")
        store.write("b/1", b"")
        sim.run(until=1.0)
        assert store.keys("a/") == ["a/1", "a/2"]
        store.delete("a/1")
        assert store.keys("a/") == ["a/2"]


class TestLogSemantics:
    def test_append_preserves_order(self):
        sim, store = make_store()
        for i in range(5):
            store.append("log", bytes([i]))
        sim.run(until=1.0)
        assert store.read_log("log") == [bytes([i]) for i in range(5)]
        assert len(store.read_log("log")) == 5

    def test_truncate_drops_the_front(self):
        sim, store = make_store()
        for i in range(5):
            store.append("log", bytes([i]))
        sim.run(until=1.0)
        store.truncate_log("log", 3)
        assert store.read_log("log") == [bytes([3]), bytes([4])]

    def test_replace_log_rewrites_or_removes(self):
        sim, store = make_store()
        store.append("log", b"x")
        sim.run(until=1.0)
        store.replace_log("log", [b"a", b"b"])
        assert store.read_log("log") == [b"a", b"b"]
        store.replace_log("log", [])
        assert store.log_names() == []


class TestCrashSemantics:
    def test_survives_site_restart(self):
        """The store belongs to the site, not the incarnation (§2.2)."""
        sim = Simulator()
        cluster = Cluster(sim, n_sites=1)
        cluster.boot_all()
        site = cluster.site(0)
        site.stable.write("reg", b"payload")
        site.stable.append("log", b"r0")
        sim.run(until=1.0)
        site.crash()
        site.boot()
        assert site.stable.read("reg") == b"payload"
        assert site.stable.read_log("log") == [b"r0"]

    def test_legacy_model_commits_inflight_writes(self):
        """``faults=None``: a write accepted before the crash still
        lands — the historical model existing tools rely on."""
        sim = Simulator()
        cluster = Cluster(sim, n_sites=1)
        cluster.boot_all()
        site = cluster.site(0)
        site.stable.write("k", b"v")
        site.stable.append("log", b"r")
        site.crash()  # before the 20ms disk latency elapsed
        sim.run(until=1.0)
        assert site.stable.read("k") == b"v"
        assert site.stable.read_log("log") == [b"r"]

    def test_lose_unsynced_drops_inflight_writes(self):
        sim = Simulator()
        cluster = Cluster(sim, n_sites=1,
                          storage_faults=StorageFaults(lose_unsynced=True))
        cluster.boot_all()
        site = cluster.site(0)
        site.stable.write("old", b"v")
        sim.run(until=1.0)  # committed
        site.stable.write("new", b"v")
        site.stable.append("log", b"r")
        site.crash()
        sim.run(until=1.0)
        assert site.stable.read("old") == b"v"
        assert site.stable.read("new") is None
        assert site.stable.read_log("log") == []
        assert sim.trace.value("stable.lost_unsynced") == 2

    def test_torn_tail_leaves_checksummed_prefix(self):
        """With ``torn_tail_prob=1`` the oldest in-flight append lands
        as a strict byte-prefix, which the WAL framing must reject."""
        sim, store = make_store(
            faults=StorageFaults(torn_tail_prob=1.0, seed=3))
        framed = frame_record(b"hello world, this is a record body")
        store.append("log", framed)
        store.note_crash()
        sim.run(until=1.0)
        tail = store.read_log("log")
        assert len(tail) == 1
        assert 0 < len(tail[0]) < len(framed)
        assert framed.startswith(tail[0])
        assert unframe_record(tail[0]) is None
        assert sim.trace.value("stable.torn_tails") == 1

    def test_fsync_latency_slows_commits(self):
        sim, store = make_store(
            faults=StorageFaults(lose_unsynced=False, fsync_latency=0.5))
        store.write("k", b"v")
        sim.run(until=0.1)
        assert store.read("k") is None
        sim.run(until=1.0)
        assert store.read("k") == b"v"

    def test_fault_schedule_is_deterministic(self):
        def run(seed):
            sim, store = make_store(
                faults=StorageFaults(torn_tail_prob=0.5, seed=seed))
            cuts = []
            for i in range(20):
                store.append("log", frame_record(b"x" * 40 + bytes([i])))
                store.note_crash()
            sim.run(until=5.0)
            return [len(r) for r in store.read_log("log")]

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestWalFraming:
    def test_roundtrip(self):
        body = b"\x01payload"
        assert unframe_record(frame_record(body)) == body

    @pytest.mark.parametrize("cut", [1, 3, 7, -1])
    def test_any_truncation_detected(self, cut):
        framed = frame_record(b"0123456789abcdef")
        assert unframe_record(framed[:cut]) is None

    def test_corruption_detected(self):
        framed = bytearray(frame_record(b"0123456789abcdef"))
        framed[5] ^= 0xFF
        assert unframe_record(bytes(framed)) is None

    def test_an_overlong_length_is_damage(self):
        """The length is a uvarint of one spelling: a longer one is a
        damaged record, not an exception and not the body."""
        framed = frame_record(b"x")
        assert unframe_record(framed) == b"x"
        assert unframe_record(b"\x81\x00" + framed[1:]) is None


#: A set of (origin, gseq) tags, as a rejoining site's log holds it.
_TAGS = st.sets(st.tuples(st.integers(0, 3), st.integers(1, 16)),
                max_size=24)


@st.composite
def _delivered_pairs(draw):
    """(small, big) as tag sets: ``small`` drawn on its own, or cut down
    from ``big`` with at most one tag more."""
    big = draw(_TAGS)
    if draw(st.booleans()):
        return draw(_TAGS), big
    small = {tag for tag in big if draw(st.booleans())}
    if draw(st.booleans()):
        small.add((draw(st.integers(0, 3)), draw(st.integers(1, 16))))
    return small, big


def _seqset(tags):
    out = SeqSet()
    for origin, gseq in tags:
        out.add(origin, gseq)
    return out


def _through_the_log(delivered):
    """``delivered`` as a rejoin's ``g.join`` carries it, read back by
    the row."""
    address = make_process_address(0, 0, 1)
    join = Message.decode(Message(
        _proto="g.join", gid=address, joiner=address, cred=None, wal_view=1,
        wal_dlv=delivered.entries()).encode())
    return PROTOCOLS["g.join"].read(join)[5]


class TestDeliveredSubset:
    @settings(max_examples=400, deadline=None)
    @given(_delivered_pairs())
    def test_matches_the_definition(self, pair):
        """Every tag ``small`` holds, ``big`` holds: the brute-force
        reading."""
        small, big = pair
        expected = all((origin, gseq) in big for origin, gseq in small)
        assert (_seqset(small) <= _seqset(big)) == expected

    @settings(max_examples=200, deadline=None)
    @given(_delivered_pairs())
    def test_matches_the_definition_on_decoded_sets(self, pair):
        """The same after the wire, which carries the one spelling."""
        small, big = (_through_the_log(_seqset(tags)) for tags in pair)
        expected = all((origin, gseq) in big for origin, gseq in pair[0])
        assert (small <= big) == expected
        assert small.entries() == _seqset(pair[0]).entries()


class TestCheckpointSpelling:
    """A checkpoint's delivered sets are read at boot in their one
    spelling; any other makes it a bad checkpoint, and the site boots
    without it."""

    @pytest.mark.parametrize("delivered, bad", [
        ([[0, 2, [4]], [2, 0, [3]]], False),
        ([[0, 2, [3]]], True),                      # 3 raises the floor
        ([[0, 2, [4, 4]]], True),                   # a gseq repeated
        ([[0, 2, []], [0, 3, []]], True),           # an origin repeated
        ([[1, 0, []]], True),                       # an empty entry
    ])
    def test_boot_reads_the_one_spelling(self, delivered, bad):
        system = IsisCluster(n_sites=2, seed=3,
                             isis_config=IsisConfig(durability=True))
        system.run_for(1.0)
        gid = make_group_address(0, 42)
        ck = Message(_proto="wal.ck", gen=0, view=2, members=[],
                     delivered=delivered, total=3, base_view=2,
                     base_delivered=[], has_state=False, name="g",
                     segments={})
        system.site(1).stable.write("wal/ck/" + gid.pack().hex(), ck.encode())
        system.run_for(1.0)
        system.crash_site(1)
        system.restart_site(1)
        system.run_for(1.0)
        kernel = system.kernel(1)
        assert kernel.alive
        assert system.sim.trace.value("recovery.bad_checkpoints") == bad
        gw = kernel.wal.lookup(gid)
        if bad:
            assert gw.ck.view == 0 and gw.ck.delivered.entries() == []
            assert kernel.wal.logged_position("g") is None
        else:
            assert gw.ck.delivered.entries() == delivered
            assert kernel.wal.logged_position("g") == (2, 3)
