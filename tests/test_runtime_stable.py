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

from repro import Message
from repro.core.wal import (_delivered_subset, delivered_entries,
                            delivered_set, frame_record, unframe_record)
from repro.msg import make_process_address
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


#: A delivered set: origin -> (floor, extras).  Extras may lie at or
#: below the floor and right above it, as a decoded set's may.
_DELIVERED = st.dictionaries(
    st.integers(0, 3),
    st.tuples(st.integers(0, 12), st.sets(st.integers(0, 16), max_size=6)),
    max_size=4)


@st.composite
def _delivered_pairs(draw):
    """(small, big): ``small`` drawn on its own, or cut down from ``big``
    (lower floors, fewer extras) with at most one gseq more."""
    big = draw(_DELIVERED)
    if draw(st.booleans()):
        return draw(_DELIVERED), big
    small = {}
    for origin, (floor, extras) in big.items():
        if draw(st.booleans()):
            small[origin] = (draw(st.integers(0, floor)),
                             {g for g in extras if draw(st.booleans())})
    if draw(st.booleans()):
        origin = draw(st.integers(0, 3))
        floor, extras = small.get(origin, (0, set()))
        small[origin] = (floor, extras | {draw(st.integers(0, 16))})
    return small, big


def _through_the_log(delivered):
    """``delivered`` as a rejoin's ``g.join`` carries it, read back."""
    address = make_process_address(0, 0, 1)
    join = Message.decode(Message(
        _proto="g.join", gid=address, joiner=address, cred=None,
        wal_dlv=delivered_entries(delivered)).encode())
    return delivered_set(join["wal_dlv"])


def _covers(delivered, origin, gseq):
    entry = delivered.get(origin)
    return entry is not None and (gseq <= entry[0] or gseq in entry[1])


class TestDeliveredSubset:
    @settings(max_examples=400, deadline=None)
    @given(_delivered_pairs())
    def test_matches_the_definition(self, pair):
        """Every gseq ``small`` covers, 1 to its floor and its extras,
        ``big`` covers: the brute-force reading."""
        small, big = pair
        expected = all(_covers(big, origin, gseq)
                       for origin, (floor, extras) in small.items()
                       for gseq in [*range(1, floor + 1), *extras])
        assert _delivered_subset(small, big) == expected

    @settings(max_examples=200, deadline=None)
    @given(_delivered_pairs())
    def test_matches_the_definition_on_decoded_sets(self, pair):
        """The same after the wire: extras kept at or above the floor
        they were written with, not folded into it."""
        small, big = (_through_the_log(
            {o: (f, {g for g in e if g >= f}) for o, (f, e) in d.items()})
            for d in pair)
        expected = all(_covers(big, origin, gseq)
                       for origin, (floor, extras) in small.items()
                       for gseq in [*range(1, floor + 1), *extras])
        assert _delivered_subset(small, big) == expected
