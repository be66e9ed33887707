"""Unit tests for the delivery pipeline: batching, stability, stats."""

import pytest

import reference_causal as reference
from reference_causal import VectorClock
from repro import IsisCluster, IsisConfig, Message
from repro.core import pipeline as pipeline_mod
from repro.core import stability as stability_mod
from repro.core.tree import SpanningTree
from repro.core.vectorclock import ContextEncoder
from repro.msg import make_group_address, make_process_address
from repro.msg.fields import decode_stab, encode_stab
from repro.msg.message import unpack_batch
from repro.sim.tasks import Promise


def _two_member_group(config, n_sites=2, seed=31, field="tag"):
    system = IsisCluster(n_sites=n_sites, seed=seed, isis_config=config)
    deliveries = {s: [] for s in range(n_sites)}
    members = []
    for site in range(n_sites):
        proc, isis = system.spawn(site, f"m{site}")
        proc.bind(16, lambda msg, s=site: deliveries[s].append(msg[field]))
        members.append((proc, isis))

    def create():
        yield members[0][1].pg_create("pipe")

    members[0][0].spawn(create(), "create")
    system.run_for(3.0)
    for i in range(1, n_sites):
        def join(isis=members[i][1]):
            gid = yield isis.pg_lookup("pipe")
            yield isis.pg_join(gid)

        members[i][0].spawn(join(), f"join{i}")
        system.run_for(20.0)
    return system, members, deliveries


def _burst(system, members, idx, count, concurrency=4):
    def stream(stream_no):
        gid = yield members[idx][1].pg_lookup("pipe")
        for i in range(count):
            yield members[idx][1].cbcast(
                gid, 16, tag=f"t{stream_no}.{i}", payload=bytes(100))

    for stream_no in range(concurrency):
        members[idx][0].spawn(stream(stream_no), f"s{stream_no}")


class TestBatchingWireBehavior:
    def test_zero_window_sends_no_batches(self):
        """``batch_window=0`` preserves one-envelope-per-message exactly."""
        system, members, deliveries = _two_member_group(
            IsisConfig(batch_window=0.0))
        _burst(system, members, 0, 10)
        system.run_for(20.0)
        assert system.sim.trace.value("batch.sent") == 0
        assert system.sim.trace.value("batch.envelopes") == 0
        assert system.kernel(0).stats()["batches_sent"] == 0
        assert len(deliveries[1]) == 40

    def test_window_coalesces_envelopes(self):
        system, members, deliveries = _two_member_group(
            IsisConfig(batch_window=0.010))
        _burst(system, members, 0, 10)
        system.run_for(20.0)
        stats = system.kernel(0).stats()
        assert stats["batches_sent"] > 0
        assert stats["envelopes_batched"] == 40
        # Coalescing actually happened: fewer wire messages than envelopes.
        assert stats["batches_sent"] < stats["envelopes_batched"]
        assert stats["batch_pending"] == 0
        assert len(deliveries[1]) == 40
        # No reordering within a sender despite coalescing.
        for stream_no in range(4):
            seq = [int(t.split(".")[1]) for t in deliveries[1]
                   if t.startswith(f"t{stream_no}.")]
            assert seq == sorted(seq)

    def test_max_bytes_flushes_before_window(self, monkeypatch):
        """A buffer hitting ``BATCH_MAX_BYTES`` does not wait the window."""
        monkeypatch.setattr(pipeline_mod, "BATCH_MAX_BYTES", 2000)
        config = IsisConfig(batch_window=5.0)
        system, members, deliveries = _two_member_group(config)

        def stream():
            gid = yield members[0][1].pg_lookup("pipe")
            for i in range(8):
                yield members[0][1].cbcast(gid, 16, tag=f"big.{i}",
                                           payload=bytes(900))

        members[0][0].spawn(stream(), "big")
        # Well inside the 5 s window: deliveries only happen because the
        # byte cap forced flushes.
        system.run_for(3.0)
        assert len(deliveries[1]) >= 4
        assert system.sim.trace.value("batch.sent") >= 2

    def test_wedge_drains_batch_buffers(self):
        """A flush (here: a join) pushes out buffered envelopes."""
        config = IsisConfig(batch_window=5.0)  # would idle past the test
        system, members, deliveries = _two_member_group(config)

        def send_then_join():
            gid = yield members[0][1].pg_lookup("pipe")
            yield members[0][1].cbcast(gid, 16, tag="pre-join")

        members[0][0].spawn(send_then_join(), "send")
        system.run_for(0.1)  # buffered, window far away
        late, late_isis = system.spawn(1, "late")
        late.bind(16, lambda msg: None)

        def join():
            gid = yield late_isis.pg_lookup("pipe")
            yield late_isis.pg_join(gid)

        late.spawn(join(), "join")
        system.run_for(30.0)
        assert [m for m in deliveries[1]] == ["pre-join"]
        assert system.kernel(0).stats()["batch_pending"] == 0

    def test_one_buffer_serves_every_peer(self, monkeypatch):
        """Flat, an envelope is packed once however many peers there are,
        and every peer gets every batch."""
        received = {site: 0 for site in range(4)}
        ingest = pipeline_mod.DeliveryPipeline.ingest_batch

        def counted(pipeline, src_site, record):
            received[pipeline.engine.site_id] += 1
            ingest(pipeline, src_site, record)

        monkeypatch.setattr(pipeline_mod.DeliveryPipeline, "ingest_batch",
                            counted)
        system, members, deliveries = _two_member_group(
            IsisConfig(batch_window=0.010), n_sites=4)
        _burst(system, members, 0, 10)
        system.run_for(20.0)
        stats = system.kernel(0).stats()
        assert stats["envelopes_batched"] == 40
        assert 0 < stats["batches_sent"] < 40
        assert received == {0: 0, 1: stats["batches_sent"],
                            2: stats["batches_sent"],
                            3: stats["batches_sent"]}
        assert all(len(deliveries[s]) == 40 for s in range(4))

    def test_tree_batches_relay_and_fall_back_flat_when_wedged(self):
        """Tree mode: a batch goes down the sender's tree; one still
        buffered when a join wedges the group goes flat, and every
        member delivers every envelope once."""
        config = IsisConfig(dissemination="tree", tree_fanout=2,
                            batch_window=5.0)
        system, members, deliveries = _two_member_group(config, n_sites=4)
        trace = system.sim.trace
        _burst(system, members, 0, 3)
        system.run_for(10.0)                # the window expires
        assert trace.value("tree.relayed") > 0
        assert trace.value("tree.flat_fallbacks") == 0
        assert all(len(deliveries[s]) == 12 for s in range(4))

        def burst():
            gid = yield members[0][1].pg_lookup("pipe")
            for i in range(5):
                yield members[0][1].cbcast(gid, 16, tag=f"w.{i}")

        members[0][0].spawn(burst(), "burst")
        system.run_for(1.0)                 # buffered, window far away
        assert system.kernel(0).stats()["batch_pending"] == 5
        late, late_isis = system.spawn(2, "late")
        late.bind(16, lambda msg: None)

        def join():
            gid = yield late_isis.pg_lookup("pipe")
            yield late_isis.pg_join(gid)

        late.spawn(join(), "join")
        system.run_for(30.0)
        assert trace.value("tree.flat_fallbacks") > 0
        assert system.kernel(0).stats()["batch_pending"] == 0
        for site in range(4):
            tags = deliveries[site]
            assert len(tags) == len(set(tags)) == 17
            assert {f"w.{i}" for i in range(5)} <= set(tags)


class TestPiggybackedStability:
    def test_trim_advances_without_rounds(self, monkeypatch):
        monkeypatch.setattr(stability_mod, "STAB_ANNOUNCE_EVERY", 8)
        # rounds never fire
        monkeypatch.setattr(stability_mod, "STABILITY_INTERVAL", 1e9)
        config = IsisConfig(batch_window=0.010)
        system, members, _ = _two_member_group(config, n_sites=3)
        _burst(system, members, 0, 20)
        system.run_for(30.0)
        assert system.sim.trace.value("stability.piggyback_trimmed") > 0
        for site in range(3):
            stats = system.kernel(site).stats()
            assert stats["buffered_messages"] == 0
            assert stats["buffered_bytes"] == 0
            assert stats["trimmed_messages"] > 0

    def test_fallback_round_skipped_under_traffic(self, monkeypatch):
        """Flat, while piggybacks trim the wave's pushes are skipped; once
        the traffic stops the wave collects what they left behind."""
        monkeypatch.setattr(stability_mod, "STAB_ANNOUNCE_EVERY", 8)
        config = IsisConfig(batch_window=0.010)
        system, members, _ = _two_member_group(config, n_sites=3)

        def stream(stop):
            gid = yield members[0][1].pg_lookup("pipe")
            i = 0
            while not stop["done"]:
                yield members[0][1].cbcast(gid, 16, tag=f"x.{i}")
                i += 1

        stop = {"done": False}
        for _ in range(3):
            members[0][0].spawn(stream(stop), "stream")
        system.run_for(30.0)
        stop["done"] = True
        assert system.sim.trace.value("stability.round_skipped") > 0
        system.run_for(30.0)
        for site in range(3):
            assert system.kernel(site).stats()["buffered_messages"] == 0

    def test_skipped_push_is_made_once_piggybacks_go_quiet(self, monkeypatch):
        """A leaf that piggybacks emptied has told the root nothing: its
        skipped push waits for the gate to open, not for more traffic."""
        monkeypatch.setattr(stability_mod, "STAB_ANNOUNCE_EVERY", 10 ** 9)
        system, members, _ = _two_member_group(IsisConfig(), n_sites=3)
        _burst(system, members, 0, 5)       # from the root, between ticks
        system.run_for(0.5)
        engines = [next(iter(system.kernel(site).engines.values()))
                   for site in range(3)]
        assert [e.store.have_vector() for e in engines] == [{0: 20}] * 3
        assert system.kernel(1).counters.value("stab.up_sent") == 0
        view_id = engines[1].view.view_id
        for src in (0, 2):                  # what the others say they have
            system.kernel(1)._dispatch(src, Message(
                _proto="g.stab.a", gid=engines[1].gid,
                stab=encode_stab(view_id, (0, 0), {0: 20})))
        assert engines[1].store.buffered_count == 0
        assert engines[0].store.buffered_count == 20
        system.run_for(10.0)
        assert system.kernel(1).counters.value("stab.up_sent") == 1
        assert [e.store.buffered_count for e in engines] == [0, 0, 0]

    @pytest.mark.parametrize("dissemination", ["flat", "tree"])
    def test_piggyback_off_still_trims_via_the_wave(self, dissemination):
        config = IsisConfig(piggyback_stability=False,
                            dissemination=dissemination, tree_fanout=2)
        system, members, _ = _two_member_group(config, n_sites=4)
        _burst(system, members, 0, 10)
        system.run_for(30.0)  # several stability intervals
        trace = system.sim.trace
        assert trace.value("stability.piggyback_trimmed") == 0
        assert trace.value("stability.round_skipped") == 0
        assert trace.value("stab.up_sent") > 0
        assert trace.value("stability.cut_trimmed") > 0
        for site in range(4):
            assert system.kernel(site).stats()["buffered_messages"] == 0


def _tap_wire(system, n_sites):
    """Every message a kernel hands to ``send_to_site`` from now on."""
    sent = []
    for site in range(n_sites):
        kernel = system.kernel(site)

        def tapped(dst_site, msg, send=kernel.send_to_site):
            sent.append(msg)
            return send(dst_site, msg)

        kernel.send_to_site = tapped
    return sent


class TestStabilityRidesOnData:
    """The piggyback is one blob on data envelopes; the ordering notes
    an ABCAST waits for carry none, and nobody's buffers notice."""

    #: Bytes on the ABCAST critical path, 4 members, 200 B payload sent
    #: as ``bench/harness.py`` sends it.  With ``stab`` / ``stab_view`` /
    #: ``stab_df`` on every message these read 483 / 169 / 169; in the
    #: symbol-table form (field names, 8-byte ints) 426 / 93 / 93; in the
    #: positional form 315 / 16 / 16.
    AB_BUDGET = 320
    NOTE_BUDGET = 20

    @pytest.mark.parametrize("mode", ["two_phase", "sequencer"])
    def test_abcast_wire_budget(self, mode):
        system, members, deliveries = _two_member_group(
            IsisConfig(abcast_mode=mode), n_sites=4, field="n")
        sent = _tap_wire(system, 4)

        def stream(isis, base):
            gid = yield isis.pg_lookup("pipe")
            for i in range(40):      # past the warm-up: floors, 2-byte gseqs
                yield isis.abcast(gid, 16, 0, n=base + i, p=bytes(200))

        for idx in (1, 2):
            members[idx][0].spawn(stream(members[idx][1], 1000 * idx), "ab")
        system.run_for(30.0)
        assert all(len(deliveries[s]) == 80 for s in range(4))
        sizes = {}
        for msg in sent:
            proto = msg["_proto"]
            sizes[proto] = max(sizes.get(proto, 0), msg.size_bytes)
            if proto in ("g.abp", "g.abf", "g.abs"):
                assert not [name for name in msg if name.startswith("stab")]
        assert sizes["g.ab"] <= self.AB_BUDGET, sizes
        if mode == "two_phase":
            assert sizes["g.abp"] <= self.NOTE_BUDGET, sizes
            assert sizes["g.abf"] <= self.NOTE_BUDGET, sizes
        else:
            assert "g.abs" in sizes

    @pytest.mark.parametrize("mode", ["two_phase", "sequencer"])
    def test_single_sender_abcast_buffers_stay_bounded(self, mode):
        """Three receive-only sites: the sender learns their vectors from
        their announcements alone (it used to read them off ``g.abp``)."""
        window, total = 4, 200
        system, members, deliveries = _two_member_group(
            IsisConfig(abcast_mode=mode), n_sites=4, field="n")
        proc, isis = members[1]
        (engine,) = system.kernel(1).engines.values()
        box = {"next": 0, "peak": 0}

        def send():
            if box["next"] < total:
                box["next"] += 1
                isis.abcast(box["gid"], 16, 0, n=box["next"], p=bytes(200))

        def delivered(msg):          # closed loop: one out, one in
            deliveries[1].append(msg["n"])
            box["peak"] = max(box["peak"], engine.store.buffered_count)
            send()

        proc.bind(16, delivered)

        def start():
            box["gid"] = yield isis.pg_lookup("pipe")
            for _ in range(window):
                send()

        proc.spawn(start(), "start")
        system.run_for(60.0)
        assert all(len(deliveries[s]) == total for s in range(4))
        assert 0 < box["peak"] <= (2 * stability_mod.STAB_ANNOUNCE_EVERY
                                   + window)
        for site in range(4):
            assert system.kernel(site).stats()["buffered_messages"] == 0


def test_previous_views_final_moves_no_priority_of_the_new_view():
    """Refs ``(origin, gseq)`` restart in every view, and a final its
    origin sent just before the flush travels on another channel than
    the commit: it can arrive after the install, naming the new view's
    message of the same ref.  It is counted and refused."""
    system, _, _ = _two_member_group(IsisConfig(), n_sites=3, field="n")
    kernel = system.kernel(1)
    (engine,) = kernel.engines.values()
    view_id = engine.view.view_id
    assert view_id > 1
    receiver = engine.total
    kernel._dispatch(0, Message(
        _proto="g.ab", gid=engine.gid, view=view_id, origin=0, gseq=1,
        m=Message(n=0), entry=16, ab_sender=make_process_address(0, 0, 9)))

    def priorities():
        return {ref: (entry.priority, entry.final)
                for ref, entry in receiver._queue.items()}

    before = priorities()
    assert before[(0, 1)][1] is False           # proposed, not final
    kernel._dispatch(0, Message(_proto="g.abf", gid=engine.gid,
                                view=view_id - 1, ref=[0, 1], prio=[99, 0]))
    kernel._dispatch(2, Message(_proto="g.abp", gid=engine.gid,
                                view=view_id - 1, ref=[1, 1], prio=[99, 2]))
    assert priorities() == before
    assert system.sim.trace.value("abcast.stale_notes") == 2


def _send(member, kind, tags):
    """``member`` sends one ``kind`` multicast per tag to ``pipe``."""
    proc, isis = member

    def run():
        gid = yield isis.pg_lookup("pipe")
        for tag in tags:
            yield getattr(isis, kind)(gid, 16, tag=tag)

    proc.spawn(run(), f"{kind}-{tags[0]}")


def _holding(kernel, proto, held):
    """``kernel`` keeps each ``proto`` message that arrives in ``held``
    instead of handling it, until ``del kernel._dispatch``."""
    dispatch = kernel._dispatch

    def hold(src_site, msg):
        if msg.get("_proto") == proto:
            held.append((src_site, msg))
        else:
            dispatch(src_site, msg)

    kernel._dispatch = hold


def _order_state(stage):
    """What a total-order stage knows: its queue, its book, its floor."""
    return stage.pending_state(), dict(stage.delivered), stage.delivery_floor


@pytest.mark.parametrize("mode, protos", [
    ("two_phase", ["g.abs"]),
    ("sequencer", ["g.abp", "g.abf"]),
])
def test_the_other_modes_notes_are_noise(mode, protos):
    """The mode is cluster-wide configuration, so a note of the other
    mode is a misconfiguration: counted, and nothing moves."""
    system, members, _ = _two_member_group(
        IsisConfig(abcast_mode=mode), n_sites=3)
    _send(members[0], "abcast", ["a", "b"])
    system.run_for(5.0)
    kernel = system.kernel(1)
    (engine,) = kernel.engines.values()
    view_id = engine.view.view_id
    # One ABCAST queued here that nothing will order.
    kernel._dispatch(2, Message(
        _proto="g.ab", gid=engine.gid, view=view_id, origin=2, gseq=1000,
        m=Message(tag="q"), entry=16,
        ab_sender=make_process_address(2, 0, 9)))
    before = _order_state(engine.total)
    assert before[0] and before[2] > (0, 0)
    delivered = system.sim.trace.value("deliver.group")
    for proto in protos:
        note = (Message(_proto=proto, gid=engine.gid, view=view_id,
                        stamps=[[2, 1000, 1]]) if proto == "g.abs" else
                Message(_proto=proto, gid=engine.gid, view=view_id,
                        ref=[2, 1000], prio=[99, 0]))
        kernel._dispatch(0, note)
    assert system.sim.trace.value("abcast.unexpected_control") == len(protos)
    assert _order_state(engine.total) == before
    assert system.sim.trace.value("deliver.group") == delivered


@pytest.mark.parametrize("mode, proto, counter", [
    ("two_phase", "g.abf", "abcast.wedged_finals_dropped"),
    ("sequencer", "g.abs", "abcast.wedged_stamps_dropped"),
])
def test_order_arriving_while_wedged_is_dropped_and_the_cut_settles_it(
        mode, proto, counter):
    """Site 1 misses the order of an ABCAST the others deliver, and it
    arrives once a flush has wedged the group: it is dropped (our report
    already went out), and the cut delivers the ref everywhere once."""
    system, members, deliveries = _two_member_group(
        IsisConfig(abcast_mode=mode), n_sites=3)
    kernel = system.kernel(1)
    (engine,) = kernel.engines.values()
    held = []
    _holding(kernel, proto, held)
    _send(members[0], "abcast", ["a"])
    system.run_for(2.0)
    assert held and deliveries == {0: ["a"], 1: [], 2: ["a"]}
    before = _order_state(engine.total)
    _send(members[0], "gbcast", ["g"])
    for _ in range(5000):
        if engine.wedged:
            break
        system.run_for(0.001)
    assert engine.wedged
    del kernel._dispatch
    dropped = system.sim.trace.value(counter)
    for src_site, msg in held:
        kernel._dispatch(src_site, msg)
    assert system.sim.trace.value(counter) == dropped + len(held)
    assert _order_state(engine.total) == before
    system.run_for(20.0)
    assert deliveries == {site: ["a", "g"] for site in range(3)}


def test_stamps_ahead_of_the_install_apply_at_install():
    """Site 1 installs a view late: the token's stamps for it arrive
    first and are held, then applied when the view installs, and the
    view's ABCASTs deliver there in stamp order, each once."""
    system, members, deliveries = _two_member_group(
        IsisConfig(abcast_mode="sequencer"), n_sites=3)
    kernel = system.kernel(1)
    (engine,) = kernel.engines.values()
    old_view = engine.view.view_id
    held = []
    _holding(kernel, "g.fl.commit", held)
    _send(members[0], "gbcast", ["g"])
    system.run_for(5.0)
    assert held and engine.view.view_id == old_view
    for sender in (0, 2):
        _send(members[sender], "abcast", [f"{sender}.{i}" for i in range(4)])
    system.run_for(5.0)
    assert engine.total._future_stamps and deliveries[1] == []
    del kernel._dispatch
    for src_site, msg in held:
        kernel._dispatch(src_site, msg)
    system.run_for(10.0)
    assert engine.view.view_id == old_view + 1
    assert engine.total._future_stamps == []
    assert len(deliveries[0]) == 9 and len(set(deliveries[0])) == 9
    assert deliveries[1] == deliveries[0] == deliveries[2]


def _stab_notes(sent, proto):
    """The decoded blobs of the ``proto`` notes among ``sent``."""
    return [decode_stab(bytes(msg["stab"])) for msg in sent
            if msg["_proto"] == proto]


def _quiet_wave_group(monkeypatch, dissemination, n_sites=4):
    """A group whose stability ticks never fire: 20 messages from site 0
    buffered everywhere, and no ``g.stab.*`` note unless a test sends it.
    Returns the system, site 0's engine (the collection root) and the
    collection tree."""
    monkeypatch.setattr(stability_mod, "STABILITY_INTERVAL", 1e9)
    system, members, _ = _two_member_group(
        IsisConfig(piggyback_stability=False, dissemination=dissemination,
                   tree_fanout=2), n_sites=n_sites)
    _burst(system, members, 0, 5)
    system.run_for(10.0)
    (engine,) = system.kernel(0).engines.values()
    assert engine.view.members[0].site == 0
    assert engine.store.have_vector() == {0: 20}
    assert engine.store.buffered_count == 20
    sites = engine.view.member_sites()
    fanout = len(sites) if dissemination == "flat" else 2
    return system, engine, SpanningTree(sites, fanout)


def _up(engine, have, n, view_id=None):
    """A ``g.stab.up`` for ``engine``'s group."""
    view_id = engine.view.view_id if view_id is None else view_id
    return Message(_proto="g.stab.up", gid=engine.gid,
                   stab=encode_stab(view_id, (0, 0), have), n=n)


class TestStabilityRound:
    """The one collector: ``g.stab.up`` climbs the collection tree, the
    root cuts.  Flat, that tree is one level deep (every member a leaf);
    the tests run on it and on a fanout-2 dissemination tree."""

    @pytest.mark.parametrize("dissemination", ["flat", "tree"])
    def test_cut_waits_for_every_member_despite_outsiders(
            self, monkeypatch, dissemination):
        """A report from a site outside the view (just removed, not yet
        installed) must neither complete the cut nor stand in for a
        member that has not reported."""
        system, engine, tree = _quiet_wave_group(monkeypatch, dissemination)
        children = tree.children(0, 0)
        assert len(children) == (3 if dissemination == "flat" else 2)
        sent = _tap_wire(system, 4)
        first, *rest = children
        engine.kernel._dispatch(
            first, _up(engine, {0: 4}, tree.subtree_size(0, first)))
        engine.kernel._dispatch(9, _up(engine, {0: 1, 7: 9}, 1))
        assert system.sim.trace.value("stability.refused_up") == 1
        for child in rest:
            assert _stab_notes(sent, "g.stab.dn") == []
            engine.kernel._dispatch(
                child, _up(engine, {0: 3}, tree.subtree_size(0, child)))
        # One cut per child, the view's and the members' minimum on it.
        assert _stab_notes(sent, "g.stab.dn") == [
            (engine.view.view_id, (0, 0), {0: 3})] * len(children)

    @pytest.mark.parametrize("dissemination", ["flat", "tree"])
    def test_previous_views_report_and_cut_change_nothing(
            self, monkeypatch, dissemination):
        """gseq counters restart in every view: a late ``g.stab.up`` or
        cut of the previous one is counted and refused — it neither
        completes the cut nor trims, and says nothing about its sender."""
        system, engine, tree = _quiet_wave_group(monkeypatch, dissemination)
        stage = engine.pipeline.stability
        view_id = engine.view.view_id
        assert view_id > 1
        *first, last = tree.children(0, 0)
        have = engine.store.have_vector()
        for child in first:
            engine.kernel._dispatch(
                child, _up(engine, have, tree.subtree_size(0, child)))
        size = tree.subtree_size(0, last)
        engine.kernel._dispatch(last, _up(engine, have, size, view_id - 1))
        engine.kernel._dispatch(last, Message(
            _proto="g.stab.dn", gid=engine.gid,
            stab=encode_stab(view_id - 1, (0, 0), have)))
        assert engine.store.buffered_count == 20
        assert last not in stage._child_up
        assert stage._peer_have == {}
        assert system.sim.trace.value("stability.stale_note") == 2
        # The same report about this view does complete the cut and trim.
        engine.kernel._dispatch(last, _up(engine, have, size))
        assert engine.store.buffered_count == 0
        assert system.sim.trace.value("stability.stale_note") == 2

    @pytest.mark.parametrize("dissemination", ["flat", "tree"])
    def test_forged_subtree_size_does_not_cut_early(
            self, monkeypatch, dissemination):
        """``n`` is outside input the root adds up: a child claiming the
        whole group, or a site reporting to someone not its parent, must
        not make the root cut before every subtree has reported — the
        cut could trim what some member lacks and the flush then could
        not refill it."""
        system, engine, tree = _quiet_wave_group(
            monkeypatch, dissemination, n_sites=8)
        sent = _tap_wire(system, 8)
        children = tree.children(0, 0)
        others = [s for s in tree.sites if s != 0 and s not in children]
        assert len(others) == (0 if dissemination == "flat" else 5)
        have = engine.store.have_vector()
        engine.kernel._dispatch(children[0], _up(engine, have, len(tree) - 1))
        for site in others:                 # not the root's children
            engine.kernel._dispatch(site, _up(engine, have, 1))
        for child in children:
            assert _stab_notes(sent, "g.stab.dn") == []
            assert engine.store.buffered_count == 20
            engine.kernel._dispatch(
                child, _up(engine, have, tree.subtree_size(0, child)))
        assert engine.store.buffered_count == 0
        assert len(_stab_notes(sent, "g.stab.dn")) == len(children)
        assert system.sim.trace.value("stability.refused_up") \
            == 1 + len(others)

    @pytest.mark.parametrize("dissemination", ["flat", "tree"])
    def test_cut_never_names_more_than_a_member_has(self, dissemination):
        """Whenever the root sends a cut, every member already holds all
        it names: the cut trims nothing the flush might have to refill."""
        system, members, _ = _two_member_group(
            IsisConfig(piggyback_stability=False, batch_window=0.010,
                       dissemination=dissemination, tree_fanout=2),
            n_sites=6)
        engines = [next(iter(system.kernel(site).engines.values()))
                   for site in range(6)]
        root = system.kernel(0)
        cuts = []

        def tapped(dst_site, msg, send=root.send_to_site):
            if msg["_proto"] == "g.stab.dn":
                _, _, stable = decode_stab(bytes(msg["stab"]))
                cuts.append(stable)
                for engine in engines:
                    have = engine.store.have_vector()
                    assert all(top <= have.get(origin, 0)
                               for origin, top in stable.items())
            return send(dst_site, msg)

        root.send_to_site = tapped
        for idx in (0, 2, 5):
            _burst(system, members, idx, 15, concurrency=2)
        system.run_for(1.5)
        for idx in (1, 3):
            _burst(system, members, idx, 10, concurrency=2)
        system.run_for(30.0)
        assert len(cuts) > 1
        assert cuts[-1] == {site: 30 if site in (0, 2, 5) else 20
                            for site in (0, 1, 2, 3, 5)}

    def test_cut_is_refused_while_wedged(self):
        system, members, _ = _two_member_group(
            IsisConfig(piggyback_stability=False), n_sites=2)
        _burst(system, members, 0, 5)
        system.run_for(1.0)
        (engine,) = system.kernel(1).engines.values()
        buffered = engine.store.buffered_count
        assert buffered
        cut = Message(_proto="g.stab.dn", gid=engine.gid,
                      stab=encode_stab(engine.view.view_id, (0, 0),
                                       engine.store.have_vector()))
        engine.wedged = True
        engine.kernel._dispatch(0, cut)
        assert engine.store.buffered_count == buffered
        engine.wedged = False
        engine.kernel._dispatch(0, cut)
        assert engine.store.buffered_count == 0


class TestStabilityWireBudget:
    """A have-vector reaches the wire one way: every stability note and
    the flush's union cut are a few varints, whoever sends them."""

    #: 4 member sites, every one an origin, floors past their first byte:
    #: a note reads 23-24 B positionally, 62-63 B as a symbol table.
    NOTE_BUDGET = 28
    EXPECT_BUDGET = 104
    LOOSE_FIELDS = {"have", "stable", "union", "stab_view", "df"}

    @pytest.mark.parametrize("piggyback", [True, False])
    def test_notes_and_union_cut_within_budget(self, monkeypatch, piggyback):
        """On: receive-side announcements (``g.stab.a``, unsolicited).
        Off: the collection wave (``g.stab.up`` to the root, the cut).
        Either way a crash whose last sends reached only some survivors
        makes the flush send its union cut."""
        monkeypatch.setattr(stability_mod, "STAB_ANNOUNCE_EVERY", 8)
        system, members, deliveries = _two_member_group(
            IsisConfig(piggyback_stability=piggyback), n_sites=4, field="n")
        sent = _tap_wire(system, 4)

        def stream(isis, base, kind):
            gid = yield isis.pg_lookup("pipe")
            for i in range(40):
                yield isis.bcast(gid, 16, kind=kind, n=base + i, p=bytes(64))

        def burst(base):
            for idx in range(4):
                members[idx][0].spawn(
                    stream(members[idx][1], base + 1000 * idx,
                           "abcast" if idx % 2 else "cbcast"), "mix")

        burst(0)
        system.run_for(20.0)
        burst(10_000)
        system.run_for(1.0)
        send = system.kernel(3).send_to_site    # site 2 misses the last ones
        system.kernel(3).send_to_site = (
            lambda dst, msg: Promise() if dst == 2 else send(dst, msg))
        system.run_for(0.2)
        system.crash_site(3)
        system.run_for(60.0)
        assert len({tuple(sorted(deliveries[s])) for s in range(3)}) == 1
        sizes = {}
        for msg in sent:
            proto = msg["_proto"]
            if proto.startswith(("g.stab.", "g.fl.")):
                sizes[proto] = max(sizes.get(proto, 0), msg.size_bytes)
                assert not self.LOOSE_FIELDS & set(msg), (proto, list(msg))
            if proto.startswith("g.stab."):
                assert [n for n in msg if n not in ("_proto", "gid")] == (
                    ["stab", "n"] if proto == "g.stab.up" else ["stab"]), \
                    (proto, list(msg))
                assert msg.size_bytes <= self.NOTE_BUDGET, (proto, sizes)
        assert "g.stab.trim" not in sizes and "g.stab.q" not in sizes
        assert "g.stab.a" in sizes
        if not piggyback:
            assert "g.stab.up" in sizes and "g.stab.dn" in sizes
        assert sizes["g.fl.expect"] <= self.EXPECT_BUDGET, sizes

    def test_batch_carries_the_senders_full_vector(self):
        """No per-destination delta: every batch says all the sender has."""
        system, members, _ = _two_member_group(
            IsisConfig(batch_window=0.010), n_sites=3)
        kernel = system.kernel(0)
        (engine,) = kernel.engines.values()
        seen = []

        def tapped(dst_site, msg, send=kernel.send_to_site):
            if msg["_proto"] == "g.batch":
                seen.append((msg, engine.store.have_vector()))
            return send(dst_site, msg)

        _burst(system, members, 1, 10)      # an origin that then stands still
        system.run_for(20.0)
        kernel.send_to_site = tapped
        _burst(system, members, 0, 10)
        system.run_for(20.0)
        assert len(seen) > 4 and all(have[1] == 40 for _, have in seen)
        view_id = engine.view.view_id
        for batch, have in seen:
            assert bytes(batch["stab"]) == encode_stab(view_id, (0, 0), have)
            _, stab = unpack_batch(Message.decode(batch.encode()))
            assert stab == (view_id, (0, 0), have)


class TestCausalContextWireBudget:
    """A chained ``cb_ctx`` names what its predecessor holds by position
    and a member by its rank in the view: a moved counter is two bytes,
    not an 8-byte address and a varint, and no context carries a member
    address."""

    @staticmethod
    def _chain(n_groups, moves, base=(5, 6, 7, 8)):
        """Bytes of the chain head and of the ``cb_ctx`` after it, when
        ``moves`` says which of a group's 4 members delivered since."""
        members = tuple(make_process_address(s, 0, 1) for s in range(4))
        encoder = ContextEncoder({})
        return [len(encoder.encode(reference.context_rows({
            make_group_address(0, g + 1): (3, members, VectorClock(
                dict(zip(members, counts))))
            for g in range(n_groups)})))
            for counts in (base, [c + m for c, m in zip(base, moves)])]

    def test_every_counter_of_32_groups_moved(self):
        """``sim-groups``: a sender round-robins over its 32 groups, so
        between two of its sends in one group all 128 counters moved."""
        head, steady = self._chain(32, [5, 6, 7, 8])
        assert head <= 450                  # 1 474 with member addresses
        assert steady <= 330                # 356 with a gained-count byte

    def test_one_counter_of_one_group_moved(self):
        assert self._chain(1, [0, 0, 1, 0])[1] <= 10        # was 22

    def test_a_gained_member_costs_a_rank_and_a_count(self):
        """A member's first delivery in the view is a moved counter like
        any other: 2 bytes, where its address and count were 9."""
        base = (5, 6, 0, 0)
        one = self._chain(1, [0, 0, 1, 0], base)[1]
        assert self._chain(1, [0, 0, 1, 1], base)[1] - one == 2


class TestKernelStats:
    def test_stats_shape_and_transport_counters(self):
        system, members, _ = _two_member_group(IsisConfig())
        _burst(system, members, 0, 5)
        system.run_for(10.0)
        stats = system.kernel(0).stats()
        for key in ("groups", "buffered_messages", "buffered_bytes",
                    "trimmed_messages", "batches_sent", "envelopes_batched",
                    "batch_pending", "transport.frames_sent",
                    "transport.msgs_sent", "transport.bytes_sent"):
            assert key in stats, key
        assert stats["groups"] == 1
        assert stats["transport.msgs_sent"] > 0
        assert stats["transport.frames_sent"] >= stats["transport.msgs_sent"]


class TestStoreAccounting:
    def test_buffered_bytes_track_record_and_trim(self):
        from repro.core.store import MessageStore
        from repro.msg.message import Message

        store = MessageStore()
        env1 = Message(origin=0, gseq=1, payload=b"a" * 50)
        env2 = Message(origin=0, gseq=2, payload=b"b" * 80)
        assert store.record(0, 1, env1)
        assert store.record(0, 2, env2)
        assert store.buffered_bytes == env1.size_bytes + env2.size_bytes
        assert store.trim_stable({0: 1}) == 1
        assert store.buffered_bytes == env2.size_bytes
        store.reset()
        assert store.buffered_bytes == 0
        assert store.buffered_count == 0

    def test_record_rejects_re_arrival_below_contiguous_floor(self):
        from repro.core.store import MessageStore
        from repro.msg.message import Message

        store = MessageStore()
        for gseq in (1, 2, 3):
            store.record(0, gseq, Message(origin=0, gseq=gseq))
        store.trim_stable({0: 3})
        # A late copy of a trimmed (stable) message is a duplicate, not
        # a new message — and nothing below the floor counts as missing.
        assert not store.record(0, 2, Message(origin=0, gseq=2))
        assert store.complete_for({0: 3})
        assert store.missing_from({0: 5}) == [(0, 4), (0, 5)]
