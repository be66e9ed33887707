"""Unit tests for the WaitIndex and the causal delivery stats.

The WaitIndex (``core/cbcast.py``, owned by each kernel's
``CausalCheck``) is the kernel-wide registry of cross-group causal wait
thresholds: a CBCAST blocked on another group's progress holds exactly
one slot — a delivery counter ``(gid, member, needed_seq)`` or a view
threshold on ``gid`` — and is woken only when that threshold crosses.
"""

import pytest

from conformance import Run, Task, check, two_groups
from repro import IsisCluster
from repro.core.cbcast import WaitIndex
from repro.core.vectorclock import (
    LAYOUT_CAP,
    ChainContext,
    ContextDelta,
    ContextEncoder,
    apply_context_delta,
    parse_context_delta,
)
from repro.msg.address import make_group_address, make_process_address

#: Watched groups and members are packed, as a ``cb_ctx`` names them.
G1 = make_group_address(0, 1).pack()
G2 = make_group_address(0, 2).pack()
M1 = make_process_address(1, 0, 7).pack()
M2 = make_process_address(2, 0, 9).pack()
#: The engines holding blocked messages, as the kernel keys its engines.
E1 = make_group_address(0, 1)
E2 = make_group_address(0, 2)

#: waiter = (gid of the engine holding the blocked message, (packed
#: sender, seq))
W1 = (E2, (M1, 1))
W2 = (E2, (M1, 2))
W3 = (E1, (M2, 5))


class TestWaitIndex:
    def test_counter_threshold_wakes_exactly_at_needed_seq(self):
        wi = WaitIndex()
        wi.register_counter(G1, M1, 3, W1)
        assert wi.on_advance(G1, M1, 1) == []
        assert wi.on_advance(G1, M1, 2) == []
        assert wi.on_advance(G1, M1, 3) == [W1]
        assert len(wi) == 0

    def test_one_slot_per_waiter_reregistration_migrates(self):
        wi = WaitIndex()
        wi.register_counter(G1, M1, 3, W1)
        # Re-evaluation found a different failing threshold: slot moves.
        wi.register_counter(G1, M2, 5, W1)
        assert len(wi) == 1 and wi._slots[W1] == (G1, (M2, 5))
        assert wi.on_advance(G1, M1, 3) == []
        assert wi.on_advance(G1, M2, 5) == [W1]

    def test_view_event_wakes_counter_and_view_waiters(self):
        wi = WaitIndex()
        wi.register_counter(G1, M1, 3, W1)
        wi.register_view(G1, W2)
        wi.register_counter(G2, M2, 1, W3)  # different group: untouched
        woken = wi.on_view_event(G1)
        assert set(woken) == {W1, W2}
        assert len(wi) == 1
        assert wi.on_view_event(G2) == [W3]

    def test_purge_engine_drops_only_its_registrations(self):
        wi = WaitIndex()
        wi.register_counter(G1, M1, 3, W1)   # waiter of engine E2
        wi.register_counter(G2, M2, 2, W3)   # waiter of engine E1
        wi.purge_engine(E2)
        assert len(wi) == 1
        assert wi.on_advance(G2, M2, 2) == [W3]
        assert wi.on_advance(G1, M1, 3) == []

    def test_remove_is_idempotent_and_exact(self):
        wi = WaitIndex()
        wi.register_counter(G1, M1, 3, W1)
        wi.register_counter(G1, M1, 3, W2)
        wi.remove(W1)
        wi.remove(W1)
        assert len(wi) == 1
        assert wi.on_advance(G1, M1, 3) == [W2]

    def test_reregistration_against_another_group_migrates_the_slot(self):
        wi = WaitIndex()
        wi.register_counter(G1, M1, 3, W1)
        wi.register_view(G2, W1)
        assert len(wi) == 1 and wi._slots[W1] == (G2, None)
        assert wi.on_advance(G1, M1, 3) == []
        assert wi.on_view_event(G2) == [W1]

    def test_peak_size_high_water_mark(self):
        """The peak counts every slot held at once, whatever groups the
        waits are on: it is the kernel's ``wait_index.peak``."""
        wi = WaitIndex()
        wi.register_counter(G1, M1, 1, W1)
        wi.register_counter(G1, M1, 2, W2)
        wi.register_view(G2, W3)
        assert wi.peak_size == 3
        wi.on_view_event(G1)
        wi.on_view_event(G2)
        assert len(wi) == 0 and wi.peak_size == 3


def _two_groups(*traffic, faults=(), tail=30.0):
    """Members on three sites in the fully overlapping groups wia and
    wib, sending ``traffic``."""
    return Run(two_groups("wia", "wib", 3, seed=21, traffic=traffic,
                          faults=faults, tail=tail))


def _chains(prefix, count, **run):
    """Every member sends ``count`` CBCASTs to wib and wia in turn: each
    send's context names the sender's previous one in the other group,
    exactly the cross-group waits the index must track."""
    return _two_groups(*(Task(f"{prefix}{s}", f"m{s}", ("wib", "wia"),
                              "cbcast", count, f"{prefix}{s}:" + "{i}")
                         for s in range(3)), **run).play()


class TestCausalDeliveryKernel:
    def test_cross_group_chains_deliver_and_index_drains(self):
        record = _chains("c", 6)
        # In send order *across* the two groups (cross-group-causal).
        assert record.steady
        check(record)
        for site in range(3):
            assert len(record.streams[f"m{site}"]) == 18
            stats = record.kernels[site].stats()
            # All waits resolved; nothing leaked in the index.
            assert stats["wait_index.size"] == 0
            assert stats["causal.pending"] == 0

    def test_wait_index_peak_stat_counts_waits_on_every_group(self):
        kernel = IsisCluster(n_sites=1, seed=0).kernel(0)
        kernel.causal_check.wait_index.register_counter(G1, M1, 1, W1)
        kernel.causal_check.wait_index.register_counter(G1, M1, 2, W2)
        kernel.causal_check.wait_index.register_view(G2, W3)
        stats = kernel.stats()
        assert stats["wait_index.size"] == stats["wait_index.peak"] == 3

    def test_view_change_wakes_threshold_waiters(self):
        """A waiter blocked on a group's progress is released when that
        group installs a new view (old-view thresholds are satisfied)."""
        record = _chains("v", 4, faults=((0.2, ("crash", 2)),), tail=120.0)
        check(record)
        assert set(record.tags("m0")) == set(record.tags("m1"))
        for site in (0, 1):
            stats = record.kernels[site].stats()
            assert stats["wait_index.size"] == 0
            assert stats["causal.pending"] == 0

    def test_ctx_caches_evicted_at_view_change(self):
        run = _two_groups()
        run.deploy(run.scenario)
        run.send(Task("e", "m0", ("wia",), "cbcast", 10, "e:{i}"))
        run.system.run_for(10.0)
        assert run.system.kernel(1).stats()["causal.ctx_cache"] > 0
        run.act(("crash", 2))  # forces a view change in both groups
        run.system.run_for(60.0)
        check(run.record())
        for site in (0, 1):
            kernel = run.system.kernel(site)
            for engine in kernel.engines.values():
                chain, cache = engine.causal.cache_sizes()
                # Delta chains restarted with the view: entries for every
                # old-view sender (including the departed member) are gone
                # until new-view traffic rebuilds them.
                assert cache == 0
                assert chain <= len(engine.view.members)

    def test_peak_pending_stat_tracks_depth(self):
        record = _chains("p", 8)
        check(record)
        peaks = [record.kernels[s].stats()["causal.peak_pending"]
                 for s in range(3)]
        assert max(peaks) >= 1  # some message waited on a predecessor


class TestContextCheckCost:
    """A clock-free guard on what one CBCAST's causal context costs: the
    receiver tests the entries the sender's delta names, never the whole
    groups × members context, and a steady membership needs no full walk."""

    N_SITES, N_GROUPS, SPAN, RUN = 8, 16, 4, 4

    def _ring(self):
        system = IsisCluster(n_sites=self.N_SITES, seed=11)
        members = [system.spawn(s, f"m{s}") for s in range(self.N_SITES)]
        deliveries = []
        for proc, _ in members:
            proc.bind(16, lambda msg: deliveries.append(msg["tag"]))
        sites_of = [[(g * self.N_SITES // self.N_GROUPS + k) % self.N_SITES
                     for k in range(self.SPAN)] for g in range(self.N_GROUPS)]
        for g, sites in enumerate(sites_of):
            def create(isis=members[sites[0]][1], g=g):
                yield isis.pg_create(f"ring{g}")

            members[sites[0]][0].spawn(create(), f"create{g}")
        system.run_for(5.0)
        for hop in range(1, self.SPAN):
            for g, sites in enumerate(sites_of):
                def join(isis=members[sites[hop]][1], g=g):
                    gid = yield isis.pg_lookup(f"ring{g}")
                    yield isis.pg_join(gid)

                members[sites[hop]][0].spawn(join(), f"join{g}.{hop}")
            system.run_for(30.0)
        return system, members, sites_of, deliveries

    def _drive(self, system, members, sites_of, rounds):
        """Every site walks its groups ``rounds`` times, ``RUN`` CBCASTs
        in a row to each — so successive contexts differ in few groups."""
        for site, (proc, isis) in enumerate(members):
            mine = [g for g, sites in enumerate(sites_of) if site in sites]

            def gen(isis=isis, mine=mine, site=site):
                gids = []
                for g in mine:
                    gid = yield isis.pg_lookup(f"ring{g}")
                    gids.append(gid)
                for r in range(rounds):
                    for gid in gids:
                        for k in range(self.RUN):
                            yield isis.cbcast(gid, 16, tag=f"{site}.{r}.{k}")

            proc.spawn(gen(), f"send{site}")
        system.run_for(120.0)

    def _totals(self, system):
        stats = [system.kernel(s).stats() for s in range(self.N_SITES)]
        return {key: sum(s[key] for s in stats) for key in (
            "causal.ctx_delta_entries", "causal.ctx_full_walks",
            "causal.pending", "wait_index.size")}

    def test_steady_ring_checks_deltas_only(self):
        system, members, sites_of, deliveries = self._ring()
        groups_per_site = self.N_GROUPS * self.SPAN // self.N_SITES
        for s in range(self.N_SITES):
            assert len(system.kernel(s).engines) == groups_per_site
            stats = system.kernel(s).stats()
            # One table of groups per kernel: the peak is the hosted count.
            assert stats["kernel.peak_groups_per_shard"] == groups_per_site
            assert "kernel.shards" not in stats
        self._drive(system, members, sites_of, rounds=1)     # warm-up
        before, handed = self._totals(system), len(deliveries)
        self._drive(system, members, sites_of, rounds=2)
        after = self._totals(system)
        checked = len(deliveries) - handed
        assert checked == 2 * self.RUN * self.N_GROUPS * self.SPAN * self.SPAN
        assert after["causal.pending"] == after["wait_index.size"] == 0
        assert after["causal.ctx_full_walks"] == \
            before["causal.ctx_full_walks"] == 0
        entries = (after["causal.ctx_delta_entries"]
                   - before["causal.ctx_delta_entries"])
        # A sender's context spans 8 groups × 4 members; a check names
        # about half the groups here, and only their moved counters.
        assert entries / checked < groups_per_site * self.SPAN / 4


class TestOneLayoutPerShape:
    """A kernel holds a sender's context shape once: its chains in every
    group they share with us hold one layout, and so do this kernel's
    own encoders; the table the layouts are interned in is bounded."""

    def test_a_senders_chains_share_one_layout(self):
        ring = TestContextCheckCost()
        system, members, sites_of, _ = ring._ring()
        ring._drive(system, members, sites_of, rounds=1)
        for site in range(ring.N_SITES):
            kernel = system.kernel(site)
            by_sender = {}
            for engine in kernel.engines.values():
                for sender, chain in engine.causal._chains.items():
                    by_sender.setdefault(sender, []).append(chain.context)
                by_sender.setdefault("encoders", []).extend(
                    encoder._base
                    for encoder in engine.pipeline.causal._encoders.values())
            for contexts in by_sender.values():
                held = {}
                for context in contexts:
                    assert type(context.layout) is tuple
                    first = held.setdefault(context.layout, context.layout)
                    assert context.layout is first
                    assert kernel.causal_check.layouts[first] is first
                # Overlapping groups: a sender shares several with us.
                assert len(contexts) > len(held)

    def test_layout_table_is_capped_against_made_up_gids(self):
        """A peer that names a fresh gid in each ``cb_ctx`` makes a new
        layout each time: the table is emptied at its cap, not grown."""
        layouts = {}
        chain = ChainContext()
        apply_context_delta(chain, ContextDelta(True, [(G1, 1, [0])], [], []),
                            layouts)
        held = G1
        for n in range(3 * LAYOUT_CAP):
            fresh = make_group_address(1, 1000 + n).pack()
            apply_context_delta(
                chain, ContextDelta(False, [(fresh, 1, [n])], [], [held]),
                layouts)
            held = fresh
            assert len(layouts) <= LAYOUT_CAP
        assert chain.entries() == [(held, 1, [3 * LAYOUT_CAP - 1])]
        assert layouts[chain.layout] is chain.layout


class TestContextReadWhereItCanFail:
    """A ``cb_ctx`` is read only where its check can fail: the sender's
    own copy is delivered on the FIFO rule alone, and the encoder diffs a
    group table the kernel keeps current."""

    def test_own_copy_is_delivered_without_its_context(self):
        run = _two_groups()
        members = run.deploy(run.scenario)
        system = run.system
        sender = members[0][0].address.process().pack()
        before = [system.kernel(s).stats()["causal.ctx_delta_entries"]
                  for s in range(3)]
        run.send(Task("own", "m0", ("wib", "wia"), "cbcast", 8, "o:{i}"))
        system.run_for(20.0)
        record = run.record()
        for site in range(3):
            assert record.tags(f"m{site}") == [f"o:{i}" for i in range(8)]
        checked = [system.kernel(s).stats()["causal.ctx_delta_entries"]
                   - before[s] for s in range(3)]
        # The sender checked no context of its own; its receivers did.
        assert checked[0] == 0 and checked[1] > 0 and checked[2] > 0
        for gid, engine in system.kernel(0).engines.items():
            assert sender not in engine.causal._chains
            assert engine.causal.cache_sizes() == (0, 0)
            vectors = [system.kernel(s).engines[gid].causal.delivered
                       for s in range(3)]
            assert vectors == [{sender: 4}] * 3
        for site in (1, 2):
            for engine in system.kernel(site).engines.values():
                assert sender in engine.causal._chains

    def test_encoder_table_follows_joins_views_and_retirement(
            self, monkeypatch):
        """Between two sends in ``g``, site 0 joins ``h``, ``h`` changes
        view by another site's leave, and ``h`` retires at site 0: each
        next ``cb_ctx`` is the one a freshly built table encodes."""
        system = IsisCluster(n_sites=3, seed=23)
        members = [system.spawn(s, f"m{s}") for s in range(3)]
        for proc, _ in members:
            proc.bind(16, lambda msg: None)
        kernel = system.kernel(0)
        gids = {}

        def fresh_groups():
            return {gid.pack(): (engine.view.view_id,
                                 tuple(m.pack() for m in engine.view.members),
                                 engine.causal.delivered)
                    for gid, engine in sorted(kernel.engines.items(),
                                              key=lambda kv: kv[0].pack())
                    if engine.installed and engine.view is not None}

        encoded = []
        real_encode = ContextEncoder.encode

        def checked_encode(encoder, groups):
            twin = ContextEncoder({})
            if encoder._base is not None:
                twin._base = encoder._base.copy()
            out = real_encode(encoder, groups)
            encoded.append((parse_context_delta(out),
                            parse_context_delta(
                                real_encode(twin, fresh_groups()))))
            return out

        monkeypatch.setattr(ContextEncoder, "encode", checked_encode)
        # Read the table at every view install, as a send right after
        # one would: only an invalidation after the install (a retire
        # comes after it) keeps the next send's context right.
        installed = kernel.on_view_installed

        def install_then_read(*args):
            installed(*args)
            kernel.causal_check.groups()

        monkeypatch.setattr(kernel, "on_view_installed", install_then_read)

        def run(site, step):
            members[site][0].spawn(step(members[site][1]), "step")
            system.run_for(25.0)

        def create_g(isis):
            gids["g"] = yield isis.pg_create("g")

        def create_h(isis):
            gids["h"] = yield isis.pg_create("h")

        def join_h(isis):
            yield isis.pg_join(gids["h"])

        def leave_h(isis):
            yield isis.pg_leave(gids["h"])

        def send(isis):
            yield isis.cbcast(gids["g"], 16)

        run(0, create_g)
        run(1, create_h)
        run(2, join_h)
        run(0, send)
        leaver = members[2][0].address.process()
        steps = [(0, join_h, lambda: gids["h"] in kernel.engines),
                 (2, leave_h, lambda: leaver not in
                  kernel.engines[gids["h"]].view.members),
                 (0, leave_h, lambda: gids["h"] not in kernel.engines)]
        for site, step, done in steps:
            named = len(encoded)
            run(site, step)
            assert done()
            run(0, send)
            assert len(encoded) == named + 1
            sent, fresh = encoded[-1]
            assert sent == fresh
        # Each step changed what the next context says of ``h``.
        assert all(sent.named or sent.removed for sent, _ in encoded[1:])
