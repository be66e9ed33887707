"""View-change flush properties under scripted churn.

The flush (pre-reports on a site death, delta reports, floor pruning,
the explicit ``g.fl.begin`` round as takeover/straggler fallback) is the
only view-change protocol, so there is no second engine to compare it
with.  Three kinds of check replace the old differential:

* **Conformance** (hypothesis-drawn churn: kills, site crashes, GBCASTs,
  sub-timeout partitions, late joins; both ABCAST engines) — the run
  passes ``conformance.check`` (§2.4, stated once) and the surviving
  sites end in one view.
* **Frozen oracle** — for a fixed list of ``(seed, mode, script)`` cases
  and the lossy-LAN sweep, the final membership and a digest of the
  survivor-sent tags (``Record.survivor_sent``: a survivor's sends are
  always in its own flush report, so no cut may drop them) must equal
  what the original 4-phase flush delivered.  The values were recorded
  at commit f62874e with ``fast_flush=False`` (the last commit that had
  that engine); the default engine of f62874e gave the same values.
* **Straggler fallback** — a pre-report that is lost or late lets the
  coordinator's grace expire; the explicit begin round must then commit
  the very cut the frozen oracle recorded.  That round is all that is
  left of the 4-phase protocol.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformance import Run, Task, check, churn, one_group, partition_heal
from repro import IsisConfig

N_SITES = 4


def _conforming(seed, mode, script, prereport_fate=None):
    """The churn family (``conformance.churn``) run, checked and returned.

    ``prereport_fate`` (``"lost"`` / ``"late"``) intercepts the first
    unsolicited pre-report each surviving kernel receives: dropped, or
    handed over only after the coordinator's grace has expired.
    """
    def intercept(run):
        for site in range(N_SITES):
            _intercept_first_prereport(run.system, site, prereport_fate)

    record = Run(churn(seed, script, config=IsisConfig(abcast_mode=mode))
                 ).play(intercept if prereport_fate is not None else None)
    check(record)
    assert len(record.final_members()) <= 1, "sites disagree on the final view"
    return record


def _intercept_first_prereport(system, site, fate):
    """Lose or delay the first ``g.fl.ok`` pre-report reaching ``site``."""
    kernel = system.kernel(site)
    dispatch = kernel._dispatch
    seen = []

    def intercepted(src_site, msg):
        if msg["_proto"] == "g.fl.ok" and msg.get("pre") and not seen:
            seen.append(src_site)
            if fate == "late":  # well past the coordinator's grace
                system.sim.call_after(0.6, dispatch, src_site, msg)
            return
        dispatch(src_site, msg)

    kernel._dispatch = intercepted


SCRIPT_STEP = st.one_of(
    st.tuples(st.just("kill"), st.integers(1, 3)),
    st.tuples(st.just("gbcast"), st.just(0)),
    st.tuples(st.just("partition"), st.just(0)),
    st.tuples(st.just("join"), st.integers(1, 3)),
)


@given(
    seed=st.integers(0, 300),
    mode=st.sampled_from(["two_phase", "sequencer"]),
    script=st.lists(SCRIPT_STEP, min_size=1, max_size=3),
)
@settings(max_examples=6, deadline=None)
def test_churn_conforms(seed, mode, script):
    _conforming(seed, mode, script)


@given(
    seed=st.integers(0, 300),
    mode=st.sampled_from(["two_phase", "sequencer"]),
    crash_site=st.integers(1, 3),
)
@settings(max_examples=4, deadline=None)
def test_site_crash_conforms(seed, mode, crash_site):
    """A site crash mid-traffic: the case the pre-report path serves."""
    record = _conforming(
        seed, mode, [("gbcast", 0), ("crash", crash_site),
                     ("kill", crash_site)])
    assert record.trace.value("flush.prereports_sent") >= 1


def _found(seed, mode, script, reason):
    return pytest.param(
        seed, mode, script, id=f"{seed}-{mode}-" + "+".join(
            kind for kind, _ in script),
        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason=reason))


@pytest.mark.parametrize("seed,mode,script", [
    # A round whose acks a short split delays times out and proposes
    # again; it removes no live site (fd/siteview.py).
    pytest.param(192, "sequencer",
                 [("partition", 0), ("crash", 0), ("partition", 0)],
                 id="192-sequencer-partition+crash+partition"),
    # s0's own finals sort its gseqs 10, 12 and 14 out of order: the
    # cut must still hand out s0:ab:9, :11 and :13 in that order (fifo).
    pytest.param(175, "two_phase",
                 [("partition", 0), ("crash", 2), ("partition", 0)],
                 id="175-two_phase-partition+crash+partition"),
    # scripts/churn_sweep.py's draws on seeds 1-600: the same two faults.
    pytest.param(178, "two_phase",
                 [("partition", 0), ("crash", 2), ("partition", 0)],
                 id="178-two_phase-partition+crash+partition"),
    pytest.param(202, "sequencer",
                 [("partition", 0), ("partition", 0), ("crash", 1)],
                 id="202-sequencer-partition+partition+crash"),
    pytest.param(436, "sequencer", [("partition", 0), ("crash", 1)],
                 id="436-sequencer-partition+crash"),
    _found(523, "sequencer",
           [("partition", 0), ("crash", 3), ("crash", 0)],
           "ROADMAP item 17a: after site 3 and then site 0 crash, acting "
           "coordinator 1 holds {1, 2}, an exact half of the view without "
           "its oldest member, and stalls (fd/siteview.py "
           "_enter_stalled); m1 and m2 end view 4 holding different sets "
           "(same-view-set)"),
])
def test_found_by_the_churn_sweep(seed, mode, script):
    """The non-generator failures of the churn sweeps over kill /
    crash (any site) / GBCAST / partition / join steps (two 300-draw
    sweeps by hand, then ``scripts/churn_sweep.py``, whose ``KNOWN``
    lists the last one); each failed the checker when it was found,
    and each still marked strict xfail fails it now."""
    _conforming(seed, mode, script)


def test_found_by_the_partition_heal_backlog():
    """The causal deep-backlog run (``conformance.partition_heal``, seed
    77, 2 % loss) with the 1.0 s split it had before it was restated
    below failure detection: the 50/50 split under the primary rule.
    Both halves installed a site view 2, {0, 1} and {2, 3}, while an
    exact half needed no more than half of the previous view; it now
    needs that view's oldest member too, which only {0, 1} holds."""
    check(Run(partition_heal(1.0)).play())


def _digest(tags):
    return hashlib.sha256("\n".join(sorted(tags)).encode()).hexdigest()[:16]


def _case(seed, mode, script, members, digest):
    return pytest.param(
        seed, mode, script, members, digest,
        id=f"{seed}-{mode}-" + "+".join(kind for kind, _ in script))


# (seed, mode, script) -> (final members, digest of survivor-sent tags),
# recorded at f62874e with ``fast_flush=False``.
RECORDED = [
    _case(7, "two_phase", [("kill", 2)],
          ("proc:0.0.1@0", "proc:1.0.1@0", "proc:3.0.1@0"),
          "c646271bb1e04ac5"),
    _case(7, "sequencer", [("kill", 1), ("join", 1)],
          ("proc:0.0.1@0", "proc:1.0.2@0", "proc:2.0.1@0", "proc:3.0.1@0"),
          "c60651b4024c09a6"),
    _case(23, "two_phase", [("gbcast", 0), ("partition", 0), ("join", 3)],
          ("proc:0.0.1@0", "proc:1.0.1@0", "proc:2.0.1@0", "proc:3.0.1@0",
           "proc:3.0.2@0"),
          "c9c9b735db0ee92d"),
    _case(23, "sequencer", [("partition", 0), ("kill", 3), ("gbcast", 0)],
          ("proc:0.0.1@0", "proc:1.0.1@0", "proc:2.0.1@0"),
          "7d7d21e562dc0c6f"),
    _case(101, "two_phase", [("gbcast", 0), ("crash", 3), ("kill", 3)],
          ("proc:0.0.1@0", "proc:1.0.1@0", "proc:2.0.1@0"),
          "c82f948fb21e0b99"),
    _case(101, "sequencer", [("gbcast", 0), ("crash", 1), ("kill", 1)],
          ("proc:0.0.1@0", "proc:2.0.1@0", "proc:3.0.1@0"),
          "eb8f00416296aae2"),
    _case(212, "two_phase", [("join", 2), ("crash", 2)],
          ("proc:0.0.1@0", "proc:1.0.1@0", "proc:3.0.1@0"),
          "93496fb830ec37fe"),
    _case(212, "sequencer", [("crash", 2), ("join", 1)],
          ("proc:0.0.1@0", "proc:1.0.1@0", "proc:1.0.2@0", "proc:3.0.1@0"),
          "93496fb830ec37fe"),
]


@pytest.mark.parametrize("seed,mode,script,members,digest", RECORDED)
def test_churn_matches_recorded_four_phase_cut(seed, mode, script, members,
                                               digest):
    record = _conforming(seed, mode, script)
    assert record.final_members() == {members}
    assert _digest(record.survivor_sent()) == digest


@pytest.mark.parametrize("fate", ["lost", "late"])
# The recorded site crashes that find the coordinator idle, so survivors
# pre-report.  (In the last recorded case a join flush is already
# collecting when the site view changes: it restarts, reuses the reports
# it has, and nobody pre-reports.)
@pytest.mark.parametrize("seed,mode,script,members,digest", RECORDED[4:7])
def test_straggler_prereport_falls_back_to_begin_round(
        seed, mode, script, members, digest, fate):
    """The coordinator's grace expires on a missing pre-report; the
    explicit ``g.fl.begin`` round solicits the straggler and commits the
    cut the 4-phase flush (which always ran that round) recorded."""
    record = _conforming(seed, mode, script, prereport_fate=fate)
    assert record.trace.value("flush.grace_begins") >= 1
    assert record.final_members() == {members}
    assert _digest(record.survivor_sent()) == digest


def _lossy(mode):
    """Deterministic lossy-LAN churn: three members, member 2 killed."""
    return one_group(
        "sw", 3, 20.0, "j", seed=99, loss_rate=0.05,
        config=IsisConfig(abcast_mode=mode),
        traffic=tuple(Task(f"g{site}", f"m{site}", ("sw",),
                           ("cbcast", "abcast"), 10, f"s{site}:" + "{k}:{i}")
                      for site in range(3)),
        faults=((2.0, ("kill", "m2")),))


# mode -> digest of the tags delivered at site 0, recorded at f62874e
# with ``fast_flush=False``.
RECORDED_LOSSY = {
    "two_phase": "137c069e84b4b455",
    "sequencer": "137c069e84b4b455",
}


def test_lossy_sweep_matches_recorded_four_phase_cut():
    """Deterministic lossy-LAN churn drains to agreement."""
    for mode, digest in RECORDED_LOSSY.items():
        record = Run(_lossy(mode)).play()
        check(record)
        delivered = {site: set(record.tags(f"m{site}")) for site in range(3)}
        assert delivered[0] == delivered[1], f"{mode}: survivors diverged"
        # Site 2's kernel survives (only the member died), so the flush
        # may drop nothing the 4-phase flush delivered.
        assert _digest(delivered[0]) == digest, mode

