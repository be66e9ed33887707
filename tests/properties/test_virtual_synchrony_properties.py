"""Property-based tests of the virtual synchrony invariants.

Random multicast workloads (mixed CBCAST/ABCAST, random sizes) with a
random crash injected mid-stream, checked against the paper's §2.4
guarantees as ``conformance.check`` states them (one ABCAST order,
per-task FIFO, the same set per view among the processes that outlive
it), and every member, or every survivor, ends with the same set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conformance import Run, Task, bursts, check, one_group


@given(
    seed=st.integers(0, 1000),
    plan=st.lists(
        st.tuples(st.integers(0, 2),              # sender index
                  st.sampled_from(["cbcast", "abcast"]),
                  st.integers(1, 4)),             # burst length
        min_size=1, max_size=5,
    ),
)
@settings(max_examples=12, deadline=None)
def test_abcast_total_order_and_cbcast_fifo(seed, plan):
    record = Run(one_group("prop", 3, 20.0, seed=seed,
                           traffic=bursts(plan, "prop"), tail=200.0)).play()
    check(record)
    # Everyone delivered the same set.
    assert len({frozenset(record.tags(f"m{s}")) for s in range(3)}) == 1


@given(
    seed=st.integers(0, 1000),
    crash_site=st.integers(1, 2),
    crash_after=st.floats(0.05, 2.0),
)
@settings(max_examples=10, deadline=None)
def test_survivors_agree_despite_crash(seed, crash_site, crash_after):
    record = Run(one_group(
        "prop", 3, 20.0, seed=seed,
        traffic=tuple(Task(f"blast{site}", f"m{site}", ("prop",),
                           ("cbcast", "abcast"), 8, f"x:{site}:" + "{i}")
                      for site in range(3)),
        faults=((crash_after, ("crash", crash_site)),), tail=300.0)).play()
    check(record)
    a, b = (set(record.tags(f"m{s}")) for s in range(3) if s != crash_site)
    assert a == b, f"survivors diverged: {a ^ b}"


def _quick(seed, loss_rate=0.0):
    """Member 0 ABCASTs ten messages to a group of three."""
    return Run(one_group(
        "det", 3, 20.0, "j", seed=seed, loss_rate=loss_rate,
        traffic=(Task("blast", "m0", ("det",), "abcast", 10, "t{i}"),),
        tail=60.0))


def test_same_seed_same_trace():
    """Determinism: identical seeds produce identical event traces."""
    digests = []
    for _ in range(2):
        run = _quick(12345)
        run.system.sim.trace.enable("group.view", "sv.install",
                                    "flush.commit")
        run.play()
        digests.append(run.system.sim.trace.digest())
    assert digests[0] == digests[1]


def test_different_seed_different_schedule():
    """Seeds actually influence the stochastic parts (loss draws etc.)."""
    outcomes = []
    for seed in (1, 2):
        run = _quick(seed, loss_rate=0.2)
        run.system.sim.trace.enable("*")
        run.play()
        outcomes.append(run.system.sim.trace.digest())
    # Every traced event with its time, not one counter: two seeds can
    # lose the same number of frames, they cannot lose the same frames.
    assert outcomes[0] != outcomes[1]
