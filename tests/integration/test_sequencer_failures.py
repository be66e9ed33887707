"""Failure injection for sequencer-mode ABCAST: killing the token site.

The token site is the single point deciding total order; its failure is
the protocol's hardest case.  At the moment of the crash there are
stamped-but-undelivered ABCASTs (stamps in flight to some survivors) and
unstamped ABCASTs (data disseminated, never reached the token or queued
in its stamp batch).  The flush must settle both classes identically at
every survivor: the stamped prefix from the reports, then the
deterministic unstamped tail — no losses, no duplicates, no divergence
(``conformance.check``, and every survivor's sends reach every survivor).
"""

import pytest

from conformance import Run, Task, check, one_group
from repro import IsisConfig


def _run(seed, faults, batch_window=0.010, count=12, tail=300.0):
    """Every member of four streams ``count`` ABCASTs to ``seq`` at once
    while ``faults`` play; the survivors' delivery orders, each checked."""
    record = Run(one_group(
        "seq", 4, 20.0, seed=seed,
        config=IsisConfig(abcast_mode="sequencer", batch_window=batch_window),
        traffic=tuple(Task(f"blast{s}", f"m{s}", ("seq",), "abcast", count,
                           f"{s}:" + "{i}") for s in range(4)),
        faults=faults, tail=tail)).play()
    check(record)
    survivors = [s for s in range(4) if s in record.survivors]
    orders = [record.tags(f"m{s}") for s in survivors]
    # Identical delivery order at every survivor across the cut.
    assert orders[0] == orders[1] == orders[2]
    # No lost ABCASTs: everything a survivor sent was delivered at every
    # survivor (the crashed site's in-flight sends may be dropped
    # atomically — delivered nowhere — which is allowed).
    tasks = {f"blast{s}" for s in survivors}
    assert {tag for tag, send in record.sent.items()
            if send.task in tasks} <= set(orders[0])
    return record, orders


class TestTokenSiteFailure:
    @pytest.mark.parametrize("crash_after", [0.3, 0.6, 1.2])
    def test_survivors_agree_after_token_kill(self, crash_after):
        """Kill the token mid-stream; survivors converge on one order."""
        # The token is the lowest-ranked (oldest) member's site: site 0.
        record, orders = _run(7, ((crash_after, ("crash", 0)),))
        # Mid-stream state actually existed (the crash hit live traffic).
        assert all(len(order) > 0 for order in orders)
        # The token moved to the new lowest-ranked member's site.
        assert record.trace.value("abcast.token_handoffs") == 1

    def test_token_kill_without_stamp_batching(self):
        """Same guarantees with one g.abs per ABCAST (no batching)."""
        _run(11, ((0.5, ("crash", 0)),), batch_window=0.0)

    def test_non_token_site_failure_keeps_streaming(self):
        """Losing a non-token member must not disturb the token's order."""
        record, _ = _run(13, ((0.5, ("crash", 2)),))
        # Token never moved: site 0's oldest member survived.
        assert record.trace.value("abcast.token_handoffs") == 0

    def test_sequencer_group_rejoins_and_continues(self):
        """After the token dies, new ABCASTs still flow in the new view."""
        late = Task("late", "m1", ("seq",), "abcast", 5, "late:{i}")
        _, orders = _run(17, ((60.0, ("crash", 0)), (60.0, ("send", late))),
                         count=5, tail=120.0)
        assert {f"late:{i}" for i in range(5)} <= set(orders[0])
