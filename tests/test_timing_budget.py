"""The timing the layers rely on, stated once.

§2.1 and §3.7 detect a failure only by a timeout; the system is
partially synchronous (SNIPPETS.md, "System Models"): delays are
bounded, but only the timers' constants say by how much.  Each row
below is one inequality between those constants that some code relies
on, named with that code (its ``reader``).  Every row is asserted on
both wires: the simulated LAN (``net/lan.py``, ``Transport``) and real
UDP (``UdpTransport``).  A row that does not hold is a strict xfail
naming the fault it causes.  ARCHITECTURE.md "Timing budget" is this
table in prose.

One silence rule sets where each timeout starts: a timer that judges a
peer by its silence (a site-view round, the flush's pre-report grace, a
request's retry) arms at its constant plus this site's ``cpu.backlog``,
so it runs from when what the site queued, its own sends among them,
has left the CPU, and the grace's verdict waits behind what the CPU
holds when it expires; the reliable channel's RTO runs from the wire.
The socket driver's backlog is fixed at 0.0, so there the rule is not
applied.  The rows compare the constants alone.  Only the failure
detector judges a site dead.
"""

import inspect
from typing import Callable, NamedTuple, Tuple

import pytest

import test_causal_delivery_properties as causal
from repro.core.rpc import REQUEST_TIMEOUT, GroupRpc
from repro.fd.heartbeat import INTERVAL, MIN_TIMEOUT, _PeerStats
from repro.fd.siteview import (ACK_TIMEOUT, BOOTSTRAP_TIMEOUT, JOIN_RETRY,
                               SUSPICION_SETTLE, SiteViewAgent)
from repro.net.lan import INTER_SITE_DELAY, Lan
from repro.net.udp import REORDER_DELAY, UdpTransport


class Wire(NamedTuple):
    """What a row reads of a wire.  ``delay`` is the longest one
    datagram takes between two sites: the LAN's inter-site hop; on UDP,
    a datagram the fault schedule holds back."""

    delay: float


WIRES = {"lan": Wire(INTER_SITE_DELAY), "udp": Wire(REORDER_DELAY)}

#: Each wire constant, and the code that reads it.
WIRE_READERS = {
    "INTER_SITE_DELAY": Lan.send,
    "REORDER_DELAY": UdpTransport._send_datagram,
}


class Row(NamedTuple):
    """``longer(wire) > shorter(wire)``, relied on by ``reader``, whose
    source names each of ``uses``."""

    reader: Callable
    uses: Tuple[str, ...]
    longer: Callable
    shorter: Callable


ROWS = {
    # A peer that misses one heartbeat is not suspected: the floor
    # outlasts the silence of one lost probe, checked one interval late.
    "one-lost-heartbeat": Row(
        _PeerStats.timeout, ("MIN_TIMEOUT", "INTERVAL"),
        lambda wire: MIN_TIMEOUT,
        lambda wire: 2 * INTERVAL + wire.delay),
    # The deep backlog's split is below failure detection whatever the
    # heartbeats' phase, one lost heartbeat included.
    "split-below-detection": Row(
        causal.test_deep_backlog_partition_heal_matches_recorded_scan_order,
        ("SPLIT",),
        lambda wire: MIN_TIMEOUT,
        lambda wire: causal.SPLIT + 2 * INTERVAL + wire.delay),
    # A restarter forms a singleton view only after a window in which
    # an older site's join loop, one lost request included, is heard.
    "bootstrap-hears-a-join": Row(
        SiteViewAgent._send_join_round, ("BOOTSTRAP_TIMEOUT", "JOIN_RETRY"),
        lambda wire: BOOTSTRAP_TIMEOUT,
        lambda wire: 2 * JOIN_RETRY + wire.delay),
    # A request to a coordinator that crashed is sent again when the
    # site view drops it; the timer's retry comes later, so it does not
    # go to the dead site again first: detection, checked one interval
    # late, the settle window, and a site-view round's three hops.
    "request-outlasts-detection": Row(
        GroupRpc._send, ("REQUEST_TIMEOUT",),
        lambda wire: REQUEST_TIMEOUT,
        lambda wire: (MIN_TIMEOUT + INTERVAL + SUSPICION_SETTLE
                      + 3 * wire.delay)),
    # A timed-out site-view round only proposes again, and removes no
    # one the detector does not suspect.  At the detector's floor, a
    # member that dies in a round is suspected, checked one interval
    # late, and the suspicion relayed to the coordinator (one hop),
    # whose removal drops the round, before the round times out.  The
    # row bounds latency, not safety: the adaptive timeout climbs to
    # MAX_TIMEOUT, above ACK_TIMEOUT, and a round that times out first
    # is only proposed again.
    "round-outlasts-detection": Row(
        SiteViewAgent._maybe_start_round, ("ACK_TIMEOUT",),
        lambda wire: ACK_TIMEOUT,
        lambda wire: MIN_TIMEOUT + INTERVAL + 2 * wire.delay),
}

#: Rows that do not hold on a wire, and the fault that follows.
BROKEN = {}


def _cases():
    for row in ROWS:
        for wire in WIRES:
            reason = BROKEN.get((row, wire))
            marks = () if reason is None else pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=reason)
            yield pytest.param(row, wire, id=f"{row}-{wire}", marks=marks)


@pytest.mark.parametrize("row,wire", list(_cases()))
def test_timing_budget_row_holds(row, wire):
    longer, shorter = ROWS[row].longer(WIRES[wire]), ROWS[row].shorter(
        WIRES[wire])
    assert longer > shorter, f"{row} on {wire}: {longer} <= {shorter}"


@pytest.mark.parametrize("row", list(ROWS))
def test_timing_budget_row_names_its_reader(row):
    """A row's reader is the code that relies on it: a reader that no
    longer names the row's constants has moved, and so must the row."""
    source = inspect.getsource(ROWS[row].reader)
    for name in ROWS[row].uses:
        assert name in source, f"{row}: {name} not read by its reader"


@pytest.mark.parametrize("name", list(WIRE_READERS))
def test_wire_constant_names_its_reader(name):
    """The rows read the wires' constants directly: the code that uses
    each one must still name it."""
    assert name in inspect.getsource(WIRE_READERS[name])
