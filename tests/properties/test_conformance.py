"""The virtual synchrony checker, and every configuration against it.

* **Self-test** — for each rule of ``conformance.check``, a hand-built
  record that breaks that rule and no other is refused with the rule's
  name, and its conforming twin passes.
* **Every configuration** — a pairwise covering set of rows over the
  six ``IsisConfig`` axes that choose a protocol path: every pair of
  settings of any two axes runs together in some row.  Each row runs
  one fixed churn script (``conformance.churn``) and must conform and
  end in one view.
"""

import itertools

import pytest

from conformance import RULES, Record, Run, Send, check, churn
from repro import IsisConfig

SENT = {
    "c0": Send("tc", 0, "cbcast", "g"),
    "c1": Send("tc", 1, "cbcast", "g"),
    "a0": Send("ta", 0, "abcast", "g"),
    "a1": Send("tb", 0, "abcast", "g"),
    "x": Send("gx", 0, "gbcast", "g"),
    "y0": Send("ty", 0, "cbcast", "g"),
    "y1": Send("ty", 1, "cbcast", "h"),
}
#: What a and b are both handed in view 1 of g, in one order.
S = [("g", 1, "a", "c0"), ("g", 1, "a", "c1"), ("g", 1, "a", "a0"),
     ("g", 1, "b", "a1")]


def _record(a, b=S, views=((1, ("a", "b")),), final=None, **fields):
    """Processes a (site 0) and b (site 1), both in every view of g and
    ending in its last one."""
    last = views[-1][0]
    rows = [("g", view_id, members) for view_id, members in views]
    return Record(
        streams={"a": list(a), "b": list(b)}, sent=SENT,
        installed={0: rows, 1: rows}, sites={"a": 0, "b": 1},
        final=final or {"a": {"g": last}, "b": {"g": last}}, **fields)


def _moved(stream, group="h"):
    """``stream`` with c0 handed in ``group`` instead of g."""
    return [(group if tag == "c0" else g, v, who, tag)
            for g, v, who, tag in stream]


# rule -> (a record that breaks it alone, its conforming twin)
CASES = {
    "exactly-once": (
        # c0 sent to g, handed (to both) in h.
        _record(_moved(S), _moved(S)), _record(S)),
    "fifo": (
        _record([S[1], S[0]] + S[2:]), _record(S)),
    "abcast-order": (
        _record(S, S[:2] + [S[3], S[2]]), _record(S, S)),
    "same-view-set": (
        _record(S, [S[0]] + S[2:]), _record(S, S)),
    "gbcast-order": (
        _record([("g", 1, "a", "c0"), ("g", 2, "a", "x"), ("g", 2, "a", "c1")],
                [("g", 1, "a", "c0"), ("g", 2, "a", "c1"), ("g", 2, "a", "x")],
                views=((1, ("a", "b")), (2, ("a", "b")))),
        _record([("g", 1, "a", "c0"), ("g", 2, "a", "x"), ("g", 2, "a", "c1")],
                [("g", 1, "a", "c0"), ("g", 2, "a", "x"), ("g", 2, "a", "c1")],
                views=((1, ("a", "b")), (2, ("a", "b"))))),
    "cross-group-causal": (
        _record([("h", 1, "a", "y1"), ("g", 1, "a", "y0")],
                [("g", 1, "a", "y0"), ("h", 1, "a", "y1")], steady=True,
                final={"a": {"g": 1, "h": 1}, "b": {"g": 1, "h": 1}}),
        _record([("g", 1, "a", "y0"), ("h", 1, "a", "y1")],
                [("g", 1, "a", "y0"), ("h", 1, "a", "y1")], steady=True,
                final={"a": {"g": 1, "h": 1}, "b": {"g": 1, "h": 1}})),
    "one-view-per-id": (
        Record(streams={}, sent=SENT,
               installed={0: [("g", 2, ("a", "b"))], 1: [("g", 2, ("b",))]}),
        Record(streams={}, sent=SENT,
               installed={0: [("g", 2, ("a", "b"))],
                          1: [("g", 2, ("a", "b"))]})),
    "durable-replica": (
        Record(streams={}, sent=SENT, states={"a": ["c0", "c1"]},
               restored={"a.1": ("a", ["c0", "a0"])}),
        Record(streams={}, sent=SENT, states={"a": ["c0", "c1"]},
               restored={"a.1": ("a", ["c0"])})),
}


def test_every_rule_has_a_case():
    assert [rule for rule, _ in RULES] == list(CASES)


@pytest.mark.parametrize("rule", list(CASES))
def test_checker_refuses_each_broken_rule_alone(rule):
    broken, twin = CASES[rule]
    for name, predicate in RULES:
        assert (predicate(broken) is not None) == (name == rule), name
    with pytest.raises(AssertionError, match=f"^{rule}: "):
        check(broken)
    check(twin)


def test_views_of_one_id_on_two_sides_are_two_views():
    """Two sides of a split that both install view 2 of g hold two
    views (an id and a member list each), so ``same-view-set`` does not
    compare their sets; that split brain is ``one-view-per-id``'s, for
    only the primary component may commit a view (ARCHITECTURE.md "The
    partition rule")."""
    record = Record(
        streams={"a": [("g", 2, "a", "c0")], "b": [("g", 2, "b", "a1")]},
        sent=SENT, sites={"a": 0, "b": 1},
        installed={0: [("g", 1, ("a", "b")), ("g", 2, ("a",))],
                   1: [("g", 1, ("a", "b")), ("g", 2, ("b",))]},
        final={"a": {"g": 2}, "b": {"g": 2}})
    broken = [name for name, predicate in RULES
              if predicate(record) is not None]
    assert broken == ["one-view-per-id"]
    with pytest.raises(AssertionError, match="^one-view-per-id: "):
        check(record)


# ----------------------------------------------------------------------
# Every configuration: a pairwise covering set over the six axes
# ----------------------------------------------------------------------
#: Each axis's default setting, then the other.
AXES = {
    "abcast_mode": ("two_phase", "sequencer"),
    "dissemination": ("flat", "tree"),
    "batch_window": (0.0, 0.01),
    "durability": (False, True),
    "piggyback_stability": (True, False),
    "gbcast_batching": (True, False),
}
#: 1 picks an axis's other setting.  Row 0 is the default; each column
#: is a distinct 3-subset of rows 1-5, so any two columns share a row
#: of 1s, a row of 0s, and neither is inside the other: every pair of
#: settings of every two axes meets.
ROWS = [
    (0, 0, 0, 0, 0, 0),
    (1, 1, 0, 1, 1, 0),
    (1, 0, 0, 1, 0, 1),
    (1, 0, 1, 0, 1, 1),
    (0, 1, 1, 1, 0, 0),
    (0, 1, 1, 0, 1, 1),
]
#: One churn script for every row: a GBCAST, a partition shorter than
#: failure detection, a site crash, a late join and a killed member,
#: 1.2 s apart while every member sends (64 multicasts each, 0.11 s
#: apart, span the script).
SCRIPT = [("gbcast", 0), ("partition", 0), ("crash", 3), ("join", 1),
          ("kill", 2)]
SEED = 5
SENDS = 64


def _config(row):
    return IsisConfig(tree_fanout=2, **{
        axis: settings[pick]
        for (axis, settings), pick in zip(AXES.items(), row)})


def _row_id(row):
    return "-".join(f"{axis}={AXES[axis][pick]}"
                    for axis, pick in zip(AXES, row) if pick) or "defaults"


def test_rows_cover_every_pair_of_settings():
    for i, j in itertools.combinations(range(len(AXES)), 2):
        assert {(row[i], row[j]) for row in ROWS} == {
            (0, 0), (0, 1), (1, 0), (1, 1)}, (i, j)


@pytest.mark.parametrize("row", ROWS, ids=[_row_id(row) for row in ROWS])
def test_every_configuration_conforms_under_churn(row):
    record = Run(churn(SEED, SCRIPT, sends=SENDS, config=_config(row))).play()
    check(record)
    assert len(record.final_members()) == 1, record.final_members()
