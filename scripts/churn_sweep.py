"""Play one drawn churn script per seed and check it against virtual
synchrony.

Each seed draws an ABCAST mode and one to three steps — kill a member,
crash a site, a GBCAST, a short partition, a join — and plays them as
``conformance.churn`` (four sites, one group, CBCAST and ABCAST traffic
from every member).  The run's record must pass ``conformance.check``
(ARCHITECTURE.md "Virtual synchrony, stated once"), and the surviving
sites must end in one view.  Run:

    PYTHONPATH=src python scripts/churn_sweep.py --seeds 1-300

One line per finding: the seed, the mode, the script and the broken
rule.  A known fault (:data:`KNOWN`, each a strict xfail in
``tests/properties/test_fast_flush_properties.py``) is marked so.  The
last line counts the draws and the findings; the exit status is
non-zero on a finding that is not known, or on a known seed that no
longer breaks its rule (the fault is mended: drop it from both lists).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests", "properties"))

from conformance import Run, check, churn  # noqa: E402
from repro import IsisConfig  # noqa: E402

MODES = ["two_phase", "sequencer"]
STEPS = ["kill", "crash", "gbcast", "partition", "join"]
#: seed -> the rule its run breaks, and why (ROADMAP item 17a).
KNOWN = {523: ("same-view-set", "17a: after crashes of 3 and 0, acting "
               "coordinator 1 holds an exact half without the oldest "
               "and stalls")}


def draw(seed: int) -> Tuple[str, List[Tuple[str, int]]]:
    """The mode and the script of ``seed``'s run."""
    r = random.Random(seed)
    mode = r.choice(MODES)
    script = []
    for _ in range(r.randint(1, 3)):
        kind = r.choice(STEPS)
        if kind in ("kill", "join"):
            arg = r.randint(1, 3)
        elif kind == "crash":
            arg = r.randint(0, 3)
        else:
            arg = 0
        script.append((kind, arg))
    return mode, script


def finding(seed: int, mode: str, script) -> Optional[str]:
    """The broken rule of ``seed``'s run, or None if it conforms."""
    record = Run(churn(seed, script, config=IsisConfig(abcast_mode=mode))
                 ).play()
    try:
        check(record)
    except AssertionError as error:
        return str(error).splitlines()[0]
    if len(record.final_members()) > 1:
        return "final-view: the survivors end in different views"
    return None


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1"),
                        help="a seed or an inclusive range A-B")
    args = parser.parse_args()
    found, unexpected = 0, 0
    for seed in args.seeds:
        mode, script = draw(seed)
        problem = finding(seed, mode, script)
        rule, why = KNOWN.get(seed, (None, None))
        steps = "+".join(f"{kind}:{arg}" for kind, arg in script)
        if problem is None:
            if rule is not None:
                unexpected += 1
                print(seed, mode, steps, f"conforms: {rule} ({why}) mended?",
                      flush=True)
            continue
        found += 1
        known = rule is not None and problem.startswith(rule + ":")
        unexpected += not known
        print(seed, mode, steps, problem[:160],
              f"[known, {why}]" if known else "[new]", flush=True)
    print(f"{len(args.seeds)} draws, {found} findings, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
