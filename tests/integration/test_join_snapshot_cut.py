"""Join snapshot must sit exactly on the view boundary.

Regression test: the application applies a dispatched delivery only
after the intra-site CPU hand-off, so a snapshot encoded synchronously
at view install missed any delivery the flush cut had already counted
as pre-view — the joiner's transferred state lacked it and the message
was never resent (it was old-view traffic).  Deterministically lost
exactly one message per join that landed while a delivery was in
flight.  `_send_state` now routes the segment encode through the same
cpu-submit + intra-delay path as the deliveries themselves.
"""

import json

import pytest

from repro import IsisCluster, IsisConfig

MODES = ["two_phase", "sequencer"]


def _attach(system, site, pname, counts):
    process, isis = system.spawn(site, pname)
    log = counts.setdefault(pname, [])
    process.xfer_segments["app"] = (
        lambda log=log: [json.dumps(log).encode()],
        lambda blocks, log=log: (
            log.clear(), log.extend(json.loads(blocks[0])),
        ) if blocks else None,
    )
    process.bind(16, lambda msg, log=log: log.append(msg["tag"]))
    return process, isis


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["abcast", "cbcast"])
def test_concurrent_joins_under_load_lose_nothing(mode, kind):
    config = IsisConfig(abcast_mode=mode)
    system = IsisCluster(n_sites=4, seed=2, isis_config=config)
    counts = {}
    handles = {s: _attach(system, s, f"m{s}", counts) for s in range(4)}

    def creator(isis):
        gid = yield isis.pg_create("g")
        for i in range(20):
            yield isis.bcast(gid, 16, tag=f"a{i}", kind=kind)

    def joiner(isis, start):
        gid = yield isis.pg_lookup("g")
        yield isis.pg_join(gid)
        for i in range(start, start + 10):
            yield isis.bcast(gid, 16, tag=f"b{i}", kind=kind)

    handles[0][0].spawn(creator(handles[0][1]), "creator")
    for site in (1, 2, 3):
        handles[site][0].spawn(
            joiner(handles[site][1], 10 * site), "joiner")
    system.run_for(80.0)

    reference = sorted(counts["m0"])
    assert len(reference) == 50
    for name in ("m1", "m2", "m3"):
        missing = [t for t in reference if t not in counts[name]]
        assert not missing, (
            f"{name} never received {missing}: the join snapshot was "
            f"cut off the view boundary")
        assert sorted(counts[name]) == reference
