"""Edge-case coverage for the kernel and toolkit stubs."""

import dataclasses
import inspect
import pathlib
import re

import pytest

from repro import IsisCluster, IsisConfig, Message
from repro.core.engine import GroupEngine
from repro.core.kernel import PROTOCOLS
from repro.errors import CodecError, GroupError, SiteDown
from repro.msg import make_group_address, make_process_address
from repro.msg.fields import encode_have_vector, encode_stab
from repro.net.lan import Lan
from repro.net.reliable import ReliableEndpoint
from repro.net.udp import UdpFaults
from repro.runtime.asyncio_driver import AsyncioCluster
from repro.runtime.stable import StableStore, StorageFaults
from repro.tools import (ClockSync, RecoveryManager, SemaphoreManager,
                         install_clocks, install_recovery, register_raw_state,
                         register_state)


#: Every field multiplies the configurations tests and benchmarks must
#: cover, so adding (or retiring) one is a deliberate edit here.
CONFIG_FIELDS = {
    IsisConfig: [
        "abcast_mode", "batch_window", "dissemination", "durability",
        "gbcast_batching", "piggyback_stability", "tree_fanout",
        "wal_checkpoint_every"],
    UdpFaults: ["dup_rate", "fault_seed", "loss_rate", "reorder"],
}
#: Knobs no caller ever set, keyed on what replaced the class or took
#: the keyword: constants beside their readers now, or gone with the
#: side path they selected.
RETIRED = {
    IsisConfig: [
        "fast_flush", "flush_prereport_grace", "flush_okb_window",
        "transfer_chunk_bytes", "bulk_threshold", "stability_interval",
        "join_retry", "transfer_retry", "fwd_retries", "fwd_timeout",
        "local_delivery_cpu", "batch_max_bytes", "stab_announce_every",
        "wal_trim_min", "membership", "heartbeat", "siteview"],
    # ``LanConfig``'s cost model: ``net/lan.py`` and ``net/transport.py``.
    Lan: [
        "config", "ack_cpu", "inter_site_delay", "intra_site_delay", "mtu",
        "recv_cpu_per_byte", "recv_cpu_per_frame", "rto",
        "send_cpu_per_byte", "send_cpu_per_frame", "window",
        "hw_multicast", "ack_delay"],
    IsisCluster: ["lan_config"],
    # ``UdpConfig``'s wire values: ``UdpTransport`` and ``net/udp.py``.
    UdpFaults: ["max_datagram", "max_rto", "mtu", "rto", "window",
                "ack_delay", "coalesce", "reorder_delay"],
    AsyncioCluster: ["udp_config"],
    ReliableEndpoint: ["config", "max_rto"],
    SemaphoreManager: ["release_on_failure", "detect_deadlock"],
    RecoveryManager: ["settle_delay", "poll_timeout", "retry_delay",
                      "lonely_rounds"],
    install_recovery: ["settle_delay"],
    ClockSync: ["interval"],
    install_clocks: ["sync_interval"],
    register_state: ["block_size"],
    register_raw_state: ["block_size"],
    StableStore: ["write_latency"],
}
#: Inputs a test draws, not settings of the system: fault schedules, like
#: the simulated clocks' skew.  Scripts inject them; nothing needs a
#: second caller to justify one.
FAULT_SCHEDULES = {
    UdpFaults: "the real wire's datagram faults (scripts/run_site.py)",
    StorageFaults: "the simulated disk's crash honesty",
    "loss_rate": "the simulated LAN's frame loss (scripts/digest_scenarios.py)",
}
REPO = pathlib.Path(__file__).resolve().parents[1]


def test_isis_config_field_set_is_pinned():
    for cls, names in CONFIG_FIELDS.items():
        assert sorted(f.name for f in dataclasses.fields(cls)) == names, cls
    for target, names in RETIRED.items():
        signature = inspect.signature(target)
        for retired in names:
            with pytest.raises(TypeError):
                signature.bind_partial(**{retired: 1})
    # The third ordering engine is gone.
    system = IsisCluster(n_sites=1, seed=0,
                         isis_config=IsisConfig(abcast_mode="leader"))
    with pytest.raises(GroupError):
        GroupEngine(system.kernel(0), make_group_address(0, 1))


def test_every_option_has_a_caller():
    """ARCHITECTURE.md "Configuration": an option exists because a caller
    that is not a test sets it.  Each field of an option class must be
    passed as a keyword (``name=``) or a spec key (``"name":``) in some
    file under ``src/``, ``bench/``, ``benchmarks/`` or ``scripts/``
    besides the one declaring it."""
    sources = {path: path.read_text()
               for root in ("src", "bench", "benchmarks", "scripts")
               for path in (REPO / root).rglob("*.py")}
    for cls in CONFIG_FIELDS:
        if cls in FAULT_SCHEDULES:
            continue
        declared = pathlib.Path(inspect.getsourcefile(cls)).resolve()
        for field in dataclasses.fields(cls):
            setting = re.compile(
                rf'(?<![\w.]){field.name}=(?!=)|"{field.name}"\s*:')
            callers = [path for path, text in sources.items()
                       if path != declared and setting.search(text)]
            assert callers, f"{cls.__name__}.{field.name} has no caller"


def test_undecodable_transport_message_counted_not_fatal():
    system = IsisCluster(n_sites=2, seed=100)
    system.run_for(1.0)
    # Inject garbage bytes at the transport level.
    system.site(0).transport.send(1, b"\xde\xad\xbe\xef")
    system.run_for(2.0)
    assert system.sim.trace.value("kernel.undecodable") == 1
    assert system.kernel(1).alive


def test_undecodable_bulk_blob_counted_not_fatal():
    system = IsisCluster(n_sites=2, seed=100)
    system.run_for(1.0)
    # Header says one field; the field's name is not UTF-8.
    system.site(0).open_bulk_stream(1).send(
        b"\x49\xd2\x00\x01\x00\x02\xff\xfe\x00")
    system.run_for(2.0)
    assert system.sim.trace.value("kernel.undecodable") == 1
    assert system.kernel(1).alive


def test_unknown_protocol_counted_not_fatal():
    system = IsisCluster(n_sites=2, seed=101)
    system.run_for(1.0)
    system.kernel(0).send_to_site(1, Message(_proto="zz.unknown", x=1))
    system.run_for(2.0)
    assert system.sim.trace.value("kernel.unknown_proto") == 1


def test_a_relayed_flush_batch_is_an_unknown_protocol():
    """Flush pre-reports go straight to the coordinator; a ``g.fl.okb``
    bundle of them, as an older kernel relayed them up the tree, names
    no protocol: counted and dropped, its reports untaken."""
    system = IsisCluster(n_sites=2, seed=101)
    system.run_for(1.0)
    gid = make_group_address(0, 42)
    report = Message(_proto="g.fl.ok", gid=gid, fid=[2, 0, 1], pre=True,
                     have_b=encode_have_vector({0: 3}), abp=[], abd=[])
    system.kernel(0).send_to_site(1, Message(
        _proto="g.fl.okb", gid=gid, root=1, reports=[[0, report.encode()]]))
    system.run_for(2.0)
    assert system.sim.trace.value("kernel.unknown_proto") == 1
    assert system.sim.trace.value("kernel.bad_message") == 0
    assert gid.process() not in system.kernel(1).engines
    assert system.kernel(1).alive


def test_send_to_down_site_rejects_promise():
    system = IsisCluster(n_sites=2, seed=102)
    system.run_for(1.0)
    system.crash_site(0)
    kernel = system.kernel(1)
    # The local site is up, sending into the void is fine (retransmits
    # until the view change resets the channel) — but sending FROM a
    # dead site must reject.
    dead_site = system.site(0)
    with pytest.raises(SiteDown):
        dead_site.send_bytes(1, b"x")


def test_stub_raises_when_site_has_no_kernel():
    system = IsisCluster(n_sites=2, seed=103)
    process, isis = system.spawn(0, "app")
    system.crash_site(0)

    # The process is dead; the stub's hop detects the missing kernel.
    from repro.errors import SiteDown as SD
    with pytest.raises(SD):
        isis._kernel()


@pytest.mark.parametrize("proto", [[1], {"g": 1}])
def test_an_unhashable_proto_names_no_protocol(proto):
    """A symbol table whose ``_proto`` is a list or a dict names no
    protocol, alone or as a refill's envelope: counted, never raised out
    of the transport (it once escaped as ``TypeError``)."""
    system = IsisCluster(n_sites=2, seed=104)
    system.run_for(1.0)
    kernel = system.kernel(1)
    kernel._on_transport_message(0, Message(_proto=proto).encode())
    kernel._on_transport_message(0, Message(
        _proto="g.fl.data", gid=make_group_address(0, 42), fid=[2, 1, 0],
        msgs=[Message(_proto=proto)]).encode())
    system.run_for(1.0)
    assert system.sim.trace.value("kernel.unknown_proto") == 1
    assert system.sim.trace.value("kernel.bad_message") == 1
    assert kernel.alive


def test_group_data_for_unknown_group_buffers_quietly():
    """A data message for a group we never heard of must not crash the
    kernel (it buffers as pre-view traffic of a future welcome)."""
    system = IsisCluster(n_sites=2, seed=104)
    system.run_for(1.0)
    ghost = make_group_address(0, 42)
    env = Message(_proto="g.cb", gid=ghost, view=3, origin=0, gseq=1,
                  m=Message(x=1), entry=16, cb_sender=ghost, cb_seq=1,
                  cb_ctx=b"\x00\x00")
    system.kernel(0).send_to_site(1, env)
    system.run_for(2.0)
    assert system.kernel(1).alive
    engine = system.kernel(1).engines.get(ghost.process())
    assert engine is not None and not engine.installed
    assert [view for view, _ in engine.pipeline._pre_view] == [3]


#: A well-formed ``stab`` blob about view 1, the view the probe runs in.
_BLOB = encode_stab(1, (2, 1), {0: 3, 1: 5})
#: Not bytes, a proper prefix of a blob, a blob and one byte more.
_NOT_A_BLOB = ("x", _BLOB[:-1], _BLOB + b"\x00")
_TR = dict(_proto="g.tr", view=1, root=0, tid=1)
#: A well-formed ``g.cb`` of the probe's view 1 from site 0, the head of
#: its sender's chain: one group (not one the probe hosts) of one member,
#: counted by rank.
_SENDER = make_process_address(0, 0, 9)
_GHOST = make_group_address(0, 42)
_HEAD = b"\x00\x01" + _GHOST.pack() + b"\x01\x01\x01"
_CB = dict(_proto="g.cb", view=1, origin=0, gseq=1, m=Message(x=1), entry=16,
           cb_sender=_SENDER, cb_seq=1, cb_ctx=_HEAD)
#: One data envelope, encoded: what a well-formed ``g.batch`` carries.
_BATCHED = Message(gid=_GHOST, **_CB).encode()
#: A proposal, encoded and cut one byte short.
_ABP_CUT = Message(_proto="g.abp", gid=_GHOST, view=1, ref=[0, 1],
                   prio=[1, 0]).encode()[:-1]


def _next(moved, have):
    """The next of that chain, ``moved`` being its one moved entry:
    refused, at the parser (``have`` as the head left it) or, if only
    its positions are wrong, once its predecessor is known (in the store
    by then)."""
    return dict(_CB, gseq=2, cb_seq=2, before=_CB, have=have,
                cb_ctx=b"\x01\x00\x01" + moved + b"\x00")




@pytest.mark.parametrize("fields", [
    dict(_proto="g.stab.a"),
    dict(_proto="g.stab.a", stab=7),
    dict(_proto="g.stab.a", stab=_BLOB[:3]),            # no vector
    dict(_proto="g.stab.dn"),
    dict(_proto="g.stab.dn", stab=_BLOB + _BLOB),
    dict(_proto="g.stab.up", stab=_BLOB),               # no site count
    dict(_proto="g.stab.up", stab=_BLOB, n="1"),
    dict(_proto="g.stab.dn", stab=[[0, 3]]),
    # A field that should be bytes and is not, or is not there.
    dict(_CB, stab="x"),
    dict(_proto="g.stab.up", n=1),
    dict(_proto="g.stab.dn", stab=None),
    # A flush id that is not three integers, or is not there.
    dict(_proto="g.fl.commit", fid=[1]),
    dict(_proto="g.fl.begin"),
    dict(_proto="g.fl.begin", fid=[1, 2]),
    dict(_proto="g.fl.expect", fid="x"),
    dict(_proto="g.fl.data", fid=[3]),
    # A batch whose blob is not bytes, or not a blob, or whose envelope
    # list is not one: the whole batch is dropped, nothing is believed.
    dict(_proto="g.batch", envs=[_BATCHED], stab="x"),
    dict(_proto="g.batch", envs=[_BATCHED], stab=None),
    dict(_proto="g.batch", envs=[_BATCHED], stab=1.5),
    dict(_proto="g.batch", envs=[_BATCHED], stab=1),    # was bytes(1): {}
    dict(_proto="g.batch", envs=[_BATCHED], stab=[1, 0, 7]),
    dict(_proto="g.batch", envs=7),
    # Every note kind x every way its one field is not a blob.
    *[dict(_proto=proto, stab=bad, n=1)
      for proto in ("g.stab.a", "g.stab.up", "g.stab.dn")
      for bad in _NOT_A_BLOB],
    dict(_proto="g.batch", envs=[_BATCHED], stab=_BLOB[:-1]),
    dict(_proto="g.batch", envs=[_BATCHED], stab=_BLOB + b"\x00"),
    # The union cut of a flush is a have-vector in bytes.
    dict(_proto="g.fl.expect", fid=[2, 1, 0]),
    dict(_proto="g.fl.expect", fid=[2, 1, 0], union_b=[[0, 3]]),
    dict(_proto="g.fl.expect", fid=[2, 1, 0], union_b=b"\x02\x00\x03"),
    # ABCAST ordering notes: a ref and a priority are integer pairs, a
    # stamp an integer triple; a proposal or a final names its view.
    dict(_proto="g.abp", view=1, prio=[1, 0]),
    dict(_proto="g.abp", view=1, ref=[0], prio=[1, 0]),
    dict(_proto="g.abf", view=1, ref=[0], prio=[1, 0]),
    dict(_proto="g.abf", view=1, ref=[0, 1]),
    dict(_proto="g.abf", ref=[0, 1], prio=[1, 0]),
    dict(mode="sequencer", _proto="g.abs", stamps=[[0, 1, 1]]),
    dict(mode="sequencer", _proto="g.abs", view=1),
    dict(mode="sequencer", _proto="g.abs", view=1, stamps=[[0]]),
    dict(mode="sequencer", _proto="g.abs", view=1, stamps=7),
    # A tree wrapper names its view, root and id, and wraps a message.
    {k: v for k, v in _TR.items() if k != "view"},
    {k: v for k, v in _TR.items() if k != "tid"},
    dict(_TR, root="0", inner=_BATCHED),
    dict(_TR),
    dict(_TR, inner="x"),
    dict(_TR, inner=b"\x49\xd2\x00"),
    dict(_TR, inner=Message(x=1).encode()),
    dict(_TR, inner=_ABP_CUT),
    # A data envelope names its view, origin, gseq and entry and carries a
    # message, and a ``g.cb`` its sender, its sequence number and a
    # context that parses: refused before the store hears of it.
    *[dict({k: v for k, v in _CB.items() if k != gone}, have={})
      for gone in ("gseq", "view", "origin", "cb_sender", "cb_seq", "m",
                   "entry", "cb_ctx")],
    dict(_CB, cb_ctx="x", have={}),
    dict(_CB, cb_ctx=_HEAD[:-1], have={}),
    dict(_CB, cb_ctx=b"\x01\x00\x00\x00", have={}),     # a delta at cb_seq 1
    dict(_CB, cb_seq=0, have={}),
    dict(_CB, _proto="g.xx", have={}, via_batch=True),
    # A delta whose ranks do not ascend, or whose positions name nothing
    # its predecessor holds: group 1 of 1, rank 1 of 1 (a moved entry is
    # 4k + 2*prefix + adjacent, a gap unless adjacent, then its body).
    _next(b"\x09\x01\x02\x00\x02", have={0: 1}),
    _next(b"\x06\x00\x02", have={0: 2}),
    _next(b"\x05\x01\x02", have={0: 2}),
    # A join request names its group and joiner by address, a state
    # transfer carries one form of state, a state chunk its place in the
    # stream by integers: parsed before any join state, stream buffer or
    # timer.
    dict(_proto="st.chunk", xid=1, idx=0, n=1, data=b"x", without="gid"),
    dict(_proto="st.chunk", xid=1, idx="0", n=1, data=b"x"),
    dict(_proto="st.data", segments={}, without="gid"),
    dict(_proto="st.data", segments={"s": [1]}),
    dict(_proto="st.data"),                         # neither form
    dict(_proto="g.join", gid=5, joiner=_SENDER, cred=None),
    dict(_proto="g.join", joiner=_SENDER, cred=None, wal_view="x"),
    dict(_proto="g.join"),                          # no joiner
    dict(_proto="g.join", joiner=7),
    # A rejoin position has one spelling: a view (>= 0) and a delivered
    # set in its canonical form, both or neither.
    dict(_proto="g.join", joiner=_SENDER, cred=None, wal_view=-1, wal_dlv=[]),
    dict(_proto="g.join", joiner=_SENDER, cred=None, wal_view=2),
    dict(_proto="g.join", joiner=_SENDER, cred=None, wal_dlv=[[0, 2, []]]),
    dict(_proto="g.join", joiner=_SENDER, cred=None, wal_view=2,
         wal_dlv=[[0, 2, [3]]]),                    # 3 raises the floor
    dict(_proto="g.join", joiner=_SENDER, cred=None, wal_view=2,
         wal_dlv=[[1, 2, []], [0, 2, []]]),         # origins not sorted
    # Every other routed protocol, without the field its handler reads
    # first: each of these escaped ``run_for`` before the declaration.
    dict(_proto="rpc.reply"),                       # no session
    dict(_proto="rpc.dispatched"),
    dict(_proto="g.fwd.nak"),                       # no hint
    dict(_proto="g.welcome"),                       # no view
    dict(_proto="g.view_update"),
    dict(_proto="g.leave", member=7),               # not an address
    dict(_proto="g.leave"),
    dict(_proto="g.fwd"),                           # no kind
    dict(_proto="g.fwd", kind="cbcast", entry=16, nwant=0),  # no m
    dict(_proto="g.join.refused", without="gid"),   # no gid
    dict(_proto="g.watch", without="gid"),
    dict(_proto="g.fl.commit", fid=[2, 1, 0]),      # no event
    dict(_proto="g.fl.pull", fid=[2, 1, 0]),        # no sends
    dict(_proto="g.fl.filled"),                     # no fid
    dict(_proto="g.fl.data", fid=[2, 1, 0], msgs=7),
    dict(_proto="sv.join"),                         # no site
    dict(_proto="sv.probe"),
    dict(_proto="sv.propose"),                      # no view_id
    dict(_proto="sv.commit"),
    dict(_proto="ns.upd"),                          # no seq
    dict(_proto="ns.snap"),
    dict(_proto="ns.q"),                            # no q
    dict(_proto="ns.qr"),
])
def test_misshapen_stability_note_counted_not_fatal(fields):
    """A well-formed message of the wrong shape is outside input like
    undecodable bytes: counted once (``kernel.bad_message``), dropped
    whole, and the kernel carries on.  With ``have``, what the store
    vouches for afterwards: a refused data envelope must not be in it.

    A message whose fields its row refuses has no wire form: its
    sender's ``encode()`` refuses it, and the receiver refuses it the
    same way when it is handed over without one (``_dispatch``)."""
    fields = dict(fields)
    mode = fields.pop("mode", "two_phase")
    system = IsisCluster(n_sites=2, seed=109, isis_config=IsisConfig(
        dissemination="tree", abcast_mode=mode))
    process, isis = system.spawn(1, "m1")
    box = {}

    def create():
        box["gid"] = yield isis.pg_create("notes")

    process.spawn(create(), "create")
    system.run_for(3.0)
    assert system.kernel(1).engines[box["gid"].process()].view.view_id == 1
    have = fields.pop("have", None)
    before = fields.pop("before", None)
    if before is not None:
        system.kernel(0).send_to_site(1, Message(gid=box["gid"], **before))
    via_batch = fields.pop("via_batch", False)
    without = fields.pop("without", None)
    msg = Message(**{"gid": box["gid"], **fields})
    if without is not None:
        del msg[without]
    if via_batch:       # the only way in for an envelope of another tag
        msg = Message(_proto="g.batch", gid=box["gid"], envs=[msg.encode()])
    try:
        msg.encode()
    except CodecError:
        assert msg["_proto"] in PROTOCOLS
        system.kernel(1)._dispatch(0, msg)
    else:
        system.kernel(0).send_to_site(1, msg)
    system.run_for(2.0)
    assert system.sim.trace.value("kernel.bad_message") == 1
    assert system.kernel(1).alive
    if have is not None:
        engine = system.kernel(1).engines[box["gid"].process()]
        assert engine.store.have_vector() == have
        assert engine.causal.pending_count == 0
        assert engine.causal.delivered == (
            {_SENDER.pack(): 1} if before else {})
        assert len(system.kernel(1).causal_check.wait_index) == 0
        if before:      # the chain is as the head left it
            chain = engine.causal._chains[_SENDER.pack()]
            assert [entry[1:] for entry in chain.context.entries()] == [
                (1, [1])]


def test_stale_group_message_dropped():
    system = IsisCluster(n_sites=2, seed=105)
    members = []
    deliveries = []
    p0, isis0 = system.spawn(0, "m0")
    p0.bind(16, lambda msg: deliveries.append(msg))
    gid_box = {}

    def create():
        gid_box["gid"] = yield isis0.pg_create("edge")

    p0.spawn(create(), "create")
    system.run_for(3.0)
    engine = system.kernel(0).engines[gid_box["gid"].process()]
    # Hand the engine a message from an obsolete view.
    env = Message(_proto="g.cb", gid=gid_box["gid"], view=0, origin=1,
                  gseq=1, m=Message(x=1), entry=16,
                  cb_sender=p0.address.process(), cb_seq=1,
                  cb_ctx=b"\x00\x00")
    engine.kernel._dispatch(1, env)
    system.run_for(2.0)
    assert deliveries == []
    assert system.sim.trace.value("engine.stale_view_drop") == 1


def test_heartbeats_flow_between_sites():
    system = IsisCluster(n_sites=2, seed=106)
    system.run_for(5.0)
    assert system.sim.trace.value("fd.suspicions") == 0
    # Both monitors have fresh arrival state.
    for site in (0, 1):
        assert not system.kernel(site).heartbeat.suspected


def test_loopback_send_pays_encoding():
    """send_to_site to self still round-trips the codec (fidelity)."""
    system = IsisCluster(n_sites=1, seed=107)
    system.run_for(1.0)
    got = []
    system.kernel(0).attach("rx.spawn", lambda src, record: got.append(
        (src, record[2])))
    system.kernel(0).send_to_site(0, Message(
        _proto="rx.spawn", program="p", args=[b"\x00\x01"]))
    system.run_for(1.0)
    assert got == [(0, [b"\x00\x01"])]


def test_second_member_join_same_site():
    """Two members of one group on the same site share the engine."""
    system = IsisCluster(n_sites=2, seed=108)
    got = {"a": [], "b": []}
    pa, isis_a = system.spawn(0, "a")
    pb, isis_b = system.spawn(0, "b")
    pa.bind(16, lambda msg: got["a"].append(msg["q"]))
    pb.bind(16, lambda msg: got["b"].append(msg["q"]))
    gid_box = {}

    def create():
        gid_box["gid"] = yield isis_a.pg_create("samesite")

    pa.spawn(create(), "create")
    system.run_for(3.0)

    def join():
        yield isis_b.pg_join(gid_box["gid"])

    pb.spawn(join(), "join")
    system.run_for(30.0)

    def send():
        yield isis_a.cbcast(gid_box["gid"], 16, q="both")

    pa.spawn(send(), "send")
    system.run_for(10.0)
    assert got["a"] == ["both"]
    assert got["b"] == ["both"]
    # One engine serves both local members.
    assert len(system.kernel(0).engines) == 1


def test_cluster_restart_after_total_failure():
    """All sites crash; the site-view bootstrap reforms the system."""
    system = IsisCluster(n_sites=3, seed=109)
    system.run_for(5.0)
    for site in range(3):
        system.crash_site(site)
    system.run_for(5.0)
    for site in range(3):
        system.restart_site(site)
    system.run_for(120.0)
    views = [system.kernel(s).site_view for s in range(3)]
    assert all(v is not None for v in views)
    assert all(set(v.sites()) == {0, 1, 2} for v in views)
    # New incarnations everywhere.
    assert all(v.incarnation_of(s) == 1 for v in views for s in v.sites())
