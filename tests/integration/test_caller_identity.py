"""Where a multicast's caller travels, and that every path still names it.

A member multicasting to its own group is the envelope's sender
(``cb_sender`` / ``ab_sender``), and the envelope carries its session:
the user message holds neither.  Every other caller — a process outside
the view sending through a member at its site, a request forwarded to
the coordinator (``g.fwd``), a GBCAST — is named in the user message.
A reply names its responder once too, as ``rpc.reply``'s ``responder``.
Whichever way it travelled, a member is handed the caller's ``sender``
and ``session`` and its reply reaches the caller.
"""

import pathlib

import pytest

from conformance import deploy_group, tap_wire
from repro import ALL, IsisCluster
from repro.core.kernel import ProtocolsProcess
from repro.core.rpc import CC_REPLY_ENTRY

#: The entry the members answer at; ``reply_cc`` calls one that only
#: member 0 answers, with copies to the group.
ASK, ASK_CC = 17, 18


def _sessions(system, site):
    """The ids of the sessions ``site``'s kernel opens from now on."""
    opened = []
    table = system.kernel(site).rpc.sessions
    create = table.create

    def recorded(caller, nwant):
        session = create(caller, nwant)
        opened.append(session.id)
        return session

    table.create = recorded
    return opened


def _deploy():
    """Members of ``g`` at sites 0-2 that answer at :data:`ASK` and
    :data:`ASK_CC` and record what they are handed; site 3 hosts none."""
    system = IsisCluster(n_sites=4, seed=5)
    members, _ = deploy_group(system, "g", 3, join_wait=5.0)
    handed = {site: [] for site in range(3)}
    copies = {site: [] for site in range(3)}
    for site, (process, isis) in enumerate(members):
        def ask(msg, site=site, isis=isis):
            handed[site].append(msg)
            isis.reply(msg, who=site)

        def ask_cc(msg, site=site, isis=isis):
            handed[site].append(msg)
            if site == 0:
                isis.reply_cc(msg, msg.group, who=site)
            else:
                isis.null_reply(msg)

        process.bind(ASK, ask)
        process.bind(ASK_CC, ask_cc)
        process.bind(CC_REPLY_ENTRY, copies[site].append)
    return system, members, handed, copies


#: path -> (site of the caller, whether it is member 1, kind, entry, nwant)
PATHS = {
    "member": (1, True, "cbcast", ASK, ALL),
    "non-member at a member site": (1, False, "abcast", ASK, ALL),
    "forwarded from a non-member site": (3, False, "cbcast", ASK, ALL),
    "gbcast": (1, True, "gbcast", ASK, ALL),
    "reply_cc": (2, True, "cbcast", ASK_CC, 1),
}


@pytest.mark.parametrize("path", list(PATHS))
def test_every_path_hands_over_the_caller_and_answers_it(path):
    site, member, kind, entry, nwant = PATHS[path]
    system, members, handed, copies = _deploy()
    if member:
        caller, isis = members[site]
    else:
        caller, isis = system.spawn(site, "visitor")
    sent, opened = tap_wire(system, 4), _sessions(system, site)

    def call():
        gid = yield isis.pg_lookup("g")
        return (yield isis.bcast(gid, entry, nwant, kind=kind, q=path))

    task = caller.spawn(call(), "call")
    system.run_for(10.0)
    assert len(opened) == 1
    who = caller.address.process()
    for site_handed in handed.values():
        assert [(msg.sender, msg.session, msg["q"]) for msg in site_handed] \
            == [(who, opened[0], path)]
    replies = task.value
    expected = [0] if entry == ASK_CC else [0, 1, 2]
    assert sorted(reply["who"] for reply in replies) == expected
    for reply in replies:
        assert reply.sender == members[reply["who"]][0].address.process()
    if entry == ASK_CC:
        answered_by = members[0][0].address.process()
        for site_copies in copies.values():
            assert [(copy.sender, copy["cc_session"]) for copy in site_copies] \
                == [(answered_by, opened[0])]
    # The caller is named once on every data envelope that carries it.
    for msg in sent:
        if msg["_proto"] in ("g.cb", "g.ab") and "q" in msg["m"]:
            user = msg["m"]
            assert "_reply_to" not in user
            assert ("session" in msg) + ("_session" in user) == 1
            assert ("session" in msg) is member
        if msg["_proto"] == "rpc.reply" or "cc_session" in msg.get("m", ()):
            assert "_sender" not in msg["m"]    # the responder sends it


@pytest.mark.parametrize("kind", ["cbcast", "abcast"])
def test_a_members_envelope_names_its_caller_once(kind):
    """A member's ``g.cb`` / ``g.ab``: the envelope's sender and session,
    and a user message of the caller's fields alone."""
    system, members, _, _ = _deploy()
    sent = tap_wire(system, 4)
    caller, isis = members[1]
    opened = _sessions(system, 1)
    proto = "g.cb" if kind == "cbcast" else "g.ab"

    def burst():
        gid = yield isis.pg_lookup("g")
        for i in range(3):
            yield isis.bcast(gid, ASK, 0, kind=kind, n=i, p=bytes(64))

    caller.spawn(burst(), "burst")
    system.run_for(5.0)
    envelopes = [msg for msg in sent if msg["_proto"] == proto]
    assert len(envelopes) == 3 * 2           # three sends, two peer sites
    for env in envelopes:
        assert env[proto[2:] + "_sender"] == caller.address.process()
        assert env["session"] in opened
        assert list(env["m"]) == ["n", "p"]


def test_the_envelope_names_the_caller_whatever_the_fields_say():
    """Only the kernel writes a caller's system fields: a member that
    passes ``_sender`` / ``_session`` of its own is handed over as the
    envelope's sender with its real session."""
    system, members, handed, _ = _deploy()
    caller, isis = members[1]
    opened = _sessions(system, 1)
    other = members[2][0].address.process()

    def call():
        gid = yield isis.pg_lookup("g")
        yield isis.bcast(gid, ASK, 0, _sender=other, _session=999, q="forged")

    caller.spawn(call(), "call")
    system.run_for(5.0)
    for site_handed in handed.values():
        assert [(msg.sender, msg.session) for msg in site_handed] \
            == [(caller.address.process(), opened[0])]


def test_steady_sim_groups_cbcast_bytes(monkeypatch):
    """The benchmark's ``sim-groups`` set-up (8 sites, 64 groups of 4,
    64 B payloads, causal contexts across groups): the last 100 ``g.cb``
    of its warm-up average 572.08 B, of which the user message is 88 B —
    the payload and its tag alone.  With ``_sender``, ``_session`` and
    ``_reply_to`` in the user message these read 629.18 B and 145 B."""
    root = str(pathlib.Path(__file__).resolve().parents[2])
    monkeypatch.syspath_prepend(root)
    from bench.harness import Run
    from bench.spec import BY_NAME

    sizes = []
    send = ProtocolsProcess.send_to_site

    def tapped(kernel, dst_site, msg):
        if msg["_proto"] == "g.cb":
            sizes.append((msg.size_bytes, msg["m"].size_bytes))
        return send(kernel, dst_site, msg)

    monkeypatch.setattr(ProtocolsProcess, "send_to_site", tapped)
    run = Run(BY_NAME["sim-groups"], seed=1, seconds=2)
    try:
        run.setup()
    finally:
        run.close()
    steady = sizes[-100:]
    assert {user for _, user in steady} == {88}
    assert sum(size for size, _ in steady) == 57_208
