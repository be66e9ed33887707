"""Coordinator-cohort tool (§3.3, internals in §6).

One group member (the *coordinator*) executes a requested action while
the others (*cohorts*) monitor its progress, taking over one by one as
failures occur.  Every participant calls :meth:`CoordCohortTool.run` from
the entry handler that received the request; the tool then:

1. picks the coordinator **deterministically** from the shared view —
   a participant at the caller's site if possible (to minimize latency),
   otherwise a circular scan of the participant list seeded by the
   caller's site id — *"because all the participants use the same plist
   and see the same group membership, all will agree on the same value
   for the coordinator, without any additional communication"*;
2. the coordinator runs ``action(msg)`` and sends its reply with copies
   to every cohort's GENERIC_CC_REPLY entry (``reply_cc``);
3. cohorts monitor the view: should the coordinator fail before the
   reply copy arrives, the next participant in the same deterministic
   order takes over — *"without interacting"*;
4. a cohort that sees the reply copy calls ``got_reply`` and stands down.

Non-participants are expected to null-reply (the §6 convention), which
keeps the caller's reply accounting exact.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional

from ..core.groups import Isis
from ..core.rpc import CC_REPLY_ENTRY
from ..core.view import View
from ..msg.address import Address
from ..msg.message import Message


def pick_coordinator(plist: List[Address], view: View,
                     caller_site: int) -> Optional[Address]:
    """The §6 selection rule, shared by all participants."""
    candidates = [p for p in plist if view.contains(p)]
    if not candidates:
        return None
    at_caller = [p for p in candidates if p.site == caller_site]
    if at_caller:
        return at_caller[0]
    start = caller_site % len(candidates)
    return candidates[start]


class _Run:
    """One active coordinator-cohort computation at one participant."""

    __slots__ = ("session", "gid", "plist", "action", "got_reply",
                 "caller_site", "msg", "executed", "done")

    def __init__(self, session: int, gid: Address, plist: List[Address],
                 action: Callable, got_reply: Optional[Callable],
                 caller_site: int, msg: Message):
        self.session = session
        self.gid = gid
        self.plist = plist
        self.action = action
        self.got_reply = got_reply
        self.caller_site = caller_site
        self.msg = msg
        self.executed = False
        self.done = False


class CoordCohortTool:
    """Per-process coordinator-cohort machinery."""

    def __init__(self, isis: Isis):
        self.isis = isis
        self._runs: Dict[int, _Run] = {}
        self._monitored: set = set()
        isis.process.bind(CC_REPLY_ENTRY, self._on_cc_reply)

    # ------------------------------------------------------------------
    def run(self, msg: Message, gid: Address, plist: List[Address],
            action: Callable[[Message], Any],
            got_reply: Optional[Callable[[Message], None]] = None):
        """Participate in a coordinator-cohort computation (generator).

        Call as ``yield from tool.run(...)`` inside the entry handler
        that received ``msg``.  ``action(msg)`` runs only at the current
        coordinator; it may be a plain function or a generator and must
        return a dict of reply fields.
        """
        self.isis.sim.trace.bump("tool.coord_cohort")
        session = msg.get("_session")
        if session is None:
            raise ValueError("coord-cohort request carries no session")
        caller = msg.sender
        caller_site = caller.site if caller is not None else 0
        run = _Run(session, gid, [p.process() for p in plist], action,
                   got_reply, caller_site, msg)
        self._runs[session] = run
        if gid.process() not in self._monitored:
            self._monitored.add(gid.process())
            yield self.isis.pg_monitor(gid, self._on_view_change)
        view = yield self.isis.pg_view(gid)
        if view is None:
            return
        yield from self._evaluate(run, view)

    # ------------------------------------------------------------------
    def _evaluate(self, run: _Run, view: View):
        if run.done or run.executed:
            return
        coordinator = pick_coordinator(run.plist, view, run.caller_site)
        if coordinator is None:
            run.done = True
            self._runs.pop(run.session, None)
            return
        if coordinator != self.isis.process.address.process():
            return  # we are a cohort: keep monitoring
        run.executed = True
        result = run.action(run.msg)
        if inspect.isgenerator(result):
            result = yield from result
        fields = dict(result or {})
        yield self.isis.reply_cc(run.msg, run.gid, **fields)
        run.done = True
        self._runs.pop(run.session, None)

    def _on_view_change(self, view: View) -> None:
        """A membership change: surviving cohorts re-pick the coordinator."""
        for run in list(self._runs.values()):
            if view.gid.process() != run.gid.process() or run.done:
                continue

            def takeover(run=run, view=view):
                yield from self._evaluate(run, view)

            self.isis.process.spawn(takeover(), "cc.takeover")

    def _on_cc_reply(self, msg: Message) -> None:
        """The coordinator's reply copy: deactivate our monitor (§6)."""
        session = msg.get("cc_session")
        run = self._runs.pop(session, None) if session is not None else None
        if run is None or run.done:
            return
        run.done = True
        if run.got_reply is not None:
            run.got_reply(msg)

    @property
    def active_runs(self) -> int:
        return len(self._runs)
