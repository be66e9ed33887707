"""Group RPC: multicasts from a kernel's processes, requests, replies.

A multicast to a group this kernel hosts is disseminated here.  Every
other request — a multicast to a group hosted elsewhere and any GBCAST
(``g.fwd``), a join (``g.join``), a leave (``g.leave``) — goes to the
group's coordinator by one rule, the request table
(:meth:`GroupRpc.request`; ARCHITECTURE.md, "One request rule"): sent
again when its site leaves the site view, when a new view of its group
is learned and every :data:`REQUEST_TIMEOUT`, until its commit notice;
failed (:class:`~repro.errors.NoSuchGroup`) only when every live site
naks it (``g.fwd.nak``).  A forwarded multicast or GBCAST is named by
its caller's ``(_sender, _session)``; every member records the ones it
delivers (:meth:`~repro.core.engine.GroupEngine.commit_request`), so a
retry of one is answered, not executed twice.  A kernel that is not a
member *watches* a group (``g.watch``) to hear its views
(``g.view_update``).  :class:`GroupRpc` is that part of one kernel.

§3.2: the caller indicates how many responses are desired (0, 1, k, or
ALL).  Replies travel as (logical) CBCASTs back to the caller.  A *null
reply* says "I will not answer" — standbys use it so clients need not
know they exist.  While collecting, *"the system waits until it has the
number desired, or until all the remaining destinations have failed"* —
failures are fed in from view changes, so a caller never hangs on a dead
member; if the count becomes unreachable the caller gets an error code
(:class:`~repro.errors.BroadcastFailed`).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Hashable, List,
                    Optional, Set)

from ..errors import BroadcastFailed, NoSuchGroup
from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Simulator, Timer
from ..sim.tasks import Promise
from .engine import CBCAST, GroupEngine
from .flush import FlushReason

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.process import IsisProcess
    from .kernel import ProtocolsProcess
    from .view import View

#: Sentinel for "wait for every (non-null) group member".
ALL = -1
#: Entry number for coordinator-cohort reply copies (GENERIC_CC_REPLY, §6).
CC_REPLY_ENTRY = 3
#: A request is sent again if its commit notice is not heard this long
#: after it was sent.
REQUEST_TIMEOUT = 5.0


class Session:
    """One outstanding group RPC at the caller's kernel."""

    def __init__(self, session_id: int, caller: Address, nwant: int):
        self.id = session_id
        self.caller = caller
        self.nwant = nwant
        self.promise = Promise(label=f"rpc.session{session_id}")
        self.replies: List[Message] = []
        self.responded: Set[Address] = set()   # normal or null
        self.nulls: Set[Address] = set()
        self.failed: Set[Address] = set()
        #: Delivery-view members expected to answer (None until known).
        self.expected: Optional[Set[Address]] = None
        self.dispatched = False
        #: Site that disseminated the multicast on our behalf.  If it dies
        #: while we wait, the message may have vanished atomically (it was
        #: delivered in the view it was sent in, or nowhere) — the caller
        #: gets an error code and reissues (§5).
        self.via_site: Optional[int] = None

    # -- events ----------------------------------------------------------
    def set_expected(self, members: List[Address],
                     via_site: Optional[int] = None) -> None:
        if self.expected is None:
            self.expected = {m.process() for m in members}
        if via_site is not None:
            self.via_site = via_site
        self.dispatched = True

    def offer_reply(self, responder: Address, reply: Message,
                    null: bool) -> None:
        key = responder.process()
        if key in self.responded:
            return  # duplicate replies are discarded silently (§3.2)
        self.responded.add(key)
        if null:
            self.nulls.add(key)
        else:
            self.replies.append(reply)

    def note_failed(self, member: Address) -> None:
        self.failed.add(member.process())

    # -- resolution ---------------------------------------------------------
    def check(self) -> Optional[str]:
        """Returns "done", "failed", or None (keep waiting)."""
        if self.promise.done:
            return None
        wanted = self.nwant
        if wanted == 0:
            return "done" if self.dispatched else None
        if wanted != ALL and len(self.replies) >= wanted:
            return "done"
        if self.expected is None:
            return None
        outstanding = self.expected - self.responded - self.failed
        if wanted == ALL:
            return "done" if not outstanding else None
        possible = len(self.replies) + len(outstanding)
        if possible < wanted:
            return "failed"
        return None


class SessionTable:
    """All outstanding sessions at one kernel."""

    def __init__(self, sim: Simulator, resolve_delay: float = 0.0):
        self.sim = sim
        #: Intra-site hop charged when handing results back to the caller.
        self.resolve_delay = resolve_delay
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1

    def create(self, caller: Address, nwant: int) -> Session:
        session = Session(self._next_id, caller, nwant)
        self._next_id += 1
        self._sessions[session.id] = session
        return session

    # -- event entry points ------------------------------------------------
    def on_dispatched(self, session_id: int, members: List[Address],
                      via_site: Optional[int] = None) -> None:
        session = self._sessions.get(session_id)
        if session is not None:
            session.set_expected(members, via_site)
            self._settle(session)

    def on_reply(self, session_id: int, responder: Address,
                 reply: Message, null: bool) -> None:
        session = self._sessions.get(session_id)
        if session is not None:
            session.offer_reply(responder, reply, null)
            self._settle(session)

    def note_members_failed(self, members: List[Address]) -> None:
        """Feed view-change removals into every open session."""
        keys = {m.process() for m in members}
        for session in list(self._sessions.values()):
            if session.expected is None:
                continue
            hit = keys & session.expected
            if not hit:
                continue
            for member in hit:
                session.note_failed(member)
            self._settle(session)

    def note_session_failed(self, session_id: int, error: Exception) -> None:
        session = self._sessions.pop(session_id, None)
        if session is not None and not session.promise.done:
            session.promise.reject(error)

    # -- internal ---------------------------------------------------------------
    def _settle(self, session: Session) -> None:
        verdict = session.check()
        if verdict is None:
            return
        self._sessions.pop(session.id, None)
        if verdict == "done":
            settle, outcome = session.promise.resolve, list(session.replies)
        else:
            settle, outcome = session.promise.reject, BroadcastFailed(
                f"session {session.id}: all remaining destinations failed "
                f"({len(session.replies)}/{session.nwant} replies)",
                replies=session.replies,
            )
        if self.resolve_delay > 0:
            self.sim.call_after(self.resolve_delay, settle, outcome)
        else:
            settle(outcome)

    @property
    def open_count(self) -> int:
        return len(self._sessions)


class _Request:
    """One request of this kernel's to a group's coordinator."""

    __slots__ = ("key", "gid", "msg", "fail", "site", "naked", "timer")

    def __init__(self, key: Hashable, gid: Address, msg: Message,
                 fail: Callable[[Exception], Any]):
        self.key = key
        self.gid = gid
        self.msg = msg
        self.fail = fail
        #: Where it was last sent.
        self.site: Optional[int] = None
        #: Sites that said they do not host the group.
        self.naked: Set[int] = set()
        self.timer: Optional[Timer] = None


class GroupRpc:
    """Owns the session table, the requests to coordinators and the
    watchers of groups hosted elsewhere."""

    def __init__(self, kernel: "ProtocolsProcess"):
        self.kernel = kernel
        self.sim = kernel.sim
        self.site_id = kernel.site_id
        self.sessions = SessionTable(
            kernel.sim, resolve_delay=kernel.site.local_hop_delay)
        #: Every outstanding request of this kernel, by its key:
        #: ``("g.fwd", session)``, ``("g.join", gid)`` or
        #: ``("g.leave", gid, member)``.
        self._requests: Dict[Hashable, _Request] = {}
        self._client_monitors: Dict[
            Address, List[Callable[["View"], None]]] = {}
        self._watched_views: Dict[Address, Set[Address]] = {}

    def shutdown(self) -> None:
        for req in self._requests.values():
            if req.timer is not None:
                req.timer.cancel()
        self._requests.clear()

    # -- the request table -----------------------------------------------------
    def request(self, key: Hashable, gid: Address, msg: Message,
                fail: Callable[[Exception], Any]) -> None:
        """Send ``msg`` to ``gid``'s coordinator, again and again until
        :meth:`settle` ``(key)``; ``fail(NoSuchGroup)`` when every live
        site says it does not host the group."""
        self.settle(key)    # a second leave of one member replaces the first
        req = self._requests[key] = _Request(key, gid.process(), msg, fail)
        self._send(req)

    def settle(self, key: Hashable) -> None:
        """The commit notice of request ``key`` arrived."""
        req = self._requests.pop(key, None)
        if req is not None and req.timer is not None:
            req.timer.cancel()

    def _send(self, req: _Request) -> None:
        if req.timer is not None:
            req.timer.cancel()
        site = self._target(req)
        if site is None:
            self.settle(req.key)
            req.fail(NoSuchGroup(f"no live site hosts group {req.gid}"))
            return
        req.site = site
        if req.key[0] == "g.fwd":
            user = req.msg["m"]
            user["_floor"] = min(key[1] for key in self._requests
                                 if key[0] == "g.fwd")
            req.msg["m"] = user     # the nested change re-encodes
        self.kernel.send_to_site(site, req.msg)
        req.timer = self.sim.call_after(REQUEST_TIMEOUT, self._send, req)

    def _target(self, req: _Request) -> Optional[int]:
        """The coordinator's site if the group is installed here, else
        the cached contact, else the lowest live site; never a site that
        naked the request."""
        engine = self.kernel.engines.get(req.gid)
        acting = engine.acting_coordinator() if engine is not None else None
        if acting is not None:
            return acting.site
        alive = self.kernel.alive_sites()
        cached = self.kernel.contact_cache.get(req.gid, req.gid.site)
        for site in [cached, *sorted(alive)]:
            if site in alive and site not in req.naked:
                return site
        return None

    def resend(self, match: Callable[[_Request], bool]) -> None:
        """Send again every outstanding request ``match`` picks: those
        that went to a site that left the site view, or were naked."""
        for req in list(self._requests.values()):
            if self._requests.get(req.key) is req and match(req):
                self._send(req)

    def _view_learned(self, gid: Address) -> None:
        for req in self._requests.values():
            if req.gid == gid:
                req.naked.clear()
        self.resend(lambda req: req.gid == gid)

    def _on_forward_nak(self, src_site: int, record: tuple) -> None:
        """``src_site`` does not host the group: its requests go on to
        the hint, or to the next live site."""
        _, gid, hint = record
        self.sim.trace.bump("fwd.naks")
        if hint is not None:
            self.kernel.contact_cache[gid.process()] = hint

        def naked(req: _Request) -> bool:
            return req.gid == gid.process() and req.site == src_site
        for req in filter(naked, self._requests.values()):
            req.naked.add(src_site)
        self.resend(naked)

    # -- multicast -------------------------------------------------------------
    def _open_session(self, process: "IsisProcess", user: Message,
                      nwant: int) -> Session:
        """A session for ``process``'s multicast ``user``, which names it."""
        caller = process.address.process()
        session = self.sessions.create(caller, nwant)
        user["_sender"] = caller
        user["_session"] = session.id
        user["_reply_to"] = caller
        return session

    def group_mcast(self, process: "IsisProcess", gid: Address, kind: str,
                    user: Message, entry: int, nwant: int) -> Promise:
        """CBCAST/ABCAST to a group, collecting ``nwant`` replies."""
        session = self._open_session(process, user, nwant)
        engine = self.kernel.engines.get(gid.process())
        if engine is not None and engine.installed:
            def dispatched(view: "View") -> None:
                self.sessions.on_dispatched(session.id, list(view.members))
            engine.mcast(kind, process.address, user, entry,
                         on_dispatched=dispatched)
        else:
            self._forward(session, gid, kind, user, entry, nwant)
        return session.promise

    def group_gbcast(self, process: "IsisProcess", gid: Address,
                     user: Message, entry: int, nwant: int) -> Promise:
        """GBCAST: delivered at a flush, ordered relative to everything.

        The flush itself is the multicast (counted as ``flush.runs``), so
        no separate ``mcast.gbcast`` counter is bumped here.
        """
        session = self._open_session(process, user, nwant)
        self._forward(session, gid, "gbcast", user, entry, nwant)
        return session.promise

    def _forward(self, session: Session, gid: Address, kind: str,
                 user: Message, entry: int, nwant: int) -> None:
        self.request(("g.fwd", session.id), gid, Message(
            _proto="g.fwd", gid=gid.process(), kind=kind, m=user,
            entry=entry, nwant=nwant,
        ), lambda error: self.sessions.note_session_failed(session.id, error))
        if nwant == 0:
            # Fire-and-forget for the *caller*; the request is still
            # sent until its commit notice arrives.
            self.sessions.on_dispatched(session.id, [])

    def _on_request(self, src_site: int, record: tuple) -> None:
        """The coordinator takes a forwarded multicast or a GBCAST: a
        retry of one its group delivered is answered, not executed."""
        msg, gid, kind, user, entry, _nwant = record
        engine = self.kernel.coordinating_engine(gid, msg, src_site)
        if engine is None:
            return
        caller, session = user["_sender"], user["_session"]

        def dispatched(view: "View") -> None:
            self._tell_dispatched(engine, caller.site, session, view,
                                  self.site_id)

        if kind != "gbcast":
            engine.mcast(kind, engine.local_members()[0], user, entry,
                         on_dispatched=dispatched, request=True)
        elif engine.is_committed(user):
            self.kernel.counters.bump("request.duplicates")
            self._tell_dispatched(engine, caller.site, session, engine.view,
                                  caller.site)
        else:
            engine.flush.enqueue_reason(FlushReason(
                kind="gbcast", payload=user.encode(), user_entry=entry))

    def _tell_dispatched(self, engine: GroupEngine, caller_site: int,
                         session: int, view: "View", via: int) -> None:
        """The commit notice: ``view`` delivers the caller's request,
        which ``via``'s failure may still lose (a GBCAST, delivered at
        its commit, names the caller's own site)."""
        engine.watcher_sites.add(caller_site)
        self.kernel.send_to_site(caller_site, Message(
            _proto="rpc.dispatched", session=session,
            members=list(view.members), via=via,
        ))

    def on_view_installed(self, engine: GroupEngine,
                          payloads: Optional[list], view: "View") -> None:
        """A commit installed ``view``: the callers of its GBCASTs learn
        their delivery view — here, or from the new coordinator when not
        at a member site — and every request still outstanding for the
        group is asked again."""
        coordinating = engine.is_coordinator_site()
        for _kind, m, _entry in payloads or ():
            caller, session = m.get("_sender"), m.get("_session")
            if caller is None or session is None:
                continue
            if caller.site == self.site_id:
                self.settle(("g.fwd", session))
                self.sessions.on_dispatched(session, list(view.members))
            elif coordinating and caller.site not in view.member_sites():
                self._tell_dispatched(engine, caller.site, session, view,
                                      caller.site)
        self._view_learned(engine.gid)

    # -- replies -----------------------------------------------------------------
    def send_reply(self, process: "IsisProcess", request: Message,
                   reply: Message, null: bool = False,
                   cc_gid: Optional[Address] = None) -> None:
        """Answer a group RPC (Table I: 1 async CBCAST).  A request the
        WAL replayed (``_replay``) was answered before the restart: its
        reply, and any cohort copy, is dropped."""
        session = request.get("_session")
        reply_to: Optional[Address] = request.get("_reply_to")
        if session is None or reply_to is None or request.get("_replay"):
            return
        # Null replies are control traffic, not logical multicasts.
        self.sim.trace.bump("mcast.null_reply" if null else "mcast.reply")
        reply = reply.copy()
        reply["_sender"] = process.address.process()
        note = Message(
            _proto="rpc.reply", session=session,
            responder=process.address.process(), null=null, m=reply,
        )
        if reply_to.site == self.site_id:
            self.sessions.on_reply(session, note["responder"], reply, null)
        else:
            self.kernel.send_to_site(reply_to.site, note)
        if cc_gid is not None and not null:
            engine = self.kernel.engines.get(cc_gid.process())
            if engine is not None and engine.installed:
                copy = reply.copy()
                copy["cc_session"] = session
                # Table I costs reply_cc as ONE async CBCAST whose
                # destination list includes the cohorts: not re-counted.
                engine.mcast(CBCAST, process.address, copy, CC_REPLY_ENTRY,
                             audited=False)

    def _on_reply(self, src_site: int, record: tuple) -> None:
        _, session, responder, reply, null = record
        self.sessions.on_reply(session, responder, reply, null)

    def _on_dispatched(self, src_site: int, record: tuple) -> None:
        _, session, members, via = record
        self.settle(("g.fwd", session))
        self.sessions.on_dispatched(session, members, via_site=via)

    def note_sites_failed(self, sites: Set[int]) -> None:
        """Sites left the site view (or are suspected): their members
        are failed respondents, and a multicast one of them disseminated
        for us may be lost."""
        for session in list(self.sessions._sessions.values()):
            if session.via_site is not None and session.via_site in sites \
                    and session.via_site != self.site_id:
                # The site that disseminated for us died: the multicast
                # may have been dropped atomically.  Error code → reissue.
                self.sessions.note_session_failed(
                    session.id,
                    BroadcastFailed(
                        f"session {session.id}: disseminating site "
                        f"{session.via_site} failed", session.replies))
                continue
            if session.expected is None:
                continue
            dead = [m for m in session.expected if m.site in sites]
            if dead:
                self.sessions.note_members_failed(dead)

    # -- watchers --------------------------------------------------------------
    def monitor_group(self, process: "IsisProcess", gid: Address,
                      callback: Callable[["View"], None]) -> Promise:
        """pg_monitor: invoke ``callback(view)`` on membership changes."""
        self.sim.trace.bump("tool.pg_monitor")
        promise = Promise(label=f"pg_monitor({gid})")
        engine = self.kernel.engines.get(gid.process())
        if engine is not None and engine.installed:
            engine.monitors.append(callback)
            promise.resolve(engine.view)
            return promise
        self._client_monitors.setdefault(gid.process(), []).append(callback)
        contact = self.kernel.contact_cache.get(gid.process(), gid.site)
        self.kernel.send_to_site(
            contact, Message(_proto="g.watch", gid=gid.process()))
        promise.resolve(None)
        return promise

    def tell_watchers(self, engine: GroupEngine, view: "View") -> None:
        """The coordinator committed ``view``: tell the watching sites."""
        update = Message(_proto="g.view_update", gid=engine.gid,
                         view=view.to_value())
        for watcher in set(engine.watcher_sites):
            if watcher != self.site_id:
                self.kernel.send_to_site(watcher, update)

    def _on_watch_request(self, src_site: int, record: tuple) -> None:
        msg, gid = record
        engine = self.kernel.coordinating_engine(gid, msg, src_site)
        if engine is None:
            return
        engine.watcher_sites.add(src_site)
        self.kernel.send_to_site(src_site, Message(
            _proto="g.view_update", gid=engine.gid,
            view=engine.view.to_value(),
        ))

    def _on_view_update(self, src_site: int, record: tuple) -> None:
        _, gid, view = record
        key = gid.process()
        if view.members:
            self.kernel.contact_cache[key] = view.coordinator().site
        previous = self._watched_views.get(key, set())
        current = {m.process() for m in view.members}
        removed = previous - current
        if removed:
            self.sessions.note_members_failed(sorted(removed))
        self._watched_views[key] = current
        for callback in self._client_monitors.get(key, []):
            callback(view)
        self._view_learned(key)
