"""Group RPC: multicasts from a kernel's processes, forwarding, replies.

A process's multicast to a group this kernel hosts is disseminated here;
to any other group it is *forwarded* (``g.fwd``) to a site that hosts
it, and re-forwarded until one says it dispatched it (``rpc.dispatched``).
A GBCAST is a request to the group's coordinator (``g.gb``).  A kernel
that is not a member *watches* a group (``g.watch``) to hear its views
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

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..errors import BroadcastFailed, NoSuchGroup
from ..msg.address import Address
from ..msg.message import Message
from ..sim.core import Simulator
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
#: A client's forwarded multicast is re-forwarded if no dispatch notice
#: is heard within the timeout, at most this many times.
FWD_RETRIES = 5
FWD_TIMEOUT = 5.0


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

    def get(self, session_id: int) -> Optional[Session]:
        return self._sessions.get(session_id)

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


class GroupRpc:
    """Owns the session table, the forwarding attempts, the GBCAST
    requests and the watchers of groups hosted elsewhere."""

    def __init__(self, kernel: "ProtocolsProcess"):
        self.kernel = kernel
        self.sim = kernel.sim
        self.site_id = kernel.site_id
        self.sessions = SessionTable(
            kernel.sim, resolve_delay=kernel.site.local_hop_delay)
        self._fwd_attempts: Dict[int, int] = {}
        self._fwd_tried: Dict[int, Set[int]] = {}
        #: Forwarded multicasts not yet acknowledged by a dispatcher.
        #: Needed for nwant=0 sends whose session resolves immediately:
        #: the fire-and-forget message must still reach a live member.
        self._fwd_unacked: Set[int] = set()
        self._client_monitors: Dict[
            Address, List[Callable[["View"], None]]] = {}
        self._watched_views: Dict[Address, Set[Address]] = {}

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
            engine.mcast(kind, self._disseminator(engine, process), user,
                         entry, on_dispatched=dispatched)
        else:
            self._forward_mcast(session.id, gid, kind, user, entry, nwant)
        return session.promise

    @staticmethod
    def _disseminator(engine: GroupEngine,
                      process: "IsisProcess") -> Address:
        """The member identity under which we disseminate (VC dimension)."""
        addr = process.address.process()
        if engine.view is not None and engine.view.contains(addr):
            return addr
        local = engine.local_members()
        if local:
            return local[0]
        return addr

    def _forward_mcast(self, session_id: int, gid: Address, kind: str,
                       user: Message, entry: int, nwant: int) -> None:
        attempts = self._fwd_attempts.get(session_id, 0)
        if attempts >= FWD_RETRIES:
            self._fwd_attempts.pop(session_id, None)
            self.sessions.note_session_failed(
                session_id, NoSuchGroup(f"cannot reach group {gid}"))
            return
        self._fwd_attempts[session_id] = attempts + 1
        self._fwd_unacked.add(session_id)
        contact = self.pick_contact(
            self._fwd_tried.setdefault(session_id, set()), gid)
        self.kernel.send_to_site(contact, Message(
            _proto="g.fwd", gid=gid.process(), kind=kind, m=user,
            entry=entry, session=session_id, caller_site=self.site_id,
            nwant=nwant,
        ))
        if nwant == 0:
            # Fire-and-forget for the *caller* — but the message must
            # still reach a live dispatcher, so the retry loop runs on.
            self.sessions.on_dispatched(session_id, [])
        # The contact may be down or stale: re-forward until the dispatch
        # notice arrives (the attempt counter bounds this, after which
        # a waiting caller gets its error code).
        self.sim.call_after(
            FWD_TIMEOUT,
            self._refwd_if_undispatched, session_id, gid, kind, user,
            entry, nwant)

    def pick_contact(self, tried: Set[int], gid: Address) -> int:
        """Best site to reach ``gid`` through: the cache, then alive
        sites not in ``tried`` (this attempt is added to it).

        A dead or stale contact is marked tried and the next attempt
        rotates to another operational site — any member site dispatches
        or forwards, non-members nak with a hint.
        """
        cached = self.kernel.contact_cache.get(gid.process(), gid.site)
        candidates = [cached] + sorted(self.kernel.alive_sites())
        for site in candidates:
            if site not in tried:
                tried.add(site)
                return site
        tried.clear()  # second sweep
        tried.add(cached)
        return cached

    def _refwd_if_undispatched(self, session_id: int, gid: Address,
                               kind: str, user: Message, entry: int,
                               nwant: int) -> None:
        if not self.kernel.alive:
            return
        session = self.sessions.get(session_id)
        if (session is not None and session.dispatched and nwant != 0) \
                or session_id not in self._fwd_unacked:
            self._fwd_attempts.pop(session_id, None)
            self._fwd_tried.pop(session_id, None)
            self._fwd_unacked.discard(session_id)
            return
        self._forward_mcast(session_id, gid, kind, user, entry, nwant)

    def _on_forwarded_mcast(self, src_site: int, record: tuple) -> None:
        _, gid, kind, user, entry, session_id, caller_site, _nwant = record
        engine = self.kernel.engines.get(gid.process())
        if engine is None or not engine.installed or engine.view is None:
            self.kernel.send_to_site(src_site, Message(
                _proto="g.fwd.nak", gid=gid, session=session_id,
                hint=self.kernel.contact_cache.get(gid.process()),
            ))
            return
        local = engine.local_members()
        disseminator = local[0] if local else engine.view.coordinator()

        def dispatched(view: "View") -> None:
            engine.watcher_sites.add(caller_site)
            if caller_site == self.site_id:
                self.sessions.on_dispatched(session_id, list(view.members),
                                            via_site=self.site_id)
            else:
                self.kernel.send_to_site(caller_site, Message(
                    _proto="rpc.dispatched", session=session_id,
                    members=list(view.members), via=self.site_id,
                ))

        engine.mcast(kind, disseminator, user, entry,
                     on_dispatched=dispatched)

    def _on_forward_nak(self, src_site: int, record: tuple) -> None:
        _, gid, session_id, hint = record
        if session_id < 0:
            return  # join-request nak: the join retry loop handles it
        if hint is not None:
            self.kernel.contact_cache[gid.process()] = hint
            self._fwd_tried.get(session_id, set()).discard(hint)
        self.sim.trace.bump("fwd.naks")
        # The timeout-driven retry loop will re-forward (to the hint or
        # to the next untried site); naks alone never fail the session.

    # -- gbcast ------------------------------------------------------------------
    def group_gbcast(self, process: "IsisProcess", gid: Address,
                     user: Message, entry: int, nwant: int) -> Promise:
        """GBCAST: delivered at a flush, ordered relative to everything.

        The flush itself is the multicast (counted as ``flush.runs``), so
        no separate ``mcast.gbcast`` counter is bumped here.
        """
        session = self._open_session(process, user, nwant)
        engine = self.kernel.engines.get(gid.process())
        reason = FlushReason(kind="gbcast", payload=user.encode(),
                             user_entry=entry)
        if engine is not None and engine.installed and engine.is_coordinator_site():
            engine.enqueue_reason(reason)
        else:
            contact = self.kernel.contact_cache.get(gid.process(), gid.site)
            self.kernel.send_to_site(contact, Message(
                _proto="g.gb", gid=gid.process(), m=user, entry=entry))
        if nwant == 0:
            self.sessions.on_dispatched(session.id, [])
        return session.promise

    def _on_gbcast_request(self, src_site: int, record: tuple) -> None:
        msg, gid, user, entry = record
        engine = self.kernel.coordinating_engine(gid, msg)
        if engine is not None:
            engine.enqueue_reason(FlushReason(
                kind="gbcast", payload=user.encode(), user_entry=entry))

    def note_gbcasts_dispatched(self, payloads: Optional[list],
                                view: "View") -> None:
        """A commit delivered ``payloads``: a GBCAST caller here learns
        its delivery view."""
        for _kind, m, _entry in payloads or ():
            session = m.get("_session")
            reply_to = m.get("_reply_to")
            if session is not None and reply_to is not None \
                    and reply_to.site == self.site_id:
                self.sessions.on_dispatched(session, list(view.members))

    # -- replies -----------------------------------------------------------------
    def send_reply(self, process: "IsisProcess", request: Message,
                   reply: Message, null: bool = False,
                   cc_gid: Optional[Address] = None) -> None:
        """Answer a group RPC (Table I: 1 async CBCAST)."""
        session = request.get("_session")
        reply_to: Optional[Address] = request.get("_reply_to")
        if session is None or reply_to is None:
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
                engine.mcast(CBCAST, process.address.process(), copy,
                             CC_REPLY_ENTRY, audited=False)

    def _on_reply(self, src_site: int, record: tuple) -> None:
        _, session, responder, reply, null = record
        self.sessions.on_reply(session, responder, reply, null)

    def _on_dispatched(self, src_site: int, record: tuple) -> None:
        _, session, members, via = record
        self._fwd_unacked.discard(session)
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
        engine = self.kernel.coordinating_engine(gid, msg)
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
