"""News service (§3.9).

*"This service allows processes to enroll in a system-wide news facility.
Each subscriber receives a copy of any messages having a 'subject' for
which it has enrolled, in the order they were posted.  Although modeled
after net-news, the news service is an active entity that informs
processes immediately on learning of an event about which they have
expressed interest."*

Server processes form a group; posts are ABCAST among them (giving the
"order they were posted"); each server forwards matching posts to the
subscribers it registered.  Table I: ``subscribe`` = 1 local RPC per
posting; ``post`` = 1 async CBCAST or ABCAST.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.groups import Isis
from ..msg.address import Address
from ..msg.message import Message
from ..sim.tasks import Promise
from .entries import NEWS_CTL_ENTRY, NEWS_DELIVERY_ENTRY, NEWS_POST_ENTRY
from .transfer import register_state

NEWS_GROUP = "@news"


def _hand_to_subscriber(kernel, record: tuple) -> None:
    """A ``news.item`` reached the subscriber's site: hand it over."""
    msg, _subject, _seq, _body, to = record
    process = kernel.site.process_by_id(to.local_id)
    if process is not None and process.alive:
        copy = msg.copy()
        copy["_entry"] = NEWS_DELIVERY_ENTRY
        kernel.sim.post(kernel.site.local_hop_delay, process.deliver, copy)


class NewsServer:
    """One server replica of the news service."""

    def __init__(self, isis: Isis):
        self.isis = isis
        #: subject -> subscriber addresses (replicated via ABCAST ordering).
        self._subscribers: Dict[str, List[Address]] = {}
        self._post_seq = 0
        isis.process.bind(NEWS_POST_ENTRY, self._on_post)
        isis.process.bind(NEWS_CTL_ENTRY, self._on_control)
        register_state(isis, "news", self._snapshot, self._restore)

    # -- replicated operations (delivered in the same order everywhere) --
    def _on_control(self, msg: Message) -> None:
        subject = msg["subject"]
        subscriber: Address = msg["subscriber"]
        subs = self._subscribers.setdefault(subject, [])
        if msg["op"] == "sub":
            if subscriber not in subs:
                subs.append(subscriber)
        else:
            if subscriber in subs:
                subs.remove(subscriber)
        self.isis.process.spawn(self._ack(msg), "news.ack")

    def _ack(self, msg: Message):
        view = yield self.isis.pg_view(msg.group)
        if view is not None and view.rank_of(self.isis.process.address) == 0:
            yield self.isis.reply(msg, ok=True)
        else:
            yield self.isis.null_reply(msg)

    def _on_post(self, msg: Message) -> None:
        self._post_seq += 1
        subject = msg["subject"]
        subscribers = self._subscribers.get(subject, [])
        # Each subscriber is served by one server — the one at its site if
        # any, else the oldest server — so it gets exactly one copy.
        self.isis.process.spawn(
            self._forward(msg, subject, list(subscribers), self._post_seq),
            "news.forward")

    def _forward(self, msg: Message, subject: str,
                 subscribers: List[Address], seq: int):
        view = yield self.isis.pg_view(msg.group)
        if view is None:
            return
        my_addr = self.isis.process.address.process()
        server_sites = {m.site for m in view.members}
        for subscriber in subscribers:
            if subscriber.site in server_sites:
                responsible = subscriber.site == my_addr.site and \
                    view.members_at(my_addr.site)[0].process() == my_addr
            else:
                responsible = view.rank_of(self.isis.process.address) == 0
            if not responsible:
                continue
            kernel = getattr(self.isis.process.site, "kernel", None)
            if kernel is None:
                continue
            note = Message(
                _proto="news.item", subject=subject, seq=seq,
                body=msg.get("body"), to=subscriber,
            )
            kernel.send_to_site(subscriber.site, note)

    # -- state transfer --------------------------------------------------
    def _snapshot(self) -> list:
        # The post counter travels too: a joiner that outlives us must
        # number the next post past the ones subscribers already have.
        return [self._post_seq, self._subscribers]

    def _restore(self, state: list) -> None:
        self._post_seq, subscribers = state
        self._subscribers = {subject: list(subs)
                             for subject, subs in subscribers.items()}


class NewsClient:
    """Subscriber/poster API for any process."""

    def __init__(self, isis: Isis, gid: Address):
        self.isis = isis
        self.gid = gid
        self._callbacks: Dict[str, List[Callable[[Message], None]]] = {}
        self._last_seq: Dict[str, int] = {}
        # Several NewsClients may coexist in one process (e.g. a reader
        # and a poster): they share one delivery entry binding.
        clients = getattr(isis.process, "_news_clients", None)
        if clients is None:
            clients = []
            isis.process._news_clients = clients

            def fan_out(msg: Message) -> None:
                for client in clients:
                    client._on_item(msg)

            isis.process.bind(NEWS_DELIVERY_ENTRY, fan_out)
        clients.append(self)
        kernel = getattr(isis.process.site, "kernel", None)
        if kernel is not None:
            kernel.attach("news.item", lambda src_site, record:
                          _hand_to_subscriber(kernel, record))

    # -- API -----------------------------------------------------------------
    def subscribe(self, subject: str,
                  callback: Callable[[Message], None]) -> Promise:
        """Enroll for a subject; resolves once the servers registered us."""
        self.isis.sim.trace.bump("tool.news_subscribe")
        self._callbacks.setdefault(subject, []).append(callback)
        return self.isis.abcast(
            self.gid, NEWS_CTL_ENTRY, nwant=1, op="sub", subject=subject,
            subscriber=self.isis.process.address.process())

    def cancel(self, subject: str) -> Promise:
        self._callbacks.pop(subject, None)
        return self.isis.abcast(
            self.gid, NEWS_CTL_ENTRY, nwant=1, op="unsub", subject=subject,
            subscriber=self.isis.process.address.process())

    def post(self, subject: str, body: str) -> Promise:
        """Post an item (Table I: 1 async CBCAST or ABCAST — we use
        ABCAST so all subscribers see posts in the same order)."""
        self.isis.sim.trace.bump("tool.news_post")
        return self.isis.abcast(self.gid, NEWS_POST_ENTRY, nwant=0,
                                subject=subject, body=body)

    def _on_item(self, msg: Message) -> None:
        subject = msg["subject"]
        seq = msg["seq"]
        last = self._last_seq.get(subject, 0)
        if seq <= last:
            return  # duplicate (e.g. server failover overlap)
        self._last_seq[subject] = seq
        for callback in self._callbacks.get(subject, []):
            callback(msg)
