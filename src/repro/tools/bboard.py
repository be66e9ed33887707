"""Bulletin board tool (§3.11, after [Birman-d]).

*"In [Birman-d] we describe a very high level tool that supports
bulletin boards of the sort used in many artificial intelligence
applications.  Unlike the news service, the bulletin board facility is
linked directly into its clients and does not exist as a separate
entity; it is intended for high performance shared data management.
Processes can read and post messages on one or more shared bulletin
boards, and these operations are implemented using the multicast
primitives."*

Each participant is a group member holding a full replica; *reads are
local* (that is the "high performance" part) and *posts* are multicasts:

* ``post`` — CBCAST: posts by one process appear in order, concurrent
  posts may interleave (suits blackboard-style AI workloads);
* ``post_ordered`` — ABCAST: one agreed board order for all readers.

Boards are state-transfer segments, so late joiners see the full
history.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.engine import ABCAST, CBCAST
from ..core.groups import Isis
from ..msg.address import Address
from ..msg.message import Message
from ..sim.tasks import Promise
from .entries import BB_POST_ENTRY
from .transfer import register_state


class Posting:
    """One bulletin-board item."""

    __slots__ = ("board", "author", "subject", "body", "seq")

    def __init__(self, board: str, author: Optional[Address], subject: str,
                 body: Any, seq: int):
        self.board = board
        self.author = author
        self.subject = subject
        self.body = body
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Posting #{self.seq} {self.board}/{self.subject}>"


class BulletinBoard:
    """A process's replica of the shared bulletin boards."""

    def __init__(self, isis: Isis, gid: Address):
        self.isis = isis
        self.gid = gid
        self._boards: Dict[str, List[Posting]] = {}
        self._seq = 0
        self._watchers: Dict[str, List[Callable[[Posting], None]]] = {}
        isis.process.bind(BB_POST_ENTRY, self._on_post)
        register_state(isis, f"bb:{gid}", self._snapshot, self._restore)

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------
    def post(self, board: str, subject: str, body: Any) -> Promise:
        """Post asynchronously (CBCAST: per-author order preserved)."""
        self.isis.sim.trace.bump("tool.bb_post")
        return self.isis.cbcast(self.gid, BB_POST_ENTRY,
                                board=board, subject=subject, body=body)

    def post_ordered(self, board: str, subject: str, body: Any) -> Promise:
        """Post with one agreed order across all replicas (ABCAST)."""
        self.isis.sim.trace.bump("tool.bb_post")
        return self.isis.abcast(self.gid, BB_POST_ENTRY,
                                board=board, subject=subject, body=body)

    def _on_post(self, msg: Message) -> None:
        posting = self._add(msg["board"], msg.sender, msg["subject"],
                            msg["body"])
        for watcher in self._watchers.get(posting.board, []):
            watcher(posting)

    def _add(self, board: str, author: Optional[Address], subject: str,
             body: Any) -> Posting:
        self._seq += 1
        posting = Posting(board, author, subject, body, self._seq)
        self._boards.setdefault(board, []).append(posting)
        return posting

    # ------------------------------------------------------------------
    # Reading (local: "no cost", the point of the tool)
    # ------------------------------------------------------------------
    def read(self, board: str, subject: Optional[str] = None) -> List[Posting]:
        """All postings on a board (optionally filtered by subject)."""
        self.isis.sim.trace.bump("tool.bb_read")
        postings = self._boards.get(board, [])
        if subject is None:
            return list(postings)
        return [p for p in postings if p.subject == subject]

    def latest(self, board: str,
               subject: Optional[str] = None) -> Optional[Posting]:
        postings = self.read(board, subject)
        return postings[-1] if postings else None

    def boards(self) -> List[str]:
        return sorted(self._boards)

    def watch(self, board: str, callback: Callable[[Posting], None]) -> None:
        """Invoke ``callback(posting)`` as new items arrive."""
        self._watchers.setdefault(board, []).append(callback)

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def _snapshot(self) -> List[list]:
        """Every posting, in our delivery order: ``[board, author,
        subject, body]``."""
        postings = sorted((p for ps in self._boards.values() for p in ps),
                          key=lambda p: p.seq)
        return [[p.board, p.author, p.subject, p.body] for p in postings]

    def _restore(self, rows: List[list]) -> None:
        """Install a snapshot, numbering its postings 1, 2, ... again."""
        self._boards = {}
        self._seq = 0
        for board, author, subject, body in rows:
            self._add(board, author, subject, body)
