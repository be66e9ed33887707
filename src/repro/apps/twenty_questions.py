"""The twenty-questions service (§5 of the paper).

*"Twenty questions may seem to be a frivolous application, but in fact it
is illustrative of a large class of serious ones.  Our program works by
partitioning a replicated database among several processes and supporting
queries on it."*

The paper develops the program in seven steps; all are implemented here
and selectable through :class:`TwentyQuestionsServer` options:

1. **Non-distributed version** — one server, the relational database.
2. **Distributed version** — NMEMBERS servers; *vertical* queries
   (``color = red``) answered by member ``column mod NMEMBERS``;
   *horizontal* queries (``*price > 9000``) answered by every member
   ``M`` over the rows ``R mod NMEMBERS == M``.  Both rely on the
   age-ranked view for consistent member numbering.
3. **Automatic member restart** — the oldest member respawns members
   via the remote-execution service when membership drops.
4. **Hot standby processes** — extra members that null-reply while
   ranked beyond NMEMBERS and take over instantly when a member fails.
5. **Dynamic updates** — queries are CBCASTs, updates are GBCASTs (the
   paper's chosen mix for query-heavy workloads).
6. **Restart from total failure** — run with ``IsisConfig.durability``:
   the kernel's write-ahead log holds every update the group delivered,
   and the recovery manager's restart path replays it (see
   :func:`register_program`).
7. **Dynamic load balancing** — the configuration tool re-maps member
   numbers at run time (``shuffle``).

The database is the paper's demonstration relation (its first rows are
reproduced verbatim in :data:`DEFAULT_DATABASE`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.groups import Isis
from ..core.view import View
from ..errors import BroadcastFailed, IsisError
from ..msg.message import Message
from ..runtime.process import IsisProcess
from ..sim.tasks import Promise, sleep
from ..tools.config import ConfigTool
from ..tools.rexec import remote_spawn
from ..tools.transfer import register_state

GROUP_NAME = "twenty"
QUERY_ENTRY = 16
UPDATE_ENTRY = 17
PICK_ENTRY = 18

COLUMNS = ["object", "color", "size", "price", "make", "model"]

#: §5's demonstration database ("the first 11 lines of the one we use").
DEFAULT_DATABASE: List[Dict[str, Any]] = [
    {"object": "car", "color": "red", "size": "small", "price": 5,
     "make": "Weeks", "model": "Toy"},
    {"object": "car", "color": "yellow", "size": "tiny", "price": 6,
     "make": "Mattel", "model": "Toy"},
    {"object": "car", "color": "black", "size": "compact", "price": 4995,
     "make": "Hyundai", "model": "Excel"},
    {"object": "car", "color": "tan", "size": "wagon", "price": 6190,
     "make": "Nissan", "model": "Sentra"},
    {"object": "car", "color": "green", "size": "sedan", "price": 10999,
     "make": "Ford", "model": "Taurus"},
    {"object": "car", "color": "blue", "size": "compact", "price": 5799,
     "make": "Honda", "model": "Civic"},
    {"object": "car", "color": "white", "size": "wagon", "price": 15248,
     "make": "Ford", "model": "Taurus"},
    {"object": "car", "color": "blue", "size": "sport", "price": 18409,
     "make": "Nissan", "model": "300ZX"},
    {"object": "car", "color": "blue", "size": "sport", "price": 26776,
     "make": "Porsche", "model": "944"},
    {"object": "car", "color": "white", "size": "sport", "price": 35000,
     "make": "Mercedes", "model": "300D"},
]

YES, NO, SOMETIMES = "yes", "no", "sometimes"


def parse_query(text: str) -> Tuple[bool, str, str, Any]:
    """Parse ``[*]column op value`` into (horizontal, column, op, value)."""
    text = text.strip()
    horizontal = text.startswith("*")
    if horizontal:
        text = text[1:]
    for op in ("!=", ">=", "<=", "=", ">", "<"):
        if op in text:
            column, raw = text.split(op, 1)
            column = column.strip()
            raw = raw.strip()
            if column not in COLUMNS:
                raise IsisError(f"unknown column {column!r}")
            value: Any = int(raw) if raw.lstrip("-").isdigit() else raw
            return horizontal, column, op, value
    raise IsisError(f"cannot parse query {text!r}")


def row_matches(row: Dict[str, Any], column: str, op: str, value: Any) -> bool:
    actual = row.get(column)
    if op == "=":
        return actual == value
    if op == "!=":
        return actual != value
    try:
        if op == ">":
            return actual > value
        if op == "<":
            return actual < value
        if op == ">=":
            return actual >= value
        if op == "<=":
            return actual <= value
    except TypeError:
        return False
    raise IsisError(f"unknown operator {op!r}")


def verdict(rows: List[Dict[str, Any]], column: str, op: str,
            value: Any) -> str:
    """yes / no / sometimes over a row subset (§5 query semantics)."""
    if not rows:
        return NO
    hits = sum(1 for row in rows if row_matches(row, column, op, value))
    if hits == len(rows):
        return YES
    if hits == 0:
        return NO
    return SOMETIMES


class TwentyQuestionsServer:
    """One back-end member of the twenty-questions service."""

    PROGRAM = "twenty-server"

    def __init__(
        self,
        process: IsisProcess,
        nmembers: int = 4,
        standby: bool = False,
        auto_restart: bool = False,
        database: Optional[List[Dict[str, Any]]] = None,
    ):
        self.process = process
        self.isis = Isis(process)
        self.nmembers = nmembers
        self.standby = standby
        self.auto_restart = auto_restart
        self.database: List[Dict[str, Any]] = [
            dict(row) for row in (database or DEFAULT_DATABASE)
        ]
        self.gid = None
        self.view: Optional[View] = None
        self.config: Optional[ConfigTool] = None
        self._secret: Optional[str] = None
        process.bind(QUERY_ENTRY, self._on_query)
        process.bind(UPDATE_ENTRY, self._on_update)
        process.bind(PICK_ENTRY, self._on_pick)
        register_state(self.isis, "twenty:db",
                       lambda: self.database,
                       self._restore_database)

    def _restore_database(self, rows: List[Dict[str, Any]]) -> None:
        self.database = [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # Startup (create / join)
    # ------------------------------------------------------------------
    def start(self, mode: str = "create", group_name: str = GROUP_NAME):
        """Generator: create the service or join it."""
        if mode == "create":
            self.gid = yield self.isis.pg_create(group_name)
        else:
            self.gid = yield self.isis.pg_lookup(group_name)
            view = yield self.isis.pg_join(self.gid)
            self.view = view
        self.config = ConfigTool(self.isis, self.gid)
        yield self.isis.pg_monitor(self.gid, self._on_view)
        view = yield self.isis.pg_view(self.gid)
        if view is not None:
            self.view = view
        return self.gid

    # ------------------------------------------------------------------
    # Member numbering (§5: rank in the age-ordered view)
    # ------------------------------------------------------------------
    def my_number(self) -> int:
        """This member's number: view rank plus the step-7 shuffle offset."""
        if self.view is None:
            return 0
        rank = self.view.rank_of(self.process.address)
        offset = self.config.read("shuffle", 0) if self.config else 0
        active = min(len(self.view.members), self.nmembers)
        if rank < 0 or active == 0:
            return -1
        return (rank + offset) % active if rank < self.nmembers else rank

    def is_active(self) -> bool:
        """Standbys beyond NMEMBERS stay passive (§5 step 4)."""
        if self.view is None:
            return False
        rank = self.view.rank_of(self.process.address)
        return 0 <= rank < self.nmembers

    def _active_count(self) -> int:
        if self.view is None:
            return 0
        return min(len(self.view.members), self.nmembers)

    def _on_view(self, view: View) -> None:
        self.view = view
        if self.auto_restart and view.rank_of(self.process.address) == 0:
            if len(view.members) < self.nmembers:
                self._restart_members(view)

    def _restart_members(self, view: View) -> None:
        """§5 step 3: the oldest member respawns missing members."""
        kernel = getattr(self.process.site, "kernel", None)
        if kernel is None or kernel.site_view is None:
            return
        missing = self.nmembers - len(view.members)
        used = {m.site for m in view.members}
        candidates = [s for s in kernel.site_view.sites() if s not in used]
        for site in candidates[:missing]:
            remote_spawn(kernel, site, self.PROGRAM)

    # ------------------------------------------------------------------
    # Query handling (§5 step 2)
    # ------------------------------------------------------------------
    def _on_query(self, msg: Message):
        horizontal = msg["horizontal"]
        column, op, value = msg["column"], msg["op"], msg["value"]
        if self.view is None or not self.is_active():
            yield self.isis.null_reply(msg)  # standby (§5 step 4)
            return
        number = self.my_number()
        active = self._active_count()
        rows = [row for row in self.database
                if self._secret is None or row["object"] == self._secret]
        if horizontal:
            mine = [row for i, row in enumerate(rows) if i % active == number]
            yield self.isis.reply(
                msg, answer=verdict(mine, column, op, value), member=number)
        else:
            responsible = COLUMNS.index(column) % active
            if number == responsible:
                yield self.isis.reply(
                    msg, answer=verdict(rows, column, op, value),
                    member=number)
            else:
                yield self.isis.null_reply(msg)

    # ------------------------------------------------------------------
    # Updates (§5 step 5)
    # ------------------------------------------------------------------
    def _on_update(self, msg: Message):
        self.database.append(dict(msg["row"]))
        if self.view is not None and \
                self.view.rank_of(self.process.address) == 0:
            yield self.isis.reply(msg, ok=True, size=len(self.database))
        else:
            yield self.isis.null_reply(msg)

    # ------------------------------------------------------------------
    # Game management: the secret category
    # ------------------------------------------------------------------
    def _on_pick(self, msg: Message):
        """Pick (or clear) the secret category — ABCAST keeps it agreed."""
        self._secret = msg["category"]
        if self.view is not None and \
                self.view.rank_of(self.process.address) == 0:
            yield self.isis.reply(msg, ok=True)
        else:
            yield self.isis.null_reply(msg)

    # ------------------------------------------------------------------
    # Load balancing (§5 step 7)
    # ------------------------------------------------------------------
    def shuffle(self, offset: int) -> Promise:
        """Re-map member numbers (run from any member)."""
        if self.config is None:
            raise IsisError("service not started")
        return self.config.update("shuffle", offset)


class TwentyQuestionsClient:
    """The interactive front end (§5: "160 lines for the front end")."""

    def __init__(self, process: IsisProcess, nmembers: int = 4,
                 group_name: str = GROUP_NAME):
        self.process = process
        self.isis = Isis(process)
        self.nmembers = nmembers
        self.group_name = group_name
        self.gid = None

    def connect(self):
        self.gid = yield self.isis.pg_lookup(self.group_name)
        return self.gid

    def pick_category(self, category: Optional[str]):
        """Start a game: all members agree on the secret via ABCAST."""
        if self.gid is None:
            yield from self.connect()
        yield self.isis.abcast(self.gid, PICK_ENTRY, nwant=1,
                               category=category)

    def ask(self, text: str, retries: int = 3):
        """Ask a question; returns (aggregate, per-member answers).

        Vertical: one reply expected; on failure the request is reissued
        (§5: *"the caller will now obtain an error code from the multicast
        ... and will have to reissue its request"*).  Horizontal: iterate
        until the expected number of member responses arrive (§5).
        """
        if self.gid is None:
            yield from self.connect()
        horizontal, column, op, value = parse_query(text)
        from ..core.rpc import ALL
        for attempt in range(retries + 1):
            try:
                replies = yield self.isis.cbcast(
                    self.gid, QUERY_ENTRY,
                    nwant=(ALL if horizontal else 1),
                    horizontal=horizontal, column=column, op=op, value=value)
            except BroadcastFailed:
                yield sleep(self.process.sim, 1.0)
                continue
            answers = {r["member"]: r["answer"] for r in replies}
            if horizontal and len(answers) < self.nmembers:
                # Fewer members than expected answered: §5 says iterate.
                yield sleep(self.process.sim, 0.5)
                continue
            return self._aggregate(answers), answers
        raise BroadcastFailed(f"query {text!r} failed after {retries} retries")

    @staticmethod
    def _aggregate(answers: Dict[int, str]) -> str:
        values = set(answers.values())
        if values == {YES}:
            return YES
        if values == {NO}:
            return NO
        return SOMETIMES

    def add_row(self, **row: Any):
        """§5 step 5: dynamic update — a GBCAST, serialized vs queries."""
        if self.gid is None:
            yield from self.connect()
        replies = yield self.isis.gbcast(self.gid, UPDATE_ENTRY, nwant=1,
                                         row=row)
        return replies[0]["size"] if replies else None


def register_program(cluster, nmembers: int = 4,
                     auto_restart: bool = False) -> None:
    """Register the server as a spawnable program (steps 3 and 6).

    Step 6: the recovery manager calls the factory with ``mode="create"``
    at the site that restarts the service after a total failure, and
    then replays that site's write-ahead log into the new server.
    """

    def factory(process: IsisProcess, mode: str = "join",
                group_name: str = GROUP_NAME) -> None:
        server = TwentyQuestionsServer(
            process, nmembers=nmembers, auto_restart=auto_restart)
        process.spawn(server.start(mode=mode, group_name=group_name),
                      "twenty.start")

    cluster.programs.register(TwentyQuestionsServer.PROGRAM, factory)
