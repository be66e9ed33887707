"""Entry-point table: routine selectors within a process.

§4.1 "Entries": *"Each process using ISIS binds routines to any entry
point on which it will receive messages.  Entry points are known to
callers through 1-byte identifiers."*  Handlers may be plain callables
(run inline) or generator functions (run as a new lightweight task —
"When a message arrives, a new task is started up").
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional

from ..errors import IsisError


class EntryTable:
    """Maps 1-byte entry numbers to handler routines."""

    def __init__(self) -> None:
        self._handlers: Dict[int, Callable] = {}

    def bind(self, entry: int, handler: Callable) -> None:
        """Bind ``handler`` to ``entry`` (rebinding replaces)."""
        if not (0 <= entry <= 0xFF):
            raise IsisError(f"entry number {entry} out of range 0..255")
        if not callable(handler):
            raise IsisError(f"handler for entry {entry} is not callable")
        self._handlers[entry] = handler

    def lookup(self, entry: int) -> Optional[Callable]:
        return self._handlers.get(entry)

    @staticmethod
    def spawns_task(handler: Callable) -> bool:
        """True if ``handler`` is a generator function (needs a task)."""
        return inspect.isgeneratorfunction(handler)
