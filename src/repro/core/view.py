"""Group views: agreed, age-ranked membership epochs.

§3.2: *"Each member sees the same sequence of membership changes ...
Moreover, the membership list is sorted in order of decreasing age,
providing a natural ranking on the members, and one that is the same at
all members."*

A view is immutable; changes produce a successor with ``view_id + 1``.
Every group multicast is tagged with the view it was sent in and is
delivered in that view or not at all (view synchrony).  User-level
GBCASTs and configuration updates also advance the view id (with the
same member list), which is how they obtain their "ordered relative to
everything" semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CodecError, GroupError
from ..msg.address import Address


@dataclass(frozen=True)
class View:
    """One membership epoch of a process group."""

    gid: Address
    view_id: int
    members: Tuple[Address, ...]  # oldest first

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise GroupError(f"duplicate members in view of {self.gid}")

    # -- ranking -----------------------------------------------------------
    def rank_of(self, member: Address) -> int:
        """Age rank (0 = oldest); -1 if not a member."""
        target = member.process()
        for rank, addr in enumerate(self.members):
            if addr.process() == target:
                return rank
        return -1

    def contains(self, member: Address) -> bool:
        return self.rank_of(member) >= 0

    def coordinator(self) -> Address:
        """The oldest member (runs flushes, picks restart sources)."""
        if not self.members:
            raise GroupError(f"view {self.view_id} of {self.gid} is empty")
        return self.members[0]

    # -- sites -----------------------------------------------------------------
    def member_sites(self) -> Tuple[int, ...]:
        """Sites hosting at least one member, ascending, deduplicated."""
        return tuple(sorted({m.site for m in self.members}))

    def members_at(self, site_id: int) -> List[Address]:
        return [m for m in self.members if m.site == site_id]

    # -- derivation ---------------------------------------------------------------
    def with_members(self, members: Tuple[Address, ...]) -> "View":
        """Successor view with a new member list (id advances by one)."""
        return View(gid=self.gid, view_id=self.view_id + 1, members=members)

    def successor_same_members(self) -> "View":
        """Successor view marking a GBCAST/config event (same members)."""
        return View(gid=self.gid, view_id=self.view_id + 1, members=self.members)

    def without(self, departed: List[Address]) -> "View":
        gone = {d.process() for d in departed}
        remaining = tuple(m for m in self.members if m.process() not in gone)
        return self.with_members(remaining)

    def adding(self, joiner: Address) -> "View":
        """Successor with ``joiner`` appended (joiners are youngest)."""
        if self.contains(joiner):
            raise GroupError(f"{joiner} already in view of {self.gid}")
        return self.with_members(self.members + (joiner.process(),))

    # -- wire form -----------------------------------------------------------------
    def to_value(self) -> Dict:
        """Message-embeddable form."""
        return {
            "gid": self.gid,
            "view_id": self.view_id,
            "members": list(self.members),
        }

    @classmethod
    def from_wire(cls, gid: Address, view_id: int,
                  members: List[Address]) -> "View":
        """The view a ``to_value`` off the wire names (``msg/wire.py``'s
        view codec): :class:`CodecError` if a member repeats."""
        try:
            return cls(gid=gid, view_id=view_id, members=tuple(members))
        except GroupError as err:
            raise CodecError(str(err)) from None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(str(m) for m in self.members)
        return f"View({self.gid} #{self.view_id}: [{names}])"
