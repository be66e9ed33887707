"""Process and group addresses.

§4.1 of the paper: *"ISIS supports a highly encoded process addressing
scheme that represents addresses using an 8-byte identifier.  Group
addresses can be used in any context where a process address is
acceptable."*

Our 8-byte layout (big-endian):

====== ======= =========================================================
offset  size   field
====== ======= =========================================================
0       1      flags (bit 0: group address; bit 1: null address)
1       2      site id
3       1      site incarnation (bumps on site restart)
4       2      local id (process number, or group number for groups)
6       1      entry point (routine selector within the process)
7       1      reserved (zero)
====== ======= =========================================================

Two addresses denote the same *process* when everything but the entry
byte matches; :meth:`Address.process` strips the entry.  Entries select
which bound routine receives a message (§4.1 "Entries").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Dict

from ..errors import AddressError

_FORMAT = ">BHBHBB"
_FLAG_GROUP = 0x01
_FLAG_NULL = 0x02

ADDRESS_SIZE = 8

#: Generic entry numbers used by the toolkit itself (§4.1: "Some entry
#: points are generic ones used by the toolkit").  Application entries
#: must be >= ENTRY_USER_BASE.
ENTRY_DEFAULT = 0
ENTRY_JOIN = 1
ENTRY_VIEW_CHANGE = 2
ENTRY_CC_REPLY = 3       # GENERIC_CC_REPLY of §6
ENTRY_STATE_SEND = 4
ENTRY_STATE_RECV = 5
ENTRY_USER_BASE = 16

#: :meth:`Address.unpack` hands out one shared instance per distinct
#: packed form.  Live addresses are processes + groups + incarnations
#: (tens to hundreds); the table is cleared, not grown, past this cap.
#: The message decoder looks hits up here directly (a miss goes through
#: ``unpack``), so it stays keyed by the 8 packed bytes and is emptied in
#: place, never rebound.
_INTERN_CAP = 4096
_interned: Dict[bytes, "Address"] = {}


@dataclass(frozen=True, order=True)
class Address:
    """An 8-byte encodable process or group address."""

    site: int = 0
    incarnation: int = 0
    local_id: int = 0
    entry: int = 0
    is_group: bool = False
    is_null: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.site <= 0xFFFF):
            raise AddressError(f"site {self.site} out of range")
        if not (0 <= self.incarnation <= 0xFF):
            raise AddressError(f"incarnation {self.incarnation} out of range")
        if not (0 <= self.local_id <= 0xFFFF):
            raise AddressError(f"local_id {self.local_id} out of range")
        if not (0 <= self.entry <= 0xFF):
            raise AddressError(f"entry {self.entry} out of range")

    # -- encoding --------------------------------------------------------
    # The memos below live in the instance dict, not in fields, so
    # equality, ordering, ``replace`` and the intern table never see them.
    def pack(self) -> bytes:
        """Encode to the canonical 8-byte form."""
        try:
            return self._packed
        except AttributeError:
            pass
        flags = (_FLAG_GROUP if self.is_group else 0) | (
            _FLAG_NULL if self.is_null else 0
        )
        packed = struct.pack(
            _FORMAT, flags, self.site, self.incarnation, self.local_id,
            self.entry, 0,
        )
        object.__setattr__(self, "_packed", packed)
        return packed

    def __hash__(self) -> int:
        # The hash the dataclass would derive from the fields, computed once.
        try:
            return self._hash
        except AttributeError:
            pass
        value = hash((self.site, self.incarnation, self.local_id, self.entry,
                      self.is_group, self.is_null))
        object.__setattr__(self, "_hash", value)
        return value

    @classmethod
    def unpack(cls, data: bytes) -> "Address":
        """Decode from 8 bytes.

        Addresses are immutable, so equal packed forms share one
        instance (a bounded intern table): decoding the same member for
        the thousandth time is a dictionary hit, not a construction.
        """
        try:
            addr = _interned.get(data)
        except TypeError:           # an unhashable buffer (bytearray)
            data = bytes(data)
            addr = _interned.get(data)
        if addr is not None:
            return addr
        if len(data) != ADDRESS_SIZE:
            raise AddressError(f"address must be {ADDRESS_SIZE} bytes, got {len(data)}")
        flags, site, inc, local_id, entry, reserved = struct.unpack(_FORMAT, data)
        if reserved or flags & ~(_FLAG_GROUP | _FLAG_NULL):
            # pack() never sets them, and a decoded message keeps its
            # input bytes as its encoding: only the canonical form passes.
            raise AddressError(f"address has reserved bits set: {bytes(data).hex()}")
        addr = cls(
            site=site,
            incarnation=inc,
            local_id=local_id,
            entry=entry,
            is_group=bool(flags & _FLAG_GROUP),
            is_null=bool(flags & _FLAG_NULL),
        )
        if len(_interned) >= _INTERN_CAP:
            _interned.clear()
        _interned[bytes(data)] = addr    # never pin a caller's buffer
        return addr

    # -- derivation ------------------------------------------------------
    def with_entry(self, entry: int) -> "Address":
        """Same destination, different entry point."""
        return replace(self, entry=entry)

    def process(self) -> "Address":
        """Identity of the process/group, ignoring the entry byte."""
        if self.entry == 0:
            return self
        twin = self.__dict__.get("_process")
        if twin is None:
            twin = replace(self, entry=0)
            object.__setattr__(self, "_process", twin)  # a memo, as above
        return twin

    @classmethod
    def null(cls) -> "Address":
        """The distinguished null address."""
        return cls(is_null=True)

    # -- predicates -------------------------------------------------------
    def same_process(self, other: "Address") -> bool:
        """True if both addresses name the same process (or group)."""
        return self.process() == other.process()

    def __str__(self) -> str:
        if self.is_null:
            return "<null>"
        kind = "grp" if self.is_group else "proc"
        return f"{kind}:{self.site}.{self.incarnation}.{self.local_id}@{self.entry}"

    __repr__ = __str__


def make_process_address(site: int, incarnation: int, local_id: int,
                         entry: int = 0) -> Address:
    """Address of a process hosted at ``site``."""
    return Address(site=site, incarnation=incarnation, local_id=local_id,
                   entry=entry)


def make_group_address(creator_site: int, group_number: int,
                       entry: int = 0) -> Address:
    """Address of a process group, minted at group-creation time.

    The incarnation byte is unused for groups (a group survives site
    restarts through the membership protocol, not through incarnations).
    """
    return Address(site=creator_site, incarnation=0, local_id=group_number,
                   entry=entry, is_group=True)
