"""Correctness oracle: what virtual synchrony promised, checked after drain.

Input is what the application saw and nothing else: every member
incarnation's delivery log, the state it was handed when it joined, and
the final views.  Checked, per group:

* exactly-once: each incarnation's deliveries of one sender's stream of
  one kind are the contiguous run ``base, base+1, ...`` where ``base`` is
  the position its transferred state names (0 for founders) — so no
  duplicate, no gap and per-sender FIFO in one pass — and an incarnation
  alive at the end has reached the end of every stream;
* one ABCAST order: each incarnation's ABCAST sequence is the slice of the
  reference sequence that starts at its transferred ABCAST count;
* view agreement: every live member reports the same final view, and its
  sites are the live sites of the group.

Cross-kind interleaving (a sender's ABCASTs against its CBCASTs) is not
compared: it legitimately differs per site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .spec import AB

Stream = Tuple[int, int, int]  # (group, sender site, kind)


@dataclass
class Incarnation:
    """One life of one member process."""

    site: int
    log: List[int] = field(default_factory=list)      # multicast ids, in order
    times: List[float] = field(default_factory=list)  # driver clock, parallel
    #: Next expected position per stream, from the transferred state.
    base: Dict[Stream, int] = field(default_factory=dict)
    live: bool = True


@dataclass
class Verdict:
    failed: Set[int] = field(default_factory=set)   # multicast ids
    loose: int = 0            # failures that name no multicast
    problems: List[str] = field(default_factory=list)   # first few, to print

    def flag(self, ids, text: str) -> None:
        ids = list(ids)
        self.failed.update(ids)
        if not ids:
            self.loose += 1
        if len(self.problems) < 20:
            self.problems.append(text)

    @property
    def count(self) -> int:
        return len(self.failed) + self.loose


def check(streams: Sequence[Stream],
          incarnations: Sequence[Incarnation],
          group_sites: Sequence[Tuple[int, ...]],
          views: Optional[Dict[int, Dict[int, Tuple]]] = None,
          live_sites: Optional[Set[int]] = None) -> Verdict:
    """``streams[n]`` is the stream of multicast ``n``; ids are dense."""
    verdict = Verdict()
    position: List[int] = []          # id -> index within its stream
    members: Dict[Stream, List[int]] = {}
    for n, stream in enumerate(streams):
        ids = members.setdefault(stream, [])
        position.append(len(ids))
        ids.append(n)

    for inc in incarnations:
        nxt = dict(inc.base)
        for n in inc.log:
            stream = streams[n]
            if inc.site not in group_sites[stream[0]]:
                verdict.flag([n], f"site {inc.site} delivered #{n} of group "
                                  f"{stream[0]} it is not a member of")
                continue
            expected = nxt.get(stream, 0)
            if position[n] != expected:
                what = "duplicate or reordered" if position[n] < expected \
                    else "gap before"
                verdict.flag([n], f"site {inc.site}: {what} #{n} (stream "
                                  f"{stream} position {position[n]}, "
                                  f"expected {expected})")
            nxt[stream] = max(expected, position[n] + 1)
        if not inc.live:
            continue
        for stream, ids in members.items():
            if inc.site not in group_sites[stream[0]]:
                continue
            reached = nxt.get(stream, 0)
            if reached < len(ids):
                verdict.flag(ids[reached:],
                             f"site {inc.site} never delivered {len(ids) - reached}"
                             f" multicasts of stream {stream}")

    for g in range(len(group_sites)):
        orders = []
        for inc in incarnations:
            if inc.site not in group_sites[g]:
                continue
            order = [n for n in inc.log
                     if streams[n][0] == g and streams[n][2] == AB]
            offset = sum(count for stream, count in inc.base.items()
                         if stream[0] == g and stream[2] == AB)
            orders.append((inc.site, offset, order))
        reference: List[int] = []
        for _site, offset, order in orders:
            if offset == 0 and len(order) > len(reference):
                reference = order
        for site, offset, order in orders:
            expected = reference[offset:offset + len(order)]
            if order != expected:
                bad = [n for n, m in zip(order, expected) if n != m] \
                    or order[len(expected):]
                verdict.flag(bad, f"site {site} disagrees on the ABCAST order "
                                  f"of group {g} at offset {offset}")

    for g, by_site in (views or {}).items():
        want = tuple(sorted(s for s in group_sites[g]
                            if live_sites is None or s in live_sites))
        if tuple(sorted(by_site)) != want:
            verdict.flag((), f"group {g}: members on sites {sorted(by_site)}, "
                             f"expected {list(want)}")
        if len(set(by_site.values())) > 1:
            verdict.flag((), f"group {g}: final views disagree: {by_site}")
    return verdict
