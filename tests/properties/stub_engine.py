"""A group engine cut down to what a total-order stage touches.

:class:`StubEngine` builds the configured
:class:`~repro.core.ordering.OrderingEngine` over itself and records
what the stage delivers, sends and counts instead of running a kernel.
Notes reach the stage the way the kernel hands them on: parsed against
their row in ``msg/wire.py``, then routed by the pipeline's handler
table.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

from repro.core.kernel import PROTOCOLS
from repro.core.ordering import make_ordering
from repro.core.pipeline import DeliveryPipeline
from repro.core.view import View
from repro.msg.address import make_group_address, make_process_address
from repro.msg.message import Message

GID = make_group_address(0, 1)


class StubEngine:
    """One group at one site, view ``view_id`` over ``sites`` (the first
    holds the sequencer token), ordering in ``mode``."""

    def __init__(self, mode: str, site_id: int = 0, sites=(0, 1, 2),
                 view_id: int = 1):
        self.site_id = site_id
        self.gid = GID
        self.view = View(gid=GID, view_id=view_id, members=tuple(
            make_process_address(site, 0, 1) for site in sites))
        self.installed = True
        self.wedged = False
        #: Envelopes handed to local delivery, in order.
        self.delivered = []
        #: ``(site, note)`` sent to one site; notes sent to every peer.
        self.sent, self.to_peers = [], []
        #: Trace and kernel counters together; ``note_group_dirty`` calls.
        self.counts = Counter()
        self.dirty = 0
        #: What stability reports as the floor every member reached.
        self.group_floor = (0, 0)
        self.sim = SimpleNamespace(trace=SimpleNamespace(bump=self._bump))
        self.kernel = SimpleNamespace(
            counters=SimpleNamespace(bump=self._bump),
            config=SimpleNamespace(batch_window=0), alive=True,
            send_to_site=lambda site, note: self.sent.append((site, note)),
            note_group_dirty=self._note_dirty)
        self.pipeline = SimpleNamespace(
            dissemination=SimpleNamespace(to_peers=self._to_peers,
                                          broadcast_note=self._broadcast),
            stability=SimpleNamespace(group_floor=lambda: self.group_floor))
        self.stage = self.pipeline.total = make_ordering(
            mode, self, self.pipeline)

    def _bump(self, name, amount=1):
        self.counts[name] += amount

    def _note_dirty(self, gid):
        self.dirty += 1

    def _to_peers(self, note):
        self.to_peers.append(note)
        return [s for s in self.view.member_sites() if s != self.site_id]

    def _broadcast(self, note):
        return len(self._to_peers(note))

    def deliver_env(self, env):
        self.delivered.append(env)

    # -- driving the stage -------------------------------------------------
    def envelope(self, ref, /, **fields) -> Message:
        """The ``g.ab`` of ``ref`` in the installed view."""
        return Message(_proto="g.ab", gid=GID, view=self.view.view_id,
                       origin=ref[0], gseq=ref[1], m=Message(), entry=16,
                       **fields)

    def dispatch(self, src_site: int, note: Message) -> None:
        """``note`` from ``src_site``, parsed and routed as the kernel
        and the pipeline would."""
        proto = note["_proto"]
        record = PROTOCOLS[proto].read(note)
        DeliveryPipeline.HANDLERS[proto](self.pipeline)(src_site, record)

    def note(self, proto: str, view_id=None, **fields) -> Message:
        """A ``g.abp`` / ``g.abf`` (``ref``, ``prio``) or ``g.abs``
        (``stamps``) about ``view_id``, the installed view by default."""
        return Message(_proto=proto, gid=GID,
                       view=self.view.view_id if view_id is None else view_id,
                       **fields)

    def released(self, call, *args):
        """The envelopes ``call(*args)`` handed to local delivery."""
        start = len(self.delivered)
        call(*args)
        return self.delivered[start:]

    def hold(self, ref, /, **fields):
        """``ref``'s envelope arrives; what it released."""
        return self.released(self.stage.ingest, self.envelope(ref, **fields))

    def final(self, ref, prio):
        """A ``g.abf`` fixes ``ref`` at ``prio``; what it released."""
        return self.released(self.dispatch, 0, self.note(
            "g.abf", ref=list(ref), prio=list(prio)))

    def stamps(self, pairs, view_id=None):
        """A ``g.abs`` stamps ``(ref, seq)`` pairs; what it released."""
        return self.released(self.dispatch, 0, self.note(
            "g.abs", view_id,
            stamps=[[ref[0], ref[1], seq] for ref, seq in pairs]))
