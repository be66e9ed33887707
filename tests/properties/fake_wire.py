"""An in-memory wire for :class:`repro.net.reliable.ReliableEndpoint`.

The third adapter, next to the simulator's and the UDP one: frames are
Python objects handed from one endpoint to the other after ``latency``,
and a per-frame *fate* (deliver, drop, duplicate, or hold back past its
successors) is read from a list the test supplies.  Time is a bare
:class:`~repro.sim.Simulator`, so a scenario of hundreds of frames and
minutes of backoff runs in milliseconds, without a LAN, a CPU model or a
cluster.
"""

from typing import Dict, Iterable, List, Tuple

from repro.net.packet import Frame
from repro.net.reliable import ReliableEndpoint

DELIVER, DROP, DUPLICATE = "deliver", "drop", "duplicate"
# An int k >= 1 is a fate too: hold the frame back k extra latencies, so
# frames sent up to k latencies after it overtake it.


class _Armed:
    __slots__ = ("clock", "fn", "args", "timer")

    def __init__(self, clock, fn, args):
        self.clock, self.fn, self.args = clock, fn, args

    def fire(self):
        self.clock.armed.discard(self)
        self.fn(*self.args)

    def cancel(self):
        self.clock.armed.discard(self)
        self.timer.cancel()


class CountingClock:
    """The core's view of a simulator, remembering the timers it armed."""

    def __init__(self, sim):
        self.sim = sim
        self.trace = sim.trace
        self.armed = set()

    @property
    def now(self) -> float:
        return self.sim.now

    def call_after(self, delay, fn, *args):
        handle = _Armed(self, fn, args)
        handle.timer = self.sim.call_after(delay, handle.fire)
        self.armed.add(handle)
        return handle


class FakeWire:
    """Carries frames between the endpoints attached to it."""

    def __init__(self, sim, fates: Iterable = (), latency: float = 0.1):
        self.sim = sim
        self.latency = latency
        #: What happens to the frames carried next; exhausted, they arrive.
        self.fates = iter(fates)
        self.endpoints: Dict[int, "FakeEndpoint"] = {}

    def heal(self) -> None:
        """Every frame from now on is delivered, once and in order."""
        self.fates = iter(())

    def carry(self, frame: Frame) -> None:
        fate = next(self.fates, DELIVER)
        if fate == DROP:
            return
        held = fate if isinstance(fate, int) else 0
        self.sim.call_after(self.latency * (1 + held), self._arrive, frame)
        if fate == DUPLICATE:
            self.sim.call_after(self.latency, self._arrive, frame)

    def _arrive(self, frame: Frame) -> None:
        endpoint = self.endpoints.get(frame.dst_site)
        if endpoint is not None:
            endpoint._receive(frame)


class FakeEndpoint(ReliableEndpoint):
    """The core with a :class:`FakeWire` under it.

    ``emit_delay > 0`` stands in for the simulator's CPU queue: a data
    frame reaches the wire that long after it was emitted, which is what
    exercises ``_after_emitted`` and a reset overtaking queued frames.
    ``window`` replaces the core's ``WINDOW`` for this endpoint.
    """

    #: Sized for fast tests: a message of 40 bytes is five fragments.
    MTU = 8
    RTO = 1.0
    MAX_RTO = 8 * RTO

    def __init__(self, wire: FakeWire, site_id: int, epoch: int,
                 emit_delay: float = 0.0,
                 window: int = ReliableEndpoint.WINDOW):
        self.inbox: List[Tuple[int, bytes]] = []
        super().__init__(CountingClock(wire.sim), site_id, epoch,
                         lambda src, data: self.inbox.append((src, data)))
        self.WINDOW = window
        self.wire = wire
        self.emit_delay = emit_delay
        wire.endpoints[site_id] = self

    def _emit(self, channel, frame) -> None:
        if self.emit_delay > 0:
            self.wire.sim.call_after(self.emit_delay, self._on_wire,
                                     channel, frame)
        else:
            self._on_wire(channel, frame)

    def _wire(self, frame: Frame) -> None:
        self.frames_sent += 1
        self.wire.carry(frame)

    def _after_emitted(self, fn, *args) -> None:
        self.wire.sim.call_after(self.emit_delay, fn, *args)

    def _detach(self) -> None:
        if self.wire.endpoints.get(self.site_id) is self:
            del self.wire.endpoints[self.site_id]
