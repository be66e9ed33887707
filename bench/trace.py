"""Per-layer attribution, done entirely from outside the program.

Three instruments, each run as its own pass over the same seeded work so
none pays for another:

* :class:`Counters` — reads what the program already exposes
  (``ProtocolsProcess.stats()``, transport ``stats()``, the shared
  ``trace`` counters, ``Simulator.stats()`` / ``AsyncioScheduler.stats()``)
  at the edges of the measured phase and reports the difference;
* :class:`Profile` — ``cProfile`` self time over the measured phase,
  bucketed by source file into the layers of ``LAYERS``;
* :class:`Spans` — class-level wrappers around each layer's public entry
  points: call count, inclusive host time, and four time stamps per
  multicast taken from the driver's own ``now``, so both drivers report
  hops in the same unit.

Nothing here edits ``src/``; :meth:`Spans.install` patches attributes and
:meth:`Spans.remove` puts the originals back.
"""

from __future__ import annotations

import cProfile
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .harness import Observer, Run
from .spec import LAYER_NAMES

#: layer -> path fragments; first match wins, so specific files precede
#: the package that holds them.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("wal", ("repro/core/wal.py", "repro/runtime/stable.py")),
    ("pipeline", ("repro/core/pipeline.py", "repro/core/tree.py")),
    ("ordering", ("repro/core/ordering.py", "repro/core/abcast.py",
                  "repro/core/cbcast.py", "repro/core/vectorclock.py")),
    ("engine", ("repro/core/engine.py", "repro/core/flush.py",
                "repro/core/view.py")),
    ("kernel", ("repro/core/",)),
    ("msg", ("repro/msg/",)),
    ("net", ("repro/net/",)),
    ("fd", ("repro/fd/",)),
    ("sim", ("repro/sim/",)),
    ("runtime", ("repro/runtime/", "/asyncio/", "/selectors.py",
                 "/socket.py")),
    ("bench", ("/bench/",)),
)
assert {name for name, _ in LAYERS} | {"other"} == set(LAYER_NAMES)


def layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for name, fragments in LAYERS:
        for fragment in fragments:
            if fragment in path:
                return name
    return "other"


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def snapshot(run: Run) -> Dict[str, float]:
    """Every counter the program exposes, flattened.

    Kernel and transport ``stats()`` are summed over the sites the
    workload never crashes (a restarted kernel starts from zero, which
    would turn a difference into nonsense); ``peak`` keys take the max.
    The shared trace counters are cluster-wide and survive crashes.
    """
    out: Dict[str, float] = dict(run.sched.trace.counters)
    for key, value in run.sched.stats().items():
        out[f"sched.{key}"] = value
    steady = [s for s in range(run.spec.n_sites)
              if s not in run.spec.churn_sites]
    for site in steady:
        kernel = getattr(run.driver.sites[site], "kernel", None)
        if kernel is None:
            continue
        for key, value in kernel.stats().items():
            name = f"k.{key}"
            if "peak" in key:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    out["n.steady_sites"] = len(steady)
    out["n.mcasts"] = len(run.m_stream)
    out["n.abcasts"] = sum(1 for _g, _s, kind in run.m_stream if kind)
    out["n.clock"] = run.sched.now
    out["n.state_bytes"] = run.state_bytes_sent
    return out


class Counters(Observer):
    """Counter differences over the workload's measured phase."""

    def __init__(self, phase: str):
        self.phase = phase
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}

    def begin(self, run: Run, phase: str) -> None:
        if phase == self.phase:
            self.before = snapshot(run)

    def end(self, run: Run, phase: str) -> None:
        if phase == self.phase:
            self.after = snapshot(run)

    def delta(self, key: str) -> float:
        return self.after.get(key, 0) - self.before.get(key, 0)

    def peak(self, key: str) -> float:
        return self.after.get(key, 0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
class Profile(Observer):
    """``cProfile`` over the measured phase, bucketed into layers."""

    #: Where the asyncio loop blocks when idle.  The profiler's clock is
    #: wall time, so this entry is the wait, not work: it is left out.
    IDLE = "<method 'poll' of 'select.epoll' objects>"

    def __init__(self, phase: str):
        self.phase = phase
        self.profiler = cProfile.Profile()
        self.cpu_s = 0.0
        self._cpu0 = 0.0
        self._on = False

    def begin(self, run: Run, phase: str) -> None:
        if phase == self.phase:
            self._on = True
            self.resume()

    def end(self, run: Run, phase: str) -> None:
        if phase == self.phase:
            self.pause()
            self._on = False

    # The harness's reference kernel must run at its usual speed for the
    # profiled pass's cost to come out at reference speed.
    def pause(self) -> None:
        if self._on:
            self.profiler.disable()
            self.cpu_s += time.process_time() - self._cpu0

    def resume(self) -> None:
        if self._on:
            self._cpu0 = time.process_time()
            self.profiler.enable()

    def by_layer(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds, calls)`` per layer.

        Time inside (and calls of) a builtin, generated code (dataclass
        methods) or an unlisted stdlib module go to the layer of the
        function that called it; what no layer called directly is left in
        ``other``.  Calls are a count, so on the simulator they repeat
        exactly however loaded the box is.
        """
        seconds = {name: 0.0 for name in LAYER_NAMES}
        calls = {name: 0 for name in LAYER_NAMES}
        cache: Dict[object, str] = {}

        def layer(code) -> str:
            if isinstance(code, str):
                return "other"
            found = cache.get(code.co_filename)
            if found is None:
                found = cache[code.co_filename] = layer_of(code.co_filename)
            return found

        for entry in self.profiler.getstats():
            if entry.code == self.IDLE:
                continue
            mine = layer(entry.code)
            seconds[mine] += entry.inlinetime
            calls[mine] += entry.callcount
            if mine == "other":
                continue
            for sub in entry.calls or ():
                if layer(sub.code) == "other" and sub.code != self.IDLE:
                    # Counted under ``other`` by its own entry: move it.
                    seconds[mine] += sub.inlinetime
                    seconds["other"] -= sub.inlinetime
                    calls[mine] += sub.callcount
                    calls["other"] -= sub.callcount
        seconds["other"] = max(0.0, seconds["other"])
        calls["other"] = max(0, calls["other"])
        return seconds, calls


# ----------------------------------------------------------------------
# Hop spans and entry-point counts
# ----------------------------------------------------------------------
def _entry_points():
    """``(layer, owner, attribute)`` of every wrapped entry point."""
    from repro.core import wal as wal_mod
    from repro.core.cbcast import CausalReceiver
    from repro.core.engine import GroupEngine
    from repro.core.kernel import ProtocolsProcess
    from repro.core.ordering import (LeaderOrdering, SequencerOrdering,
                                     TotalOrdering)
    from repro.core.pipeline import DeliveryPipeline
    from repro.fd.siteview import SiteViewAgent
    from repro.msg import message as message_mod
    from repro.msg.message import Message
    from repro.net import packet as packet_mod
    from repro.net.packet import Reassembler
    from repro.net.transport import Transport
    from repro.net.udp import UdpTransport
    from repro.runtime.stable import StableStore

    points = [
        ("msg", Message, "encode"), ("msg", Message, "decode"),
        ("msg", message_mod, "pack_batch"), ("msg", message_mod, "unpack_batch"),
        ("net", Transport, "send"), ("net", UdpTransport, "send"),
        ("net", packet_mod, "encode_datagram"),
        ("net", packet_mod, "decode_datagram"),
        ("net", packet_mod, "fragment"), ("net", Reassembler, "add"),
        ("pipeline", DeliveryPipeline, "submit"),
        ("pipeline", DeliveryPipeline, "receive"),
        ("pipeline", DeliveryPipeline, "ingest_data"),
        ("ordering", CausalReceiver, "offer"),
        ("engine", GroupEngine, "mcast"), ("engine", GroupEngine, "deliver_env"),
        ("engine", GroupEngine, "maybe_start_flush"),
        ("engine", GroupEngine, "_wedge"),
        ("wal", wal_mod.WalManager, "note_deliver"),
        ("wal", wal_mod.WalManager, "maybe_checkpoint"),
        ("wal", StableStore, "append"),
        ("fd", SiteViewAgent, "handle"),
        ("fd", ProtocolsProcess, "_send_heartbeat"),
    ]
    for cls in (TotalOrdering, SequencerOrdering, LeaderOrdering):
        for name in ("stamp", "ingest", "on_stamps", "on_proposal", "on_final"):
            if name in vars(cls):
                points.append(("ordering", cls, name))
    return points


class Spans(Observer):
    """Wrappers around the layers' entry points.

    Per entry point: calls and inclusive host seconds.  Per multicast
    (keyed by the benchmark's id ``n``, which the sender's
    ``DeliveryPipeline.submit`` maps to the envelope's
    ``(gid, origin, gseq)``): when ``submit`` returned at the sender, and
    per receiving site when ``ingest_data`` and ``deliver_env`` were
    entered.  The application-side stamps (call, handler entry) are the
    harness's own records.
    """

    def __init__(self, phase: str) -> None:
        self.calls: Dict[str, int] = {}
        self.incl_s: Dict[str, float] = {}
        self.envelope: Dict[int, Tuple[str, int, int]] = {}
        self.t_submit: Dict[int, float] = {}
        self.t_ingest: Dict[Tuple[int, int], float] = {}
        self.t_deliver: Dict[Tuple[int, int], float] = {}
        self.wedged_at: List[Tuple[float, int]] = []   # (time, site)
        self.fragments = 0
        self.stab_msgs = 0
        self.buffered_peak = 0
        self.phase = phase
        #: Counts at the edges of the measured phase.
        self._edge: List[Dict[str, float]] = []
        self._undo: List[Callable[[], None]] = []

    def _counts(self, run: Run) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.calls)
        out.update(fragments=self.fragments, stab_msgs=self.stab_msgs,
                   mcasts=len(run.m_stream), clock=run.sched.now)
        return out

    def begin(self, run: Run, phase: str) -> None:
        if phase == self.phase:
            self._edge = [self._counts(run)]

    def end(self, run: Run, phase: str) -> None:
        if phase == self.phase:
            self._edge.append(self._counts(run))

    def delta(self, key: str) -> float:
        """Growth of a count over the measured phase; ``key`` is one of
        ``fragments``/``stab_msgs``/``mcasts``/``clock`` or the tail of
        an entry-point label (``Message.encode``)."""
        if len(self._edge) < 2:
            return 0   # the phase never ran: set-up failed
        first, last = self._edge
        return sum(last[k] - first[k] for k in last
                   if k == key or k.endswith(":" + key))

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for layer, owner, name in _entry_points():
            self._wrap(layer, owner, name)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, layer: str, owner, name: str) -> None:
        raw = vars(owner)[name]
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        label = f"{layer}:{getattr(owner, '__name__', owner).split('.')[-1]}.{name}"
        self.calls[label] = 0
        self.incl_s[label] = 0.0
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        calls, incl, clock = self.calls, self.incl_s, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            started = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                incl[label] += clock() - started
                calls[label] += 1
            if after is not None:
                after(result, *args)
            return result

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__wrapped__ = func
        if isinstance(raw, classmethod):
            new = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrapper)
        else:
            new = wrapper
        if isinstance(owner, type):
            setattr(owner, name, new)
            self._undo.append(lambda: setattr(owner, name, raw))
            return
        # A module function: importers hold their own reference to it.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") \
                    and vars(module).get(name) is raw:
                setattr(module, name, new)
                self._undo.append(
                    lambda module=module: setattr(module, name, raw))

    # -- stamps ------------------------------------------------------------
    @staticmethod
    def _tag(env) -> Optional[int]:
        user = env.get("m")
        return user.get("n") if user is not None else None

    def _after_submit(self, _result, pipeline, env, _sender) -> None:
        n = self._tag(env)
        engine = pipeline.engine
        if n is not None:
            self.t_submit[n] = engine.sim.now
            self.envelope[n] = (str(env["gid"]), env["origin"], env["gseq"])
        if engine.store.buffered_count > self.buffered_peak:
            self.buffered_peak = engine.store.buffered_count

    def _before_ingest_data(self, pipeline, _src, env) -> None:
        n = self._tag(env)
        if n is not None:
            engine = pipeline.engine
            self.t_ingest.setdefault((n, engine.site_id), engine.sim.now)

    def _before_deliver_env(self, engine, env) -> None:
        n = self._tag(env)
        if n is not None:
            self.t_deliver[(n, engine.site_id)] = engine.sim.now

    def _before_receive(self, _pipeline, _src, proto, _msg) -> None:
        if proto.startswith("g.stab"):
            self.stab_msgs += 1

    def _before__wedge(self, engine, _fid) -> None:
        if not engine.wedged:
            self.wedged_at.append((engine.sim.now, engine.site_id))

    def _after_fragment(self, result, *_args) -> None:
        self.fragments += len(result)

    # -- hop medians -------------------------------------------------------
    def hops(self, run: Run) -> Dict[str, float]:
        """Where the median latency goes, in seconds per hop.

        For each multicast of the measured phase the four hops are taken
        along the path to the member that was handed it *last* (the one
        the end-to-end latency waits for), so they sum to that latency
        exactly.  Medians of parts do not add up to the median of the
        whole, so each hop is averaged over the multicasts whose latency
        lies between the 45th and 55th percentile: the four numbers are
        the decomposition of ``latency_p50_ms`` and sum to it.
        """
        handler: Dict[int, Tuple[float, int]] = {}
        for inc in run.incarnations:
            for n, when in zip(inc.log, inc.times):
                if n not in handler or when > handler[n][0]:
                    handler[n] = (when, inc.site)
        phase = run.measured_phase()
        rows: List[Tuple[float, float, float, float, float]] = []
        for n, (handed, site) in handler.items():
            if run.m_phase[n] != phase or n not in self.t_submit:
                continue
            delivered = self.t_deliver.get((n, site))
            if delivered is None:
                continue
            submitted = self.t_submit[n]
            # The sender's own copy never crosses ingest_data.
            ingested = self.t_ingest.get((n, site), submitted)
            rows.append((handed - run.m_due[n], submitted - run.m_due[n],
                         ingested - submitted, delivered - ingested,
                         handed - delivered))
        rows.sort()
        band = rows[int(len(rows) * 0.45):int(len(rows) * 0.55) + 1]
        names = ("latency", "submit", "transit", "order_wait", "handoff")
        return {name: (sum(row[i] for row in band) / len(band) if band else 0.0)
                for i, name in enumerate(names)}

    def dump(self, run: Run, limit: int = 2000) -> Dict[str, object]:
        """What goes to the span file when the benchmark ends."""
        rows: Dict[int, Dict[str, object]] = {}
        for n in sorted(self.t_submit)[:limit]:
            rows[n] = {"n": n, "envelope": self.envelope.get(n),
                       "due": run.m_due[n], "call": run.m_call[n],
                       "submit": self.t_submit[n], "ingest": {},
                       "deliver": {}, "handler": {}}
        for field, stamps in (("ingest", self.t_ingest),
                              ("deliver", self.t_deliver)):
            for (n, site), when in stamps.items():
                if n in rows:
                    rows[n][field][site] = when
        for inc in run.incarnations:
            for n, when in zip(inc.log, inc.times):
                if n in rows:
                    rows[n]["handler"][inc.site] = when
        return {
            "entry_points": {label: {"calls": self.calls[label],
                                     "inclusive_s": self.incl_s[label]}
                             for label in sorted(self.calls)},
            "multicasts": list(rows.values()),
        }
