"""One workload engine for both drivers.

A :class:`Run` boots a cluster (``IsisCluster`` or ``AsyncioCluster``),
forms the workload's groups, warms up, then drives the measured phases:

* **open loop** — a seeded fixed-rate schedule; each multicast is timed
  from the instant it was *due*, so a stall is charged to every request
  that queued behind it;
* **closed loop** — ``k`` multicasts in flight per sender, the next one
  issued when the previous is delivered at every member: completions per
  second is the capacity;
* **churn** — crash / restart / rejoin cycles under the open loop.

Everything runs on the driver's own scheduler (``sim.call_at`` or
``loop.call_later``) in one thread; all times are the driver's ``now``
(simulated seconds on sim, wall seconds on net).  The application side
records only what an application can see: when it called, what each
member incarnation was handed, in which order, when.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro import IsisCluster, IsisConfig
from repro.runtime.asyncio_driver import AsyncioCluster

from . import reference, stats
from .check import Incarnation, Verdict, check
from .spec import AB, NOMINAL_SECONDS, WARMUP_MCASTS, Workload

SINK = 17                      # application entry the multicasts land on
WARM, OPEN, CLOSED = 0, 1, 2   # phase of a multicast
#: A run that raised this often is broken; stop driving it.
MAX_ERRORS = 25


# ----------------------------------------------------------------------
# Drivers: the only place that knows which cluster class is underneath
# ----------------------------------------------------------------------
class Driver:
    #: How long (driver seconds) to wait for something that must happen.
    patience = 0.0

    def __init__(self) -> None:
        self.errors: List[str] = []
        self.broken = False

    def note_error(self, text: str) -> None:
        """An exception escaped the program: count it, print it, go on."""
        self.errors.append(text)
        print(f"[bench] program error #{len(self.errors)}:\n{text}", flush=True)
        if len(self.errors) >= MAX_ERRORS:
            self.broken = True


class SimDriver(Driver):
    patience = 120.0

    def __init__(self, spec: Workload, seed: int):
        super().__init__()
        self.cluster = IsisCluster(n_sites=spec.n_sites, seed=seed,
                                   isis_config=IsisConfig(**spec.config))
        self.sched = self.cluster.sim
        self.sites = self.cluster.cluster.sites

    def run_for(self, duration: float) -> None:
        end = self.sched.now + duration
        while not self.broken:
            try:
                self.cluster.run(until=end)
                return
            except Exception:  # boundary: the benchmark must keep running
                self.note_error(traceback.format_exc())

    def run_until(self, done: Callable[[], bool], timeout: float) -> bool:
        deadline = self.sched.now + timeout
        while not done() and self.sched.now < deadline and not self.broken:
            self.run_for(min(0.05, deadline - self.sched.now))
        return done()

    def restart_site(self, site: int) -> None:
        self.cluster.restart_site(site)

    def shutdown(self) -> None:
        pass


class NetDriver(Driver):
    patience = 20.0

    def __init__(self, spec: Workload, seed: int):
        super().__init__()
        self.cluster = AsyncioCluster(n_sites=spec.n_sites, seed=seed,
                                      isis_config=IsisConfig(**spec.config))
        self.sched = self.cluster.runtime.scheduler
        self.sites = self.cluster.runtime.sites
        self.cluster.runtime.loop.set_exception_handler(self._loop_error)

    def _loop_error(self, _loop, context) -> None:
        exc = context.get("exception")
        text = "".join(traceback.format_exception(exc)) if exc is not None \
            else str(context.get("message"))
        self.note_error(text)

    def run_for(self, duration: float) -> None:
        if duration > 0 and not self.broken:
            self.cluster.run_for(duration)

    def run_until(self, done: Callable[[], bool], timeout: float) -> bool:
        if self.broken:
            return done()
        return self.cluster.run_until(done, timeout, poll=0.002)

    def restart_site(self, site: int) -> None:
        self.cluster.site(site).boot()

    def shutdown(self) -> None:
        self.cluster.shutdown()


def make_driver(spec: Workload, seed: int) -> Driver:
    return SimDriver(spec, seed) if spec.driver == "sim" \
        else NetDriver(spec, seed)


# ----------------------------------------------------------------------
# Inputs: everything random comes from the seed, here
# ----------------------------------------------------------------------
def open_schedule(seed: int, senders: List[int], rate: float,
                  window: float) -> List[Tuple[float, int]]:
    """``(offset, site)`` send instants of the open loop, sorted.

    Fixed rate: each sender owns one slot per period and fires at a
    seeded uniform instant inside it, so the count is exact, the load is
    even, and two seeds never share arrival phases.
    """
    rng = random.Random(seed)
    period = len(senders) / rate
    slots = int(round(window / period))
    out = [((slot + rng.random()) * period, site)
           for site in senders for slot in range(slots)]
    out.sort()
    return out


def measured_phase_name(spec: Workload) -> str:
    """The phase latency is taken from: the open loop where the workload
    has one."""
    return "open" if (spec.open_rate or spec.churn_cycles) else "closed"


def cost_phase_name(spec: Workload) -> str:
    """The phase CPU cost is taken from: one in which the CPU never idles,
    because only busy time slows down with the box the way the reference
    kernel does.  A simulation never idles (its clock jumps), so there it
    is the measured phase.  On sockets the open loop sleeps between events
    and each wake-up's cost depends on what the host did meanwhile (at
    reference speed its cost still spread 0.12 over ten seeds, the closed
    loop's 0.02-0.09), so there it is the closed loop."""
    return "closed" if spec.driver == "net" else measured_phase_name(spec)


class Observer:
    """What a tracer may hook: the edges of each measured phase, and of
    the harness's own reference work inside it."""

    def begin(self, run: "Run", phase: str) -> None:
        pass

    def end(self, run: "Run", phase: str) -> None:
        pass

    def pause(self) -> None:
        pass

    def resume(self) -> None:
        pass


class Run:
    """One repetition of one workload on a fresh cluster."""

    def __init__(self, spec: Workload, seed: int,
                 seconds: float = NOMINAL_SECONDS,
                 observer: Optional[Observer] = None):
        self.spec = spec
        self.seed = seed
        self.scale = seconds / NOMINAL_SECONDS
        self.observer = observer or Observer()
        self.group_sites = spec.group_sites()
        self.groups_of = {
            site: [g for g, sites in enumerate(self.group_sites)
                   if site in sites]
            for site in range(spec.n_sites)}
        self.rng = random.Random(seed ^ 0x5EED)
        self.payload = self.rng.randbytes(spec.payload)
        self.filler = self.rng.randbytes(spec.state_bytes)
        self.churn = spec.churn_cycles > 0
        # One entry per multicast, indexed by its id ``n``.
        self.m_stream: List[Tuple[int, int, int]] = []  # (group, site, kind)
        self.m_phase: List[int] = []
        self.m_due: List[float] = []
        self.m_call: List[float] = []
        self.m_left: List[int] = []    # members still to deliver it
        self.sent_by = {site: 0 for site in spec.senders}
        self.incarnations: List[Incarnation] = []
        self.isis: Dict[int, object] = {}   # site -> live toolkit handle
        self.live = set(range(spec.n_sites))
        self.gids: List[object] = [None] * spec.n_groups
        self.pending = 0           # tracked multicasts not yet complete
        self.loop_phase: Optional[int] = None
        self.loop_more: Callable[[], bool] = lambda: False
        self.loop_done = 0
        self.done_at: List[float] = []   # closed-loop completion instants
        self.closed_end = 0.0
        self.origin: Dict[str, float] = {}   # phase -> driver time it began
        self.setup_s = 0.0
        self.problems: List[str] = []
        #: phase -> [(cpu seconds, multicasts sent, completions, clock
        #: seconds, slowdown of the box around the slice)]
        self.slices: Dict[str, List[Tuple[float, int, int, float, float]]] = {}
        self.crashes: List[Tuple[float, int]] = []      # (time, site)
        self.rejoin_s: List[float] = []
        self.state_bytes_sent = 0   # registered state encoded for joiners
        self.driver: Optional[Driver] = None

    # -- set-up ----------------------------------------------------------
    def setup(self) -> float:
        """Boot, form the groups, warm up.  Returns the seconds it took,
        the CPU's part of them at reference speed."""
        started = (reference.kernel(), time.perf_counter(), time.process_time())
        self.driver = make_driver(self.spec, self.seed)
        self.sched = self.driver.sched
        for site in range(self.spec.n_sites):
            self._spawn_member(site)
        self._form_groups()
        if self.problems:
            return self._setup_done(started)   # nothing to warm up
        first = len(self.m_stream)
        self._closed_loop(WARM, 2, budget=WARMUP_MCASTS)
        self.driver.run_until(
            lambda: len(self.m_stream) - first >= WARMUP_MCASTS,
            self.driver.patience)
        if not self._drain():
            self.problems.append("warm-up never drained")
        return self._setup_done(started)

    def _setup_done(self, started: Tuple[float, float, float]) -> float:
        before, wall0, cpu0 = started
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        slow = reference.slowdown(before, reference.kernel())
        self.setup_s = (wall - cpu) + cpu / slow
        return self.setup_s

    def close(self) -> None:
        if self.driver is not None:
            self.driver.shutdown()

    def _spawn_member(self, site: int) -> Incarnation:
        process, isis = self.driver.cluster.spawn(site, f"bench{site}")
        inc = Incarnation(site=site)
        self.incarnations.append(inc)
        self.isis[site] = isis
        process.bind(SINK, self._handler(inc))
        if self.spec.state_bytes:
            process.xfer_segments["bench"] = (
                lambda: [self._encode_state(inc)],
                lambda blocks: self._decode_state(inc, blocks))
        return inc

    def _handler(self, inc: Incarnation):
        log, times, left, sched = inc.log, inc.times, self.m_left, self.sched
        completed = self._completed

        def on_msg(msg) -> None:
            n = msg["n"]
            log.append(n)
            times.append(sched.now)
            remaining = left[n] - 1
            left[n] = remaining
            if remaining == 0:
                completed(n)

        return on_msg

    # The registered state is what a real replica would ship: how far
    # into every stream this member has applied, padded to the size the
    # workload names.  The oracle reads the joiner's copy back.
    def _encode_state(self, inc: Incarnation) -> bytes:
        reached = dict(inc.base)
        for n in inc.log:
            stream = self.m_stream[n]
            reached[stream] = reached.get(stream, 0) + 1
        head = json.dumps([[*stream, count]
                           for stream, count in sorted(reached.items())]
                          ).encode()
        blob = len(head).to_bytes(4, "big") + head + \
            self.filler[:max(0, self.spec.state_bytes - len(head) - 4)]
        self.state_bytes_sent += len(blob)
        return blob

    def _decode_state(self, inc: Incarnation, blocks: List[bytes]) -> None:
        blob = b"".join(blocks)
        size = int.from_bytes(blob[:4], "big")
        inc.base = {(g, s, k): count
                    for g, s, k, count in json.loads(blob[4:4 + size])}

    def _form_groups(self) -> None:
        driver = self.driver
        for g, sites in enumerate(self.group_sites):
            self.isis[sites[0]].pg_create(f"bench{g}").add_done_callback(
                lambda p, g=g: self.gids.__setitem__(g, p.value))
        if not driver.run_until(lambda: None not in self.gids,
                                driver.patience):
            self.problems.append("group creation stalled")
            return
        joined: List[int] = []

        def on_join(p) -> None:
            if p.rejected:
                self.problems.append(f"join refused: {p.exception!r}")
            joined.append(1)

        wanted = 0
        for g, sites in enumerate(self.group_sites):
            for site in sites[1:]:
                wanted += 1
                self.isis[site].pg_join(self.gids[g]).add_done_callback(on_join)
        ok = driver.run_until(
            lambda: len(joined) == wanted and self._views_full(),
            driver.patience)
        if not ok:
            self.problems.append(
                f"group formation stalled ({len(joined)}/{wanted} joins)")

    def _engine(self, site: int, g: int):
        kernel = getattr(self.driver.sites[site], "kernel", None)
        if kernel is None:
            return None
        return kernel.engines.get(self.gids[g].process())

    def _views_full(self) -> bool:
        for g, sites in enumerate(self.group_sites):
            want = sum(1 for s in sites if s in self.live)
            for site in sites:
                if site not in self.live:
                    continue
                engine = self._engine(site, g)
                if engine is None or engine.view is None \
                        or len(engine.view.members) != want:
                    return False
        return True

    # -- sending ---------------------------------------------------------
    def _send(self, site: int, phase: int, due: Optional[float] = None) -> None:
        i = self.sent_by[site]
        self.sent_by[site] = i + 1
        cycle = self.spec.senders[site]
        kind = cycle[i % len(cycle)]
        groups = self.groups_of[site]
        g = groups[i % len(groups)]
        n = len(self.m_stream)
        now = self.sched.now
        self.m_stream.append((g, site, kind))
        self.m_phase.append(phase)
        self.m_due.append(now if due is None else due)
        self.m_call.append(now)
        self.m_left.append(len(self.group_sites[g]))
        if self._tracked(phase):
            self.pending += 1
        isis = self.isis[site]
        send = isis.abcast if kind == AB else isis.cbcast
        send(self.gids[g], SINK, 0, n=n, p=self.payload)

    def _tracked(self, phase: int) -> bool:
        # Under churn the member count of an open-loop multicast is not
        # knowable at send time (it may be re-sent in the successor view),
        # so those are settled by the oracle after the drain instead.
        return not (self.churn and phase == OPEN)

    def _completed(self, n: int) -> None:
        phase = self.m_phase[n]
        if not self._tracked(phase):
            return
        self.pending -= 1
        if phase == self.loop_phase:
            self.loop_done += 1
            if phase == CLOSED:
                self.done_at.append(self.sched.now)
            if self.loop_more():
                self._send(self.m_stream[n][1], phase)

    def _closed_loop(self, phase: int, streams: int,
                     budget: Optional[int] = None,
                     until: Optional[float] = None) -> None:
        """Start ``streams`` self-clocked senders per sending site."""
        self.loop_phase = phase
        self.loop_done = 0
        first = len(self.m_stream)
        if budget is not None:
            self.loop_more = lambda: len(self.m_stream) - first < budget
        else:
            self.loop_more = lambda: self.sched.now < until
        # Independent clients do not start in lockstep: each stream's
        # first send falls at a seeded instant inside the first 2 % of a
        # slice, which also makes the completion instants seed-dependent.
        def start(site: int) -> None:
            if self.loop_phase == phase and self.loop_more():
                self._send(site, phase)

        for site in self.spec.senders:
            for _ in range(streams):
                self.sched.call_after(
                    self.rng.random() * self.spec.slice * 0.02, start, site)

    def _drain(self) -> bool:
        """Stop the closed loop and wait for every tracked multicast."""
        self.loop_more = lambda: False
        ok = self.driver.run_until(lambda: self.pending == 0,
                                   self.driver.patience)
        self.loop_phase = None
        return ok

    # -- measured phases ---------------------------------------------------
    def measure(self) -> None:
        """Run the workload's measured phases, then drain."""
        if self.problems:
            return   # set-up failed; the verdict says so
        gc.collect()
        spec = self.spec
        if self.churn:
            self._churn_phase()
        elif spec.open_rate:
            self._open_phase(spec.open_window * self.scale)
        if spec.closed_window:
            self._closed_phase(spec.closed_window * self.scale)

    def _run_slices(self, phase: str, count: int, length: float,
                    before_slice: Optional[Callable[[int], None]] = None) -> None:
        rows = self.slices.setdefault(phase, [])
        origin = self.origin[phase] = self.sched.now
        self.observer.begin(self, phase)
        before = self._reference()
        for index in range(count):
            if before_slice is not None:
                before_slice(index)
            sent, done = len(self.m_stream), self.loop_done
            clock0, cpu0 = self.sched.now, time.process_time()
            # Aim at the absolute slice edge so wall slices do not drift.
            self.driver.run_for(origin + (index + 1) * length - clock0)
            cpu, clock = time.process_time() - cpu0, self.sched.now - clock0
            after = self._reference()
            rows.append((cpu, len(self.m_stream) - sent,
                         self.loop_done - done, clock,
                         reference.slowdown(before, after)))
            before = after
        self.observer.end(self, phase)

    def _reference(self) -> float:
        """Time the reference kernel between two slices, unobserved."""
        self.observer.pause()
        took = reference.kernel()
        self.observer.resume()
        return took

    def _start_open_loop(self, window: float) -> None:
        senders = sorted(self.spec.senders)
        schedule = open_schedule(self.seed, senders, self.spec.open_rate,
                                 window)
        origin = self.sched.now
        sched = self.sched

        def fire(index: int) -> None:
            offset, site = schedule[index]
            if index + 1 < len(schedule):
                sched.call_at(origin + schedule[index + 1][0], fire, index + 1)
            self._send(site, OPEN, due=origin + offset)

        if schedule:
            sched.call_at(origin + schedule[0][0], fire, 0)

    def _open_phase(self, window: float) -> None:
        length = self.spec.slice
        count = max(1, round(window / length))
        self._start_open_loop(count * length)
        self._run_slices("open", count, length)
        self.driver.run_until(lambda: self.pending == 0, self.driver.patience)

    def _closed_phase(self, window: float) -> None:
        length = self.spec.slice
        count = max(1, round(window / length))
        self.closed_end = self.sched.now + count * length
        self._closed_loop(CLOSED, self.spec.closed_streams,
                          until=self.closed_end)
        self._run_slices("closed", count, length)
        self._drain()

    def _churn_phase(self) -> None:
        spec = self.spec
        cycles = max(2, round(spec.churn_cycles * self.scale))
        down = round(spec.churn_down / spec.slice)
        per_cycle = down + round(spec.churn_up / spec.slice)

        def before_slice(index: int) -> None:
            cycle, step = divmod(index, per_cycle)
            victim = spec.churn_sites[cycle % len(spec.churn_sites)]
            if step == 0:
                self._crash(victim)
            elif step == down:
                self._restart(victim)

        self._start_open_loop(cycles * per_cycle * spec.slice)
        self._run_slices("open", cycles * per_cycle, spec.slice, before_slice)
        self.driver.run_for(5.0)   # quiet: in-flight multicasts land
        if not self._views_full():
            self.problems.append("a rejoin never completed")

    def _crash(self, site: int) -> None:
        self.crashes.append((self.sched.now, site))
        self.live.discard(site)
        for inc in self.incarnations:
            if inc.site == site:
                inc.live = False
        self.isis.pop(site, None)
        self.driver.cluster.crash_site(site)

    def _restart(self, site: int) -> None:
        started = self.sched.now
        self.driver.restart_site(site)
        inc = self._spawn_member(site)
        inc.live = False   # until the join resolves

        def joined(p) -> None:
            if p.rejected:
                self.sched.call_after(0.25, attempt)
                return
            inc.live = True
            self.live.add(site)
            self.rejoin_s.append(self.sched.now - started)

        def attempt() -> None:
            if site in self.isis:
                self.isis[site].pg_join(self.gids[0]).add_done_callback(joined)

        attempt()

    # -- results -----------------------------------------------------------
    def views(self) -> Dict[int, Dict[int, Tuple]]:
        out: Dict[int, Dict[int, Tuple]] = {}
        for g, sites in enumerate(self.group_sites):
            by_site = out.setdefault(g, {})
            for site in sites:
                engine = self._engine(site, g) if site in self.live else None
                if engine is not None and engine.view is not None:
                    by_site[site] = (
                        engine.view.view_id,
                        tuple(sorted(str(m) for m in engine.view.members)))
        return out

    def verdict(self) -> Verdict:
        if None in self.gids:
            verdict = Verdict()
        else:
            verdict = check(self.m_stream, self.incarnations,
                            self.group_sites, self.views(), self.live)
        for text in self.problems:
            verdict.flag((), text)
        return verdict

    def measured_phase(self) -> int:
        return OPEN if measured_phase_name(self.spec) == "open" else CLOSED

    def _marks(self) -> Tuple[List[int], List[float]]:
        """Per multicast: how many members were handed it, and when the
        last one was."""
        count = [0] * len(self.m_stream)
        last = [0.0] * len(self.m_stream)
        for inc in self.incarnations:
            for n, when in zip(inc.log, inc.times):
                count[n] += 1
                if when > last[n]:
                    last[n] = when
        return count, last

    def _full(self, n: int, count: List[int]) -> bool:
        if self.churn:
            return count[n] > 0   # who was a member then is the oracle's call
        return count[n] == len(self.group_sites[self.m_stream[n][0]])

    def _timed(self, verdict: Verdict) -> Tuple[List[Tuple[float, float]], int]:
        """``(due, due→last-member latency)`` of the measured phase's
        multicasts that were delivered in full, and how many were sent."""
        count, last = self._marks()
        phase = self.measured_phase()
        sent = 0
        out: List[Tuple[float, float]] = []
        for n, p in enumerate(self.m_phase):
            if p != phase:
                continue
            sent += 1
            if n not in verdict.failed and self._full(n, count):
                out.append((self.m_due[n], last[n] - self.m_due[n]))
        return out, sent

    def latencies(self, verdict: Verdict) -> Tuple[List[float], int]:
        """Sorted latencies of the measured phase, and how many were sent."""
        timed, sent = self._timed(verdict)
        return sorted(lat for _due, lat in timed), sent

    def latency_p50(self, verdict: Verdict) -> float:
        """Median latency of the measured phase, seconds.

        On the simulated clock: over every multicast, exact.  On the wall
        clock the whole phase's median follows the box's speed (it spread
        0.17 over ten seeds), so there it is taken per slice (a multicast
        belongs to the slice it was due in), put at reference speed, and
        the median slice is reported (spread 0.10)."""
        timed, _sent = self._timed(verdict)
        if not timed:
            return 0.0
        if self.spec.driver == "sim":
            return stats.percentile(sorted(lat for _due, lat in timed), 0.5)
        name = measured_phase_name(self.spec)
        origin, length, rows = self.origin[name], self.spec.slice, self.slices[name]
        by_slice: Dict[int, List[float]] = {}
        for due, lat in timed:
            index = min(int((due - origin) / length), len(rows) - 1)
            by_slice.setdefault(index, []).append(lat)
        return stats.median([stats.median(lats) / rows[index][4]
                             for index, lats in by_slice.items()])

    def host_cost(self) -> float:
        """CPU seconds per multicast at reference speed: the median slice
        of the phase :func:`cost_phase_name` names."""
        cost = [cpu / n / slow for cpu, n, _done, _dt, slow
                in self.slices.get(cost_phase_name(self.spec), ()) if n]
        return stats.median(cost) if cost else 0.0

    def backlog_growth(self) -> float:
        """Multicasts per second by which the open loop's backlog (due but
        not yet delivered everywhere) grew over the second half of its
        window: about zero below capacity, positive beyond it."""
        count, last = self._marks()
        due = [(self.m_due[n], last[n] if self._full(n, count) else float("inf"))
               for n, p in enumerate(self.m_phase) if p == OPEN]
        if not due:
            return 0.0
        start, end = due[0][0], due[-1][0]
        mid = (start + end) / 2

        def backlog(at: float) -> int:
            return sum(1 for d, done in due if d <= at < done)

        return (backlog(end) - backlog(mid)) / (end - mid) if end > mid else 0.0

    def unavailability(self) -> List[float]:
        """Per crash: the longest gap between consecutive ABCAST
        deliveries at any survivor, over the window the site stayed down
        (the deliveries either side of the window bound it)."""
        out: List[float] = []
        window = self.spec.churn_down
        for crashed_at, crashed in self.crashes:
            worst = 0.0
            for inc in self.incarnations:
                if inc.site == crashed or inc.site not in self.live:
                    continue
                marks = [when for n, when in zip(inc.log, inc.times)
                         if self.m_stream[n][2] == AB]
                before = [t for t in marks if t < crashed_at][-1:]
                inside = [t for t in marks
                          if crashed_at <= t <= crashed_at + window]
                after = [t for t in marks if t > crashed_at + window][:1]
                seq = before + inside + after
                for a, b in zip(seq, seq[1:]):
                    worst = max(worst, b - a)
            out.append(worst)
        return out

    def capacity(self) -> float:
        """Closed-loop completions per second of driver clock, counted
        between the first and the last completion instant of the window."""
        done = [t for t in self.done_at if t <= self.closed_end]
        if len(done) < 2 or done[-1] <= done[0]:
            return 0.0
        return (len(done) - 1) / (done[-1] - done[0])

    def end_to_end(self, verdict: Verdict) -> Dict[str, Tuple[float, str]]:
        """This repetition's end-to-end values, ``name -> (value, unit)``.

        Values on the simulated clock are exact; values on the host's
        clock are at reference speed (``bench/reference.py``) except the
        closed-loop rate of ``rn-*``, which is as the wall clock saw it.
        """
        out = {
            "latency_p50_ms": (self.latency_p50(verdict) * 1e3, "ms"),
            "host_us_per_mcast": (self.host_cost() * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if self.spec.closed_window:
            out["capacity_mcast_per_s"] = (self.capacity(), "1/s")
        return out
