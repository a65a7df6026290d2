"""Measurement rules shared by every workload.

Nothing here imports the system under test, so the rules can be unit
tested on their own: which percentile a sample supports, how an
open-loop generator times requests from their due time, how failures turn
into SLO misses, how fast the host ran, how a span's self time is
computed, and the one-line and JSON forms a run prints.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is flagged unless at least this many samples lie beyond
#: it (p99 needs >= 1000 samples, p90 >= 100).
TAIL_SAMPLES = 10

#: Validity limits for open-loop phases: the generator may run this late
#: at p99, and the backlog must drain this soon after the last arrival.
MAX_LAG_P99_MS = 5.0
MAX_DRAIN_S = 1.0

#: Every run is cut into this many slots spread evenly over it, each
#: running every phase of the workload once.  Each gated timing is taken
#: per slot, scaled by the host's slowdown around that slot, and the best
#: slot is reported (README, "Slots and host speed").
SLOTS = 10

#: End-to-end metrics printed but not gated: the fractions can read 0,
#: which a relative bound cannot judge, the tail percentiles did not
#: repeat within any bound on the 2-core host, and the ``.raw`` timings
#: are the gated ones before scaling by the host's slowdown (README,
#: "Diagnostics").
DIAGNOSTIC = ("latency_p90_ms", "latency_p99_ms", "slo_miss_frac", "failed_frac",
              "host.slowdown", "setup_s.raw", "throughput_sps.raw", "latency_p50_ms.raw")


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples leave >= TAIL_SAMPLES beyond the q-th."""
    return count * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (``nan`` for an empty sample)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def slot_percentile(slots: Sequence[Sequence[float]], q: float,
                    slowdowns: Optional[Sequence[float]] = None) -> Tuple[float, bool]:
    """The lowest over slots of each slot's q-th percentile, each divided
    by the host's slowdown around its slot (given ``slowdowns``); also
    whether every slot supports q."""
    scale = slowdowns or [1.0] * len(slots)
    filled = [(s, f) for s, f in zip(slots, scale) if len(s)]
    if not filled:
        return float("nan"), False
    return (min(percentile(s, q) / f for s, f in filled),
            all(supports(len(s), q) for s, _ in filled))


def rate_between(done: Sequence[float]) -> float:
    """Completions per second between the first and the last completion,
    so the time a closed loop takes to fill is not counted."""
    if len(done) < 2:
        return 0.0
    return (len(done) - 1) / (max(done) - min(done))


@dataclasses.dataclass
class Request:
    """One request of a phase: when it was due, sent and completed.

    Closed-loop requests are due when they are sent; open-loop requests
    are due on the schedule, so a stall that delays sending is charged
    to every request it delays.
    """

    due: float
    sent: float = float("nan")
    done: float = float("nan")
    failed: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def drive_open_loop(offsets: Sequence[float], fire: Callable[[int, Request], None],
                    clock: Callable[[], float] = time.perf_counter,
                    sleep: Callable[[float], None] = time.sleep) -> List[Request]:
    """Send request ``i`` at ``start + offsets[i]`` from the calling thread.

    ``fire(i, request)`` sends it; it either completes the request before
    returning (sets ``done``/``failed``) or arranges for a callback to.
    The schedule never waits for completions, so the offered rate stays
    fixed however slowly the system answers.
    """
    requests: List[Request] = []
    start = clock()
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if now < due:
            sleep(due - now)
        request = Request(due=due, sent=clock())
        requests.append(request)
        fire(index, request)
    return requests


@dataclasses.dataclass
class PhaseSummary:
    """Latency and failure accounting of one phase."""

    attempted: int
    failed: int
    slo_missed: int
    latencies_ms: List[float]

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def slo_miss_frac(self) -> float:
        return self.slo_missed / self.attempted if self.attempted else 0.0


def summarize(requests: Iterable[Request], slo_ms: float) -> PhaseSummary:
    """Failed requests count as attempted and as SLO misses; latencies
    cover the requests that completed."""
    attempted = failed = missed = 0
    latencies: List[float] = []
    for request in requests:
        attempted += 1
        if request.failed or math.isnan(request.done):
            failed += 1
            missed += 1
            continue
        latency = request.latency_ms
        latencies.append(latency)
        if latency > slo_ms:
            missed += 1
    return PhaseSummary(attempted, failed, missed, latencies)


def validity_problems(slots: Sequence[Sequence[Request]]) -> List[str]:
    """Reasons the open-loop slots of a run cannot be trusted (empty
    when valid): the generator's lag p99 over all of them, and the
    slowest drain after a slot's last arrival."""
    problems = []
    lags = [r.lag_ms for slot in slots for r in slot]
    lag_p99 = percentile(lags, 99.0)
    if lags and lag_p99 > MAX_LAG_P99_MS:
        problems.append(f"load generator lag p99 {lag_p99:.2f} ms > {MAX_LAG_P99_MS} ms")
    drain = 0.0
    for slot in slots:
        done = [r.done for r in slot if not math.isnan(r.done)]
        if done:
            drain = max(drain, max(done) - max(r.due for r in slot))
    if drain > MAX_DRAIN_S:
        problems.append(f"backlog drained {drain:.2f} s after the last arrival "
                        f"(> {MAX_DRAIN_S} s)")
    return problems


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds one ``probe()`` takes on a quiet host: the 10th percentile of
#: 1280 samples on a 2-vCPU Intel Xeon VM (README, "Slots and host speed").
PROBE_REFERENCE_S = 0.0105

#: A host-speed sample is retaken when the other threads of this process
#: used more than this share of its wall time in CPU, at most
#: PROBE_TRIES times, PROBE_WAIT_S apart.
MAX_PROBE_COMPANY = 0.02
PROBE_TRIES = 10
PROBE_WAIT_S = 0.02


def probe() -> Tuple[float, float]:
    """Seconds a fixed pure-Python loop takes, and the CPU seconds the
    other threads of this process used meanwhile."""
    cpu, own = time.process_time(), time.thread_time()
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    wall = time.perf_counter() - start
    return wall, (time.process_time() - cpu) - (time.thread_time() - own)


def _signal_all(pids: Iterable[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def _wait_stopped(pids: Iterable[int], timeout_s: float = 1.0) -> None:
    """Wait until every process in ``pids`` is in the stopped state."""
    deadline = time.perf_counter() + timeout_s
    for pid in pids:
        while time.perf_counter() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rpartition(")")[2].split()[0]
            except (FileNotFoundError, ProcessLookupError):
                break
            if state in ("T", "t", "Z", "X"):
                break
            time.sleep(0.0005)


class HostSpeed:
    """How much slower than a quiet host this one runs (above 1: slower),
    sampled with a loop the program cannot move.

    While a sample is taken, the processes under test that run beside
    this one are stopped (SIGSTOP, resumed with SIGCONT), and a sample
    during which any other thread of this process used CPU is retaken;
    one that stays disturbed after PROBE_TRIES tries is counted in
    ``disturbed``.  ``marks`` are the samples at slot boundaries.
    """

    def __init__(self, probe_fn: Callable[[], Tuple[float, float]] = probe,
                 reference_s: float = PROBE_REFERENCE_S,
                 wait: Callable[[float], None] = time.sleep) -> None:
        self.probe_fn = probe_fn
        self.reference_s = reference_s
        self.wait = wait
        self.marks: List[float] = []
        self.samples = 0
        self.disturbed = 0

    def _once(self) -> Tuple[float, bool]:
        """The faster of two probes on each CPU the process may use, the
        calling thread pinned to it, averaged over the CPUs; and whether
        other threads kept the CPU busy meanwhile."""
        allowed = os.sched_getaffinity(0)
        times: List[float] = []
        runs: List[Tuple[float, float]] = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                pair = [self.probe_fn(), self.probe_fn()]
                times.append(min(wall for wall, _ in pair))
                runs += pair
        finally:
            os.sched_setaffinity(0, allowed)
        busy = sum(other for _, other in runs) > MAX_PROBE_COMPANY * sum(wall for wall, _ in runs)
        return statistics.mean(times) / self.reference_s, busy

    def sample(self, pause: Sequence[int] = ()) -> float:
        """The host's slowdown now, with the processes ``pause`` stopped."""
        self.samples += 1
        _signal_all(pause, signal.SIGSTOP)
        try:
            _wait_stopped(pause)
            for attempt in range(PROBE_TRIES):
                value, busy = self._once()
                if not busy:
                    return value
                if attempt + 1 < PROBE_TRIES:
                    self.wait(PROBE_WAIT_S)
            self.disturbed += 1
            return value
        finally:
            _signal_all(pause, signal.SIGCONT)

    def mark(self, pause: Sequence[int] = ()) -> None:
        """Sample at a slot boundary; call before the first slot and after
        every slot."""
        self.marks.append(self.sample(pause))

    def per_slot(self) -> List[float]:
        """Each slot's slowdown: the geometric mean of the samples taken
        just before and just after it."""
        return [math.sqrt(a * b) for a, b in zip(self.marks, self.marks[1:])]

    def timed(self, fn: Callable[[], Any],
              pause: Callable[[Any], Sequence[int]] = lambda result: ()
              ) -> Tuple[Any, float, float]:
        """Run ``fn`` between two samples: its result, the seconds it took,
        and the geometric mean of the two samples; the second is taken
        with the processes ``pause(result)`` stopped."""
        before = self.sample()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds, math.sqrt(before * self.sample(pause(result)))

    def problems(self) -> List[str]:
        """Why the run's scaling cannot be trusted (empty when it can)."""
        if not self.disturbed:
            return []
        return [f"{self.disturbed} of {self.samples} host-speed samples ran while other "
                f"threads of the program used the CPU"]


def best_rate(rates: Sequence[float], slowdowns: Sequence[float]) -> float:
    """The highest per-slot rate, each multiplied by the host's slowdown
    around its slot."""
    return max(r * s for r, s in zip(rates, slowdowns))


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Tuple[int, Optional[int], float, float]]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval that its children cover.

    ``spans`` are ``(span_id, parent_id, start, duration)``; a child's
    interval is clipped to its parent's, and overlapping children are
    counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {sid: (start, start + dur) for sid, _, start, dur in spans}
    for sid, parent, start, dur in spans:
        if parent in bounds:
            children.setdefault(parent, []).append((start, start + dur))
    result = {}
    for sid, (lo, hi) in bounds.items():
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(sid, [])):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        result[sid] = (hi - lo) - covered
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
class Report:
    """The metrics of one run, printed as ``<workload> <metric> <value>
    <unit>`` lines and as the final JSON object."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.details: Dict[str, str] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, name: str, value: float, unit: str, detail: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if detail:
            self.details[name] = detail

    def add_percentile(self, name: str, slots: Sequence[Sequence[float]], q: float,
                       slowdowns: Optional[Sequence[float]] = None) -> None:
        """A latency percentile in ms with its sample count: the lowest of
        the per-slot percentiles, scaled as in :func:`slot_percentile` (one
        slot: over the whole sample).  A percentile without TAIL_SAMPLES
        beyond it in each slot is noted."""
        value, supported = slot_percentile(slots, q, slowdowns)
        detail = f"n={sum(map(len, slots))}"
        if len(slots) > 1:
            detail += f" slots={len(slots)}"
        self.add(name, value, "ms", detail)
        if not supported:
            self.notes.append(f"{name}: too few samples for {TAIL_SAMPLES} beyond p{q:g} ({detail})")

    def fail(self, reason: str) -> None:
        self.correct = False
        self.notes.append(f"INCORRECT: {reason}")

    def lines(self) -> List[str]:
        out = []
        for name, metric in self.metrics.items():
            line = f"{self.workload} {name} {metric['value']!r} {metric['unit']}"
            if name in self.details:
                line += " " + self.details[name]
            out.append(line)
        return out

    def result(self, names: Iterable[str]) -> Dict:
        """The JSON object a run prints last, restricted to ``names``."""
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in names},
        }
