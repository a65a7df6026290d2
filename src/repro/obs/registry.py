"""Zero-dependency tracing, timers, and counters for the inference hot path.

Three layers, all stdlib-only:

* **Distributions and counters** — one mergeable primitive: a
  :class:`Distribution` summarizes a stream of samples by a fixed-point
  total plus a streaming log-bucket :class:`Histogram` (count, exact
  min and max, p50/p90/p99).  Tagged ``unit="s"`` it is a stage timer
  (wall-clock durations per named stage); untagged it summarizes plain
  values (engine batch sizes, queue depths).  A :class:`Counter`
  accumulates fixed-point event counts.  Each stores only the state the
  cross-process merge needs, and every float view (``total_s``,
  ``mean``, ``p99``...) is derived from it, so a single-process
  :meth:`Registry.snapshot` equals the stats of its own merged document.
* **Spans** — ``with registry.span("detect.batch_total", task="...") as sp:``
  opens a hierarchical span.  Spans nest through a thread-local stack, so
  a stage timed inside another stage becomes its child automatically;
  every completed span both feeds the stage's timer and is appended to a
  bounded in-memory event list that :mod:`repro.obs.trace` can export as
  Chrome trace-event JSON (viewable in Perfetto / ``chrome://tracing``).
* **Telemetry** — :meth:`Registry.telemetry_snapshot` is the
  serialization-ready view (strict JSON: no ``Infinity``) that
  :mod:`repro.obs.telemetry` embeds in ``BENCH_*.json`` files.

A process-wide default registry (:func:`get_registry`) lets deep call
sites — window extraction, model forward, KG matching, NMS, the hardware
simulator, trainers, quantization calibration — record into one shared
table without plumbing a handle through every signature.

Overhead discipline: with ``registry.enabled = False`` every probe
returns before touching a clock, a lock, or the span stack; with it
enabled, the get-or-create accessors are lock-free on the hit path
(plain dict reads are atomic under the GIL) and only take the registry
lock to *create* a stage or append a completed span.  Per-stage mutation
uses a per-metric lock so concurrent recordings never lose updates
(totals stay exact across threads).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from repro.obs.context import current_context

__all__ = [
    "Counter",
    "Distribution",
    "FP_SCALE",
    "Histogram",
    "Registry",
    "Span",
    "counter_value",
    "get_registry",
    "merge_states",
    "render_report",
    "snapshot_stats",
    "state_layout",
    "state_stats",
    "traced",
]

# Fixed-point scale for mergeable accumulators.  Floating-point addition
# is not associative, so per-shard float totals merged in different
# orders drift in the last bits; accumulating integers (nanoseconds for
# timers, value * FP_SCALE for counters/distributions) at record time
# makes every merge order bit-identical.  Python ints never overflow.
FP_SCALE = 10 ** 9


def fixed_point(value: float) -> int:
    """Round a value onto the shared fixed-point grid (1e-9 resolution)."""
    return int(round(value * FP_SCALE))


# ----------------------------------------------------------------------
# Percentile histogram
# ----------------------------------------------------------------------
# Geometric buckets from 0.1 µs up: bucket i covers
# [_HIST_MIN_S * G**i, _HIST_MIN_S * G**(i+1)).  93 buckets reach ~100 s,
# and the geometric-midpoint representative bounds the relative error of
# any percentile by sqrt(G) - 1 ≈ 11.8 %.
_HIST_MIN_S = 1e-7
_HIST_GROWTH = 1.25
_HIST_BUCKETS = 93
_LOG_GROWTH = math.log(_HIST_GROWTH)


class Histogram:
    """Streaming fixed-bucket (log-scale) histogram of samples.

    Constant memory, O(1) :meth:`record`, percentile queries by walking
    the cumulative counts.  It also holds the exact count, min, and max.
    Representative values are clamped to the observed ``[min, max]`` so
    extreme percentiles never overshoot the data.
    """

    __slots__ = ("counts", "count", "_min", "_max")

    def __init__(self) -> None:
        self.counts = [0] * _HIST_BUCKETS
        self.count = 0
        self._min = math.inf
        self._max = -math.inf

    @staticmethod
    def bucket_index(seconds: float) -> int:
        if seconds <= _HIST_MIN_S:
            return 0
        index = int(math.log(seconds / _HIST_MIN_S) / _LOG_GROWTH)
        return min(index, _HIST_BUCKETS - 1)

    def record(self, seconds: float) -> None:
        self.counts[self.bucket_index(seconds)] += 1
        self.count += 1
        if seconds < self._min:
            self._min = seconds
        if seconds > self._max:
            self._max = seconds

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (``0 <= q <= 100``)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                low = _HIST_MIN_S * _HIST_GROWTH ** index
                representative = low * math.sqrt(_HIST_GROWTH)
                return min(max(representative, self._min), self._max)
        return self._max  # pragma: no cover — unreachable (seen == count)

    # -- mergeable state ------------------------------------------------
    # Sparse JSON-safe bucket state for the cross-process snapshot merge
    # protocol (see repro.obs.export).  Bucket counts are ints and
    # min/max are exact observed values, so merging is associative,
    # commutative, and bit-exact in any order.

    def merge_state(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "buckets": [[i, c] for i, c in enumerate(self.counts) if c],
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
        }

    def merge_in(self, state: Dict[str, Any]) -> "Histogram":
        for index, bucket_count in state["buckets"]:
            self.counts[int(index)] += int(bucket_count)
        self.count += int(state["count"])
        if state["min"] is not None and state["min"] < self._min:
            self._min = state["min"]
        if state["max"] is not None and state["max"] > self._max:
            self._max = state["max"]
        return self

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Histogram":
        return cls().merge_in(state)


# ----------------------------------------------------------------------
# The mergeable primitive: distributions (timers are unit="s") and counters
# ----------------------------------------------------------------------
class _Layout(NamedTuple):
    """Key names of one distribution's merge and stats dicts.

    A stage timer names its fields after seconds (``calls``,
    ``total_ns``, ``min_s``, ``p99_s``...); a value stream, and every
    sliding-window series cell, uses the bare names (``count``,
    ``total_fp``, ``min``, ``p99``...).  The numbers are the same.
    """

    unit: str
    count: str
    total_fp: str
    suffix: str


_TIMER_LAYOUT = _Layout("s", "calls", "total_ns", "_s")
_VALUE_LAYOUT = _Layout("", "count", "total_fp", "")


def state_layout(state: Dict[str, Any]) -> _Layout:
    """Which layout a distribution merge state is keyed in."""
    return _TIMER_LAYOUT if "calls" in state else _VALUE_LAYOUT


class Distribution:
    """Mergeable summary of one named sample stream.

    Its only state is what a cross-process merge needs: the fixed-point
    total (each sample rounded onto the ``FP_SCALE`` grid, so totals sum
    bit-exactly in any order) and the :class:`Histogram`, which holds
    the count, the log buckets behind p50/p90/p99, and the exact min and
    max.  Every float view is derived from that state.

    ``unit="s"`` tags a stage timer (wall-clock durations), whose dicts
    use the seconds layout (``calls``, ``total_ns``, ``total_s``...);
    ``unit=""`` summarizes plain values — engine batch sizes, queue
    depths, candidate counts.  The bucket grid spans roughly
    ``[1e-7, 1e2]``; values outside saturate the edge buckets, but
    min/max stay exact and percentiles are clamped to them, so
    small-integer streams lose at most the ~12 % bucket error.
    """

    __slots__ = ("name", "unit", "total_fp", "histogram", "_lock")

    def __init__(self, name: str = "", unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.total_fp = 0
        self.histogram = Histogram()
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        scaled = fixed_point(value)
        with self._lock:
            self.total_fp += scaled
            self.histogram.record(value)

    def merge_in(self, state: Dict[str, Any]) -> "Distribution":
        """Add another distribution's merge state (either layout)."""
        with self._lock:
            self.total_fp += state[state_layout(state).total_fp]
            self.histogram.merge_in(state["hist"])
        return self

    def merge_state(self) -> Dict[str, Any]:
        """Order-independent state for cross-process merging."""
        with self._lock:
            total_fp = self.total_fp
            hist = self.histogram.merge_state()
        keys = _TIMER_LAYOUT if self.unit == "s" else _VALUE_LAYOUT
        return {
            keys.count: hist["count"],
            keys.total_fp: total_fp,
            "min" + keys.suffix: hist["min"],
            "max" + keys.suffix: hist["max"],
            "hist": hist,
        }

    # -- derived float views --------------------------------------------
    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total(self) -> float:
        return self.total_fp / FP_SCALE

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    @property
    def min(self) -> float:
        return self.histogram._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self.histogram._max if self.count else 0.0

    # A timer reads the same views under its seconds names.
    calls, total_s, mean_s, min_s, max_s = count, total, mean, min, max

    def percentile(self, q: float) -> float:
        return self.histogram.percentile(q)


def state_stats(state: Dict[str, Any]) -> Dict[str, float]:
    """Derive count/total/mean/min/max/p50/p90/p99 from a distribution
    merge state, keyed in the state's own layout.

    Strict JSON: an empty state reads as zeros, never ``Infinity``.
    """
    keys = state_layout(state)
    suffix = keys.suffix
    hist = Histogram.from_state(state["hist"])
    count = state[keys.count]
    total = state[keys.total_fp] / FP_SCALE
    low, high = state["min" + suffix], state["max" + suffix]
    return {
        keys.count: count,
        "total" + suffix: total,
        "mean" + suffix: total / count if count else 0.0,
        "min" + suffix: 0.0 if low is None else low,
        "max" + suffix: 0.0 if high is None else high,
        "p50" + suffix: hist.percentile(50.0),
        "p90" + suffix: hist.percentile(90.0),
        "p99" + suffix: hist.percentile(99.0),
    }


def merge_states(a: Optional[Dict[str, Any]],
                 b: Dict[str, Any]) -> Dict[str, Any]:
    """Merge two distribution states of one layout (``a=None`` is empty).

    Integer sums plus exact min/max: associative, commutative, and
    bit-exact in any order.
    """
    if a is None:
        return b
    merged = Distribution(unit=state_layout(a).unit).merge_in(a).merge_in(b)
    return merged.merge_state()


class Counter:
    """Accumulated event count (windows scanned, ops simulated, ...).

    Kept only as a fixed-point integer (``amount * FP_SCALE``, rounded
    per add) so shard merges are bit-exact regardless of order;
    :attr:`value` is derived from it.
    """

    __slots__ = ("name", "value_fp", "_lock")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value_fp = 0
        self._lock = threading.Lock()

    def add(self, amount: float = 1) -> None:
        scaled = fixed_point(amount)
        with self._lock:
            self.value_fp += scaled

    @property
    def value(self) -> float:
        return counter_value(self.merge_state())

    def merge_state(self) -> Dict[str, Any]:
        return {"value_fp": self.value_fp}


def counter_value(state: Dict[str, Any]) -> float:
    """A counter state's value: an int when it is whole, else a float."""
    whole, fraction = divmod(state["value_fp"], FP_SCALE)
    return state["value_fp"] / FP_SCALE if fraction else whole


def snapshot_stats(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The plain-stats view of a merge document: per-timer and
    per-distribution :func:`state_stats`, per-counter value.  A
    :meth:`Registry.snapshot` is this view of the registry's own merge
    state, so it equals the view of any merge that reproduces it."""
    return {
        "timers": {n: state_stats(s) for n, s in doc["timers"].items()},
        "counters": {n: counter_value(s) for n, s in doc["counters"].items()},
        "distributions": {n: state_stats(s)
                          for n, s in doc["distributions"].items()},
    }


def render_report(stats: Dict[str, Any], title: str) -> str:
    """Per-stage latency table (sorted by total time), counters, and
    distributions of a :meth:`Registry.snapshot`-shaped dict: the live
    registry's, or the ``obs`` block of a ``BENCH_*.json`` file."""
    lines = [f"== {title}: per-stage timings =="]
    timers = stats.get("timers", {})
    if timers:
        width = max(len(name) for name in timers)
        columns = ("total", "mean", "p50", "p90", "p99", "max")
        lines.append(f"{'stage'.ljust(width)} | {'calls':>6} | "
                     + " | ".join(f"{c + ' ms':>10}" for c in columns))
        for name, t in sorted(timers.items(),
                              key=lambda kv: -kv[1].get("total_s", 0.0)):
            lines.append(
                f"{name.ljust(width)} | {t.get('calls', 0):>6} | "
                + " | ".join(f"{t.get(c + '_s', 0.0) * 1e3:>10.3f}"
                             for c in columns))
    else:
        lines.append("(no timers recorded)")
    counters = stats.get("counters", {})
    if counters:
        width = max(len(name) for name in counters)
        lines.append("-- counters --")
        for name, value in sorted(counters.items()):
            amount = int(value) if float(value).is_integer() else value
            lines.append(f"{name.ljust(width)} | {amount}")
    distributions = stats.get("distributions", {})
    if distributions:
        width = max(len(name) for name in distributions)
        columns = ("mean", "p50", "p90", "p99", "min", "max")
        lines.append("-- distributions --")
        lines.append(f"{'name'.ljust(width)} | {'count':>6} | "
                     + " | ".join(f"{c:>8}" for c in columns))
        for name, d in sorted(distributions.items()):
            lines.append(
                f"{name.ljust(width)} | {d.get('count', 0):>6} | "
                + " | ".join(f"{d.get(c, 0.0):>8.2f}" for c in columns))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Span:
    """One (possibly still open) node of the trace tree.

    ``start_us``/``dur_us`` are microseconds relative to the registry's
    epoch (reset on :meth:`Registry.reset`) — the Chrome trace-event
    convention.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    tid: int
    start_us: float = 0.0
    dur_us: float = 0.0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    trace_id: Optional[str] = None

    def set_attr(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (window counts, ...)."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tid": self.tid,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc


class _NullSpan:
    """Inert span handed out while the registry is disabled."""

    __slots__ = ()

    def set_attr(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

# Hot loops can emit millions of spans; keep a bounded window and count
# the overflow instead of growing without limit.
DEFAULT_MAX_SPANS = 100_000


def _new_timer(name: str) -> Distribution:
    return Distribution(name, unit="s")


class Registry:
    """Named collection of timers, counters, distributions, and spans.

    Thread-safe for concurrent ``span``/``count``/``observe`` calls;
    detection servers can share one registry across worker threads.
    Each thread keeps its own span stack, so parent/child links never
    cross threads.
    """

    def __init__(self, name: str = "obs",
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.name = name
        self.enabled = True
        self.max_spans = max_spans
        self._timers: Dict[str, Distribution] = {}
        self._counters: Dict[str, Counter] = {}
        self._distributions: Dict[str, Distribution] = {}
        self._spans: List[Span] = []
        self._dropped_spans = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._span_ids = itertools.count(1)
        self._epoch = time.perf_counter()
        # Optional live-series sink (repro.obs.series.SeriesRecorder):
        # when attached, every timer/counter/distribution recording is
        # mirrored into sliding windows.  One attribute read + None
        # check when absent, so the default path pays nothing.
        self._series: Optional[Any] = None

    # -- accessors ------------------------------------------------------
    def _get(self, table: Dict[str, Any], name: str,
             factory: Callable[[str], Any]) -> Any:
        # Lock-free hit path: dict reads are atomic under the GIL, and
        # entries are never deleted outside reset().
        metric = table.get(name)
        if metric is None:
            with self._lock:
                metric = table.get(name)
                if metric is None:
                    metric = table[name] = factory(name)
        return metric

    def timer(self, name: str) -> Distribution:
        return self._get(self._timers, name, _new_timer)

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def distribution(self, name: str) -> Distribution:
        return self._get(self._distributions, name, Distribution)

    @property
    def timers(self) -> Dict[str, Distribution]:
        with self._lock:
            return dict(self._timers)

    @property
    def counters(self) -> Dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    @property
    def distributions(self) -> Dict[str, Distribution]:
        with self._lock:
            return dict(self._distributions)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def dropped_spans(self) -> int:
        return self._dropped_spans

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a named child span of whatever span this thread is in.

        Yields the :class:`Span` so the block can ``set_attr(...)``
        values it only learns mid-flight.  On exit the duration feeds the
        stage's timer (so percentiles aggregate across calls) and the
        completed span joins the trace buffer.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        ctx = current_context()
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        elif ctx is not None:
            # Queue-hop re-parenting: a thread-root span opened under a
            # request context hangs off the request's root span, so the
            # trace tree survives thread-pool handoffs.
            parent_id = ctx.parent_span_id
        else:
            parent_id = None
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            tid=threading.get_ident(),
            attrs=dict(attrs) if attrs else {},
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self._finish(span, start, elapsed)

    def record_span(self, name: str, start_s: float, end_s: float, *,
                    trace_id: Optional[str] = None,
                    parent_id: Optional[int] = None,
                    attrs: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Record an externally-timed interval as a completed span.

        For intervals whose endpoints straddle threads — an engine
        job's queue wait is timed from the submitter's ``put`` to the
        worker's flush — no ``with`` block can wrap them, so the caller
        passes the two ``time.perf_counter()`` readings (and the
        captured request's ``trace_id``/``parent_id``) directly.  The
        interval feeds the stage timer and series exactly like a
        :meth:`span` block.
        """
        if not self.enabled:
            return None
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            tid=threading.get_ident(),
            attrs=dict(attrs) if attrs else {},
            trace_id=trace_id,
        )
        self._finish(span, start_s, max(0.0, end_s - start_s))
        return span

    def _finish(self, span: Span, start_s: float, elapsed: float) -> None:
        """Stamp a completed span, feed its stage timer (and series),
        and buffer it — or count it dropped once the buffer is full."""
        span.start_us = (start_s - self._epoch) * 1e6
        span.dur_us = elapsed * 1e6
        self.timer(span.name).record(elapsed)
        series = self._series
        if series is not None:
            series.record_timer(span.name, elapsed)
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self._dropped_spans += 1

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counter(name).add(amount)
            series = self._series
            if series is not None:
                series.record_counter(name, amount)

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a value stream (queue depth, batch size)."""
        if self.enabled:
            # The registry's value streams hold floats; the series cell
            # keeps the sample as given.
            self.distribution(name).record(float(value))
            series = self._series
            if series is not None:
                series.record_value(name, value)

    # -- live series ----------------------------------------------------
    def attach_series(self, series: Any) -> Any:
        """Mirror every recording into a sliding-window series sink
        (:class:`repro.obs.series.SeriesRecorder`).  Returns the sink.
        Pass ``None`` to detach."""
        self._series = series
        return series

    @property
    def series(self) -> Optional[Any]:
        return self._series

    def traced(self, name: Optional[str] = None) -> Callable:
        """Decorator timing every call to the wrapped function.

        The stage name defaults to the function's qualified name.  When
        the registry is disabled the wrapper is a plain passthrough — no
        lock, no clock, no span bookkeeping.
        """

        def decorate(func: Callable) -> Callable:
            stage = name or f"{func.__module__.split('.')[-1]}.{func.__qualname__}"

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return func(*args, **kwargs)
                with self.span(stage):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # -- inspection -----------------------------------------------------
    def merge_state(self) -> Dict[str, Any]:
        """The order-independent tables of a ``repro.obs.merge/1``
        document (:func:`repro.obs.export.mergeable_snapshot` adds the
        schema tag and the series)."""
        with self._lock:
            timers = dict(self._timers)
            counters = dict(self._counters)
            distributions = dict(self._distributions)
        return {
            "timers": {n: t.merge_state() for n, t in timers.items()},
            "counters": {n: c.merge_state() for n, c in counters.items()},
            "distributions": {n: d.merge_state()
                              for n, d in distributions.items()},
            "dropped_spans": self._dropped_spans,
        }

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict stats view (stable for serialization/tests).

        Derived from :meth:`merge_state` (see :func:`snapshot_stats`), so
        it equals the stats of any bit-exact merge of this registry's
        shards.  Strict-JSON safe: never-recorded timers report
        ``min_s = 0.0`` rather than leaking ``Infinity``.
        """
        return snapshot_stats(self.merge_state())

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Snapshot plus the span buffer — the ``obs`` block that
        :mod:`repro.obs.telemetry` embeds in ``BENCH_*.json``."""
        doc = self.snapshot()
        with self._lock:
            doc["spans"] = [s.as_dict() for s in self._spans]
            doc["dropped_spans"] = self._dropped_spans
        return doc

    def spans_for_trace(self, trace_id: str) -> List[Span]:
        """All buffered spans stamped with ``trace_id`` (any thread)."""
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def span_tree(self) -> List[Dict[str, Any]]:
        """Nested view of the span buffer (see :func:`repro.obs.trace.span_tree`)."""
        from repro.obs.trace import span_tree

        return span_tree(self.spans)

    def report(self, title: Optional[str] = None) -> str:
        """Human-readable per-stage latency table, sorted by total time."""
        return render_report(self.snapshot(), title or self.name)

    def reset(self) -> None:
        with self._lock:
            self._timers.clear()
            self._counters.clear()
            self._distributions.clear()
            self._spans.clear()
            self._dropped_spans = 0
            self._epoch = time.perf_counter()
        series = self._series
        if series is not None:
            series.reset()



_GLOBAL = Registry("repro")


def get_registry() -> Registry:
    """The process-wide registry the hot path records into."""
    return _GLOBAL


def install_registry(registry: Registry) -> Registry:
    """Replace the process-wide registry; returns the previous one.

    Shard worker bootstrap installs a *fresh* registry after fork: the
    inherited one carries the parent's accumulated metrics (which would
    double-count in merged snapshots) and locks whose state at fork
    time is not guaranteed clean.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


def traced(name: Optional[str] = None) -> Callable:
    """``@traced("stage")`` — time calls into the global registry."""
    return _GLOBAL.traced(name)
