"""Sliding-window time series over the log-bucket histograms.

The registry's timers answer "how has this stage behaved since process
start"; an operator watching a serving tier needs "how is it behaving
*right now*".  This module keeps, per metric, a ring of per-second
cells — each cell the registry's own mergeable
:class:`~repro.obs.registry.Distribution` (fixed-point total plus a
constant-memory log-bucket histogram) — so windowed rate,
p50, and p99 over the last N seconds are one walk over at most
``buckets`` cells, with total memory fixed at ring size regardless of
traffic.

Cells are keyed by the **absolute wall-clock bucket index**
(``int(time.time() // bucket_s)``), not a process-relative tick, so
cells from different shard processes land on the same grid and the
mergeable snapshot protocol (:mod:`repro.obs.export`) can sum them
cell-by-cell.  All accumulators are integers (fixed-point via
:func:`~repro.obs.registry.fixed_point`), keeping merges bit-exact in
any order; the merge is lossless whenever the shards' activity spans
fit inside the ring horizon (``bucket_s * buckets`` seconds).

Attach a :class:`SeriesRecorder` with
``get_registry().attach_series(SeriesRecorder())`` and every
span/count/observe recording is mirrored here automatically.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.obs.registry import (
    FP_SCALE,
    Distribution,
    fixed_point,
    merge_states,
    state_stats,
)

__all__ = [
    "SeriesRecorder",
    "WindowedCounter",
    "WindowedSeries",
    "merge_series_states",
]

SERIES_SCHEMA = "repro.obs.series/1"

DEFAULT_BUCKET_S = 1.0
DEFAULT_BUCKETS = 120


class _CountCell:
    __slots__ = ("events", "amount_fp")

    def __init__(self) -> None:
        self.events = 0
        self.amount_fp = 0

    def record(self, amount: float) -> None:
        self.events += 1
        self.amount_fp += fixed_point(amount)

    def merge_state(self) -> Dict[str, Any]:
        return {"events": self.events, "amount_fp": self.amount_fp}


class _Ring:
    """Fixed-size ring of cells addressed by absolute bucket index."""

    __slots__ = ("bucket_s", "indices", "slots", "make_cell", "_lock")

    def __init__(self, bucket_s: float, buckets: int,
                 make_cell: Callable[[], Any]) -> None:
        self.bucket_s = bucket_s
        self.indices: List[Optional[int]] = [None] * buckets
        self.slots: List[Any] = [None] * buckets
        self.make_cell = make_cell
        self._lock = threading.Lock()

    def record(self, now: float, *args: Any) -> None:
        index = int(now // self.bucket_s)
        slot = index % len(self.slots)
        with self._lock:
            if self.indices[slot] != index:
                # Lazy eviction: a stale cell is overwritten only when
                # its slot is claimed by a new wall-clock bucket.
                self.indices[slot] = index
                self.slots[slot] = self.make_cell()
            self.slots[slot].record(*args)

    def cells_in_window(self, window_s: float, now: float) -> List[Any]:
        now_index = int(now // self.bucket_s)
        span = max(1, int(math.ceil(window_s / self.bucket_s)))
        first = now_index - span + 1
        with self._lock:
            return [c for i, c in zip(self.indices, self.slots)
                    if i is not None and first <= i <= now_index]

    def merge_state(self) -> Dict[str, Any]:
        with self._lock:
            cells = [(i, c) for i, c in zip(self.indices, self.slots)
                     if i is not None]
        return {"cells": {str(i): c.merge_state() for i, c in cells}}


class WindowedSeries:
    """Sliding-window stats for a value stream (durations or sizes).

    Each cell is a :class:`~repro.obs.registry.Distribution` in the bare
    layout, so a window is the merge of its cells.
    """

    def __init__(self, name: str, bucket_s: float = DEFAULT_BUCKET_S,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        self.name = name
        self._ring = _Ring(bucket_s, buckets, Distribution)

    def record(self, value: float, now: Optional[float] = None) -> None:
        self._ring.record(time.time() if now is None else now, value)

    def window_stats(self, window_s: float,
                     now: Optional[float] = None) -> Dict[str, float]:
        stats = state_stats(self.window_state(window_s, now))
        del stats["total"]
        count = stats.pop("count")
        return {"window_s": window_s, "count": count,
                "rate_per_s": count / window_s, **stats}

    def window_state(self, window_s: float,
                     now: Optional[float] = None) -> Dict[str, Any]:
        """Merged cell state over the window (for SLO burn math: the
        histogram gives the fraction of samples above a threshold)."""
        now = time.time() if now is None else now
        window = Distribution()
        for cell in self._ring.cells_in_window(window_s, now):
            window.merge_in(cell.merge_state())
        return window.merge_state()

    def merge_state(self) -> Dict[str, Any]:
        return self._ring.merge_state()


class WindowedCounter:
    """Sliding-window event/amount rate for a counter stream."""

    def __init__(self, name: str, bucket_s: float = DEFAULT_BUCKET_S,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        self.name = name
        self._ring = _Ring(bucket_s, buckets, _CountCell)

    def record(self, amount: float = 1, now: Optional[float] = None) -> None:
        self._ring.record(time.time() if now is None else now, amount)

    def window_stats(self, window_s: float,
                     now: Optional[float] = None) -> Dict[str, float]:
        now = time.time() if now is None else now
        cells = self._ring.cells_in_window(window_s, now)
        events = sum(c.events for c in cells)
        amount = sum(c.amount_fp for c in cells) / FP_SCALE
        return {
            "window_s": window_s,
            "events": events,
            "amount": amount,
            "rate_per_s": amount / window_s,
        }

    def merge_state(self) -> Dict[str, Any]:
        return self._ring.merge_state()


class SeriesRecorder:
    """Per-metric sliding windows fed by the registry's probe hooks.

    Install with ``registry.attach_series(SeriesRecorder())``; the
    registry then mirrors every span duration (``record_timer``),
    counter increment (``record_counter``), and distribution sample
    (``record_value``) into this recorder's rings.
    """

    def __init__(self, bucket_s: float = DEFAULT_BUCKET_S,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        self.bucket_s = bucket_s
        self.buckets = buckets
        self._timers: Dict[str, WindowedSeries] = {}
        self._counters: Dict[str, WindowedCounter] = {}
        self._values: Dict[str, WindowedSeries] = {}
        self._lock = threading.Lock()

    # -- get-or-create (lock-free hit path, like Registry) --------------
    def _get(self, table: Dict[str, Any], name: str, factory: Callable) -> Any:
        series = table.get(name)
        if series is None:
            with self._lock:
                series = table.get(name)
                if series is None:
                    series = table[name] = factory(
                        name, self.bucket_s, self.buckets)
        return series

    def timer_series(self, name: str) -> WindowedSeries:
        return self._get(self._timers, name, WindowedSeries)

    def counter_series(self, name: str) -> WindowedCounter:
        return self._get(self._counters, name, WindowedCounter)

    def value_series(self, name: str) -> WindowedSeries:
        return self._get(self._values, name, WindowedSeries)

    # -- registry hooks -------------------------------------------------
    def record_timer(self, name: str, seconds: float,
                     now: Optional[float] = None) -> None:
        self.timer_series(name).record(seconds, now=now)

    def record_counter(self, name: str, amount: float = 1,
                       now: Optional[float] = None) -> None:
        self.counter_series(name).record(amount, now=now)

    def record_value(self, name: str, value: float,
                     now: Optional[float] = None) -> None:
        self.value_series(name).record(value, now=now)

    # -- views ----------------------------------------------------------
    def snapshot(self, windows: Iterable[float] = (10.0, 60.0),
                 now: Optional[float] = None) -> Dict[str, Any]:
        """Live windowed view: per-window rate/percentiles per metric."""
        now = time.time() if now is None else now
        out: Dict[str, Any] = {"bucket_s": self.bucket_s, "windows": {}}
        with self._lock:
            timers = dict(self._timers)
            counters = dict(self._counters)
            values = dict(self._values)
        for window_s in windows:
            label = f"{window_s:g}s"
            out["windows"][label] = {
                "timers": {n: s.window_stats(window_s, now)
                           for n, s in timers.items()},
                "counters": {n: s.window_stats(window_s, now)
                             for n, s in counters.items()},
                "values": {n: s.window_stats(window_s, now)
                           for n, s in values.items()},
            }
        return out

    def merge_state(self) -> Dict[str, Any]:
        with self._lock:
            timers = dict(self._timers)
            counters = dict(self._counters)
            values = dict(self._values)
        return {
            "schema": SERIES_SCHEMA,
            "bucket_s": self.bucket_s,
            "timers": {n: s.merge_state() for n, s in timers.items()},
            "counters": {n: s.merge_state() for n, s in counters.items()},
            "values": {n: s.merge_state() for n, s in values.items()},
        }

    def reset(self) -> None:
        with self._lock:
            self._timers.clear()
            self._counters.clear()
            self._values.clear()


def _merge_count_cells(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    if a is None:
        return b
    return {"events": a["events"] + b["events"],
            "amount_fp": a["amount_fp"] + b["amount_fp"]}


def _merge_tables(tables: List[Dict[str, Any]], merge_cell) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for table in tables:
        for name, series in table.items():
            target = out.setdefault(name, {"cells": {}})["cells"]
            for index, cell in series["cells"].items():
                target[index] = merge_cell(target.get(index), cell)
    return out


def merge_series_states(states: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge :meth:`SeriesRecorder.merge_state` docs cell-by-cell.

    Associative and commutative: cells are keyed by absolute wall-clock
    bucket index and all accumulators are integers, so any merge order
    produces the identical document.  All inputs must share ``bucket_s``.
    """
    states = list(states)
    if not states:
        return {"schema": SERIES_SCHEMA, "bucket_s": DEFAULT_BUCKET_S,
                "timers": {}, "counters": {}, "values": {}}
    bucket_sizes = {s["bucket_s"] for s in states}
    if len(bucket_sizes) > 1:
        raise ValueError(
            f"cannot merge series with different bucket sizes: "
            f"{sorted(bucket_sizes)}")
    return {
        "schema": SERIES_SCHEMA,
        "bucket_s": states[0]["bucket_s"],
        "timers": _merge_tables([s["timers"] for s in states],
                                merge_states),
        "counters": _merge_tables([s["counters"] for s in states],
                                  _merge_count_cells),
        "values": _merge_tables([s["values"] for s in states],
                                merge_states),
    }
