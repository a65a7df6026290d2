"""Per-layer tracing from outside the program.

A traced run replaces each public function in :data:`TARGETS` with a
wrapper that opens ``get_registry().span("L.<layer>")`` around the real
call.  The wrappers are installed before the shard workers fork, so the
workers inherit them; worker timers come back through
``ShardRouter.aggregate_snapshot()``.  Besides the span (whose timer gives
calls, total and percentiles), each wrapper records

* ``L.<layer>.self`` -- the call's duration minus the time spent in
  wrapped calls it made on the same thread, so self time is measured where
  the work happens, in the front-end and in every worker alike;
* ``L.<layer>.items`` -- a work count (scenes, windows, candidates) read
  from the call's arguments.

With the registry disabled a wrapper calls straight through.  The
wrappers use :func:`functools.wraps`, so ``inspect.signature`` still sees
the wrapped signature (the engine checks it for a ``contexts`` argument).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import chrome_trace, get_registry
from repro.obs.export import dist_state_stats, timer_state_stats
from repro.obs.registry import _HIST_GROWTH, _HIST_MIN_S, FP_SCALE

from . import harness

PREFIX = "L."


def _arg(position: int) -> Callable[[tuple], int]:
    return lambda args: len(args[position])


def _rows(args: tuple) -> int:
    first = next(iter(args[1].values()), None)
    return 0 if first is None else len(first)


#: ``(module, attribute, layer, items)``: the public function, the layer
#: name its span gets, and how to count the work one call does.
#: ``refine_with_examples``, ``nms``, ``predict_windows`` and
#: ``score_windows`` are patched where their callers look them up.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[tuple], int]]], ...] = (
    ("repro.serve.shard", "ShardRouter.submit", "shard.submit", None),
    ("repro.serve.engine", "DetectionEngine.submit", "engine.submit", None),
    ("repro.serve.session", "MissionSession.detect_batch", "session.detect_batch", _arg(1)),
    ("repro.serve.session", "SessionCache.get_or_create", "session.get_or_create", None),
    ("repro.kg.llm", "SimulatedLLM.generate", "kg.generate", None),
    ("repro.core.pipeline", "refine_with_examples", "kg.refine", None),
    ("repro.kg.matcher", "GraphMatcher.match_distributions", "kg.match", _rows),
    ("repro.detect.pipeline", "TaskDetector.detect_batch_with_signals", "detect.batch", _arg(1)),
    ("repro.detect.pipeline", "predict_windows", "detect.predict", _arg(1)),
    ("repro.detect.pipeline", "nms", "detect.nms", _arg(0)),
    ("repro.quant.vit", "QuantizedVisionTransformer.__call__", "quant.forward", _arg(1)),
    ("repro.stream.tracker", "StreamingDetector.update", "stream.update", None),
    ("repro.stream.tracker", "StreamingDetector.update_many", "stream.update_many", _arg(1)),
    ("repro.stream.tracker", "score_windows", "stream.score", _arg(1)),
)


class LayerTracer:
    """The layer wrappers and the per-thread stack of open layer calls
    that their self times are computed from."""

    def __init__(self) -> None:
        self._local = threading.local()

    def _frames(self) -> List[List[float]]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, layer: str, fn: Callable, items: Optional[Callable[[tuple], int]]) -> Callable:
        name = PREFIX + layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            registry = get_registry()
            if not registry.enabled:
                return fn(*args, **kwargs)
            frames = self._frames()
            children = [0.0]
            frames.append(children)
            try:
                with registry.span(name) as span:
                    return fn(*args, **kwargs)
            finally:
                frames.pop()
                elapsed = span.dur_us * 1e-6
                if frames:
                    frames[-1][0] += elapsed
                registry.timer(name + ".self").record(elapsed - children[0])
                if items is not None:
                    registry.count(name + ".items", items(args))

        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper, for the life of the process."""
        for module_name, attribute, layer, items in TARGETS:
            owner: Any = importlib.import_module(module_name)
            path = attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            setattr(owner, path[-1], self._wrap(layer, owner.__dict__[path[-1]], items))


# ----------------------------------------------------------------------
# Per-layer metrics from a merged snapshot
# ----------------------------------------------------------------------
def hist_percentile(hist: Dict[str, Any], q: float) -> float:
    """q-th percentile of a merged ``repro.obs`` log-bucket histogram,
    interpolated geometrically inside the bucket that holds the rank.

    The registry's own percentile returns the bucket's midpoint, so it
    moves in 25% steps and reads the same on most runs; interpolating by
    the rank's position among the bucket's samples moves with the data.
    """
    count = hist["count"]
    if not count:
        return 0.0
    rank = q / 100.0 * count
    seen = 0
    for index, bucket_count in sorted(hist["buckets"]):
        if seen + bucket_count >= rank:
            fraction = (rank - seen) / bucket_count
            value = _HIST_MIN_S * _HIST_GROWTH ** (index + fraction)
            return min(max(value, hist["min"]), hist["max"])
        seen += bucket_count
    return hist["max"]


class LayerView:
    """Read layer timers, counters and distributions out of a merged
    ``repro.obs`` snapshot; absent entries read as zero."""

    def __init__(self, snapshot: Dict[str, Any]) -> None:
        self.snapshot = snapshot

    def timer(self, name: str) -> Dict[str, float]:
        state = self.snapshot["timers"].get(name)
        if state is None:
            return {"calls": 0, "total_s": 0.0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0}
        stats = timer_state_stats(state)
        stats["p50_s"] = hist_percentile(state["hist"], 50.0)
        stats["p99_s"] = hist_percentile(state["hist"], 99.0)
        return stats

    def layer(self, layer: str) -> Dict[str, float]:
        return self.timer(PREFIX + layer)

    def count(self, name: str) -> float:
        state = self.snapshot["counters"].get(name)
        return state["value_fp"] / FP_SCALE if state else 0.0

    def items(self, layer: str) -> float:
        return self.count(PREFIX + layer + ".items")

    def dist_mean(self, name: str) -> float:
        state = self.snapshot["distributions"].get(name)
        return dist_state_stats(state)["mean"] if state else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(view: LayerView) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric computable from the snapshot alone.

    Metrics measured by the load generator itself (round trips,
    payloads, threads, gate hit rate, lag, tracing overhead) are added by
    the workload.
    """
    ms = 1e3
    submit = view.layer("shard.submit")
    queue_wait = view.timer("engine.queue_wait")
    execute = view.timer("engine.execute")
    prepare = view.layer("session.get_or_create")
    hits = view.count("session.cache.hit")
    misses = view.count("session.cache.miss")
    match = view.layer("kg.match")
    batch = view.layer("detect.batch")
    forward = view.layer("quant.forward")
    update = view.layer("stream.update")
    frames = update["calls"]
    return {
        "shard.submit_us.p50": (submit["p50_s"] * 1e6, "us"),
        "engine.queue_wait_ms.p50": (queue_wait["p50_s"] * ms, "ms"),
        "engine.queue_wait_ms.p99": (queue_wait["p99_s"] * ms, "ms"),
        "engine.execute_ms.p50": (execute["p50_s"] * ms, "ms"),
        "engine.sojourn_ms.mean": ((queue_wait["mean_s"] + execute["mean_s"]) * ms, "ms"),
        "engine.batch_size.mean": (view.dist_mean("engine.batch_size"), "scenes"),
        "session.miss_frac": (_ratio(misses, hits + misses), "ratio"),
        "session.prepare_ms.p50": (prepare["p50_s"] * ms, "ms"),
        "kg.generate_ms.p50": (view.layer("kg.generate")["p50_s"] * ms, "ms"),
        "kg.refine_ms.p50": (view.layer("kg.refine")["p50_s"] * ms, "ms"),
        "kg.match_ms.p50": (match["p50_s"] * ms, "ms"),
        "kg.match_ns_per_window": (_ratio(match["total_s"] * 1e9, view.items("kg.match")), "ns"),
        "detect.batch_ms.p50": (batch["p50_s"] * ms, "ms"),
        "detect.windows_per_call": (_ratio(view.items("detect.predict"), batch["calls"]), "count"),
        "detect.predict_ms.p50": (view.layer("detect.predict")["p50_s"] * ms, "ms"),
        "detect.nms_ms.p50": (view.layer("detect.nms")["p50_s"] * ms, "ms"),
        "detect.candidates_per_scene": (_ratio(view.items("detect.nms"), view.items("detect.batch")), "count"),
        "detect.self_ms.mean": (view.timer(PREFIX + "detect.batch.self")["mean_s"] * ms, "ms"),
        "quant.forward_ms.p50": (forward["p50_s"] * ms, "ms"),
        "quant.us_per_window": (_ratio(forward["total_s"] * 1e6, view.items("quant.forward")), "us"),
        "quant.windows": (view.items("quant.forward"), "count"),
        "stream.update_ms.p50": (update["p50_s"] * ms, "ms"),
        "stream.update_ms.p99": (update["p99_s"] * ms, "ms"),
        "stream.update_many_ms.p50": (view.layer("stream.update_many")["p50_s"] * ms, "ms"),
        "stream.score_ms.mean": (view.layer("stream.score")["mean_s"] * ms, "ms"),
        "stream.self_ms.mean": (view.timer(PREFIX + "stream.update.self")["mean_s"] * ms, "ms"),
        "stream.windows_per_frame": (_ratio(view.items("stream.score"), frames), "count"),
    }


# ----------------------------------------------------------------------
# Spans: self-time check and Chrome trace
# ----------------------------------------------------------------------
def layer_spans(spans: Sequence[Any]) -> List[Tuple[int, Optional[int], float, float, str]]:
    """The ``L.*`` spans as ``(id, nearest L.* ancestor, start, dur, name)``.

    Program spans sit between layer spans (``detect.batch_total`` wraps
    ``L.detect.predict``), so each layer span's parent is found by
    walking up to the nearest layer ancestor.
    """
    by_id = {span.span_id: span for span in spans}
    out = []
    for span in spans:
        if not span.name.startswith(PREFIX):
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and not parent.name.startswith(PREFIX):
            parent = by_id.get(parent.parent_id)
        out.append((span.span_id, parent.span_id if parent else None,
                    span.start_us, span.dur_us, span.name))
    return out


def self_time_deviation(spans: Sequence[Tuple[int, Optional[int], float, float, str]]) -> Tuple[int, float]:
    """Check the arithmetic: for every root layer span, its self time plus
    the self times of all its layer descendants must add back up to its
    duration.  Returns ``(roots checked, largest relative deviation)``."""
    selfs = harness.self_times([(sid, parent, start, dur) for sid, parent, start, dur, _ in spans])
    parent_of = {sid: parent for sid, parent, _, _, _ in spans}
    totals: Dict[int, float] = {}
    for sid in selfs:
        root = sid
        while parent_of.get(root) is not None:
            root = parent_of[root]
        totals[root] = totals.get(root, 0.0) + selfs[sid]
    duration = {sid: dur for sid, _, _, dur, _ in spans}
    worst = 0.0
    for root, total in totals.items():
        if duration[root] > 0:
            worst = max(worst, abs(total - duration[root]) / duration[root])
    return len(totals), worst


def write_chrome_trace(path: str, spans: Sequence[Any], process_name: str) -> int:
    """Write the layer spans as a Chrome trace; returns the span count."""
    kept = [span for span in spans if span.name.startswith(PREFIX)]
    with open(path, "w") as fh:
        json.dump(chrome_trace(kept, process_name=process_name), fh)
    return len(kept)
