"""Observability: spans, live metrics, mergeable export, SLOs.

``repro.obs`` has no dependencies (stdlib only) and is safe to import
from any layer.  The detection pipeline, KG matcher, hardware simulator,
trainers, and quantization calibration all record into the process-wide
registry, so benchmarks can print a per-stage latency breakdown — with
p50/p90/p99 from streaming histograms — instead of one opaque number:

    from repro.obs import get_registry
    get_registry().reset()
    detector.detect(scene)
    print(get_registry().report("detect"))

Every number lives in one mergeable primitive: a :class:`Distribution`
(a stage timer when tagged ``unit="s"``, else a value stream) or a
fixed-point :class:`Counter`, each storing only its merge state and
deriving its float views from it.

Timed blocks nest: ``registry.span("detect.batch_total")`` around
``registry.span("detect.nms")`` yields a parent/child trace tree that
:mod:`repro.obs.trace` exports as Chrome trace-event JSON (open it in
Perfetto), and :mod:`repro.obs.telemetry` persists alongside a run
manifest as ``BENCH_*.json`` for ``repro obs report/trace/compare``.

On top of that process-lifetime layer sits the request/live surface:

* :mod:`repro.obs.context` — per-request trace ids (tenant, mission,
  deadline) that survive the engine's queue hop, so every span and
  cascade routing decision is attributable to one request;
* :mod:`repro.obs.series` — sliding-window rate/p50/p99 per metric in
  constant memory, for "what is happening *now*";
* :mod:`repro.obs.export` — Prometheus text exposition, a bit-exact
  mergeable snapshot protocol for sharded serving, and the
  ``repro obs serve`` HTTP surface;
* :mod:`repro.obs.slo` — declarative objectives with fast/slow
  multi-window burn-rate alerts (live) and telemetry gates (CI);
* :mod:`repro.obs.sampler` — tail-based exemplar retention (slowest /
  shed / escalated / errored traces) plus a flight-recorder ring
  dumped to replayable JSON on engine errors and shed storms.
"""

from repro.obs.context import (
    RequestContext,
    context_from_wire,
    context_to_wire,
    current_context,
    new_trace_id,
    request_context,
    use_context,
)
from repro.obs.registry import (
    Counter,
    Distribution,
    Histogram,
    Registry,
    Span,
    get_registry,
    install_registry,
    traced,
)
from repro.obs.series import (
    SeriesRecorder,
    WindowedCounter,
    WindowedSeries,
    merge_series_states,
)
from repro.obs.export import (
    MetricsServer,
    merge_snapshots,
    mergeable_snapshot,
    prometheus_text,
    snapshot_delta,
)
from repro.obs.slo import (
    SLO,
    SLOStatus,
    default_slos,
    evaluate_live,
    evaluate_telemetry,
    load_slos,
)
from repro.obs.sampler import (
    Exemplar,
    ExemplarSampler,
    FlightRecorder,
    ShedStormDetector,
    get_sampler,
    install_sampler,
)
from repro.obs.trace import chrome_trace, flatten_tree, span_tree
from repro.obs.telemetry import (
    SCHEMA_VERSION,
    Comparison,
    CompareRow,
    build_telemetry,
    compare_telemetry,
    load_telemetry,
    run_manifest,
    write_telemetry,
)

__all__ = [
    "Counter",
    "Distribution",
    "Histogram",
    "Registry",
    "Span",
    "get_registry",
    "install_registry",
    "traced",
    "RequestContext",
    "context_from_wire",
    "context_to_wire",
    "current_context",
    "new_trace_id",
    "request_context",
    "use_context",
    "SeriesRecorder",
    "WindowedCounter",
    "WindowedSeries",
    "merge_series_states",
    "MetricsServer",
    "merge_snapshots",
    "mergeable_snapshot",
    "prometheus_text",
    "snapshot_delta",
    "SLO",
    "SLOStatus",
    "default_slos",
    "evaluate_live",
    "evaluate_telemetry",
    "load_slos",
    "Exemplar",
    "ExemplarSampler",
    "FlightRecorder",
    "ShedStormDetector",
    "get_sampler",
    "install_sampler",
    "chrome_trace",
    "span_tree",
    "flatten_tree",
    "SCHEMA_VERSION",
    "Comparison",
    "CompareRow",
    "build_telemetry",
    "compare_telemetry",
    "load_telemetry",
    "run_manifest",
    "write_telemetry",
]
