"""Obs v2: request contexts, sliding windows, mergeable snapshots,
Prometheus export, SLO burn rates, and tail-based exemplar sampling.

The merge-protocol tests are property-based (hypothesis): the whole
point of the fixed-point accumulators is that ``merge_snapshots`` is
associative, commutative, and bit-exact for *any* recording history,
so we assert dict equality over generated histories instead of
hand-picked examples.
"""

import json
import threading
import time
import types
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.context import (
    RequestContext,
    current_context,
    new_trace_id,
    request_context,
    use_context,
)
from repro.obs.export import (
    MERGE_SCHEMA,
    MetricsServer,
    dist_state_stats,
    merge_snapshots,
    mergeable_snapshot,
    prometheus_text,
    snapshot_delta,
    timer_state_stats,
)
from repro.obs.registry import FP_SCALE, Registry, get_registry
from repro.obs.sampler import (
    FLIGHT_SCHEMA,
    ExemplarSampler,
    FlightRecorder,
    ShedStormDetector,
    get_sampler,
    install_sampler,
)
from repro.obs.series import SeriesRecorder, WindowedSeries, merge_series_states
from repro.obs.slo import (
    SLO,
    default_slos,
    evaluate_live,
    evaluate_telemetry,
    format_statuses,
    load_slos,
)
from repro.obs.telemetry import build_telemetry, compare_telemetry, write_telemetry
from repro.serve.engine import DetectionEngine, EngineConfig, EngineRejected


@pytest.fixture()
def registry():
    return Registry("test")


@pytest.fixture()
def global_registry():
    """The process-wide registry the engine records into, reset around
    the test so concurrent-path assertions see only this test's spans."""
    reg = get_registry()
    reg.reset()
    try:
        yield reg
    finally:
        reg.reset()


# ----------------------------------------------------------------------
# Request context
# ----------------------------------------------------------------------
class TestRequestContext:
    def test_trace_ids_unique(self):
        ids = [new_trace_id() for _ in range(1000)]
        assert len(set(ids)) == 1000
        # pid-random-counter shape so cross-process merges cannot collide
        assert all(len(tid.split("-")) == 3 for tid in ids)

    def test_scope_sets_and_clears(self, registry):
        assert current_context() is None
        with request_context(registry=registry, tenant="acme",
                             mission="patrol") as ctx:
            active = current_context()
            assert active is not None
            assert active.trace_id == ctx.trace_id
            assert active.tenant == "acme"
            assert active.mission == "patrol"
        assert current_context() is None

    def test_root_span_opened_and_reparented(self, registry):
        with request_context(registry=registry, name="req",
                             tenant="acme") as ctx:
            # the yielded context carries the root span id so
            # worker-side spans can re-parent under it
            assert ctx.parent_span_id is not None
            with registry.span("child") as child:
                pass
        [root] = [s for s in registry.spans if s.name == "req"]
        assert root.span_id == ctx.parent_span_id
        assert root.trace_id == ctx.trace_id
        assert root.attrs["tenant"] == "acme"
        assert child.trace_id == ctx.trace_id
        assert child.parent_id == root.span_id

    def test_use_context_bridges_threads(self, registry):
        with request_context(registry=registry, name="req") as ctx:
            pass
        seen = {}

        def worker():
            seen["before"] = current_context()
            with use_context(ctx):
                with registry.span("hop") as span:
                    seen["inside"] = current_context()
                seen["span"] = span
            seen["after"] = current_context()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["before"] is None and seen["after"] is None
        assert seen["inside"] is ctx
        # thread-root span re-parents under the request's root span
        assert seen["span"].trace_id == ctx.trace_id
        assert seen["span"].parent_id == ctx.parent_span_id

    def test_deadline_budget(self, registry):
        with request_context(registry=registry, deadline_ms=60_000) as ctx:
            remaining = ctx.remaining_s()
            assert 0.0 < remaining <= 60.0
            assert not ctx.expired()
        no_deadline = RequestContext(trace_id="t")
        assert no_deadline.remaining_s() is None
        assert not no_deadline.expired()
        blown = RequestContext(trace_id="t",
                               deadline_s=time.perf_counter() - 1.0)
        assert blown.expired()
        assert blown.remaining_s() < 0.0

    def test_explicit_trace_id_kept(self, registry):
        with request_context("my-trace", registry=registry) as ctx:
            assert ctx.trace_id == "my-trace"
        assert registry.spans_for_trace("my-trace")

    def test_record_span_feeds_timer_and_trace_index(self, registry):
        registry.record_span("engine.queue_wait", 0.0, 0.25,
                             trace_id="tid-1", parent_id=7)
        assert "engine.queue_wait" in registry.timers
        assert registry.timers["engine.queue_wait"].calls == 1
        [span] = registry.spans_for_trace("tid-1")
        assert span.parent_id == 7
        assert span.dur_us == pytest.approx(0.25e6)


# ----------------------------------------------------------------------
# Sliding-window series
# ----------------------------------------------------------------------
class TestWindowedSeries:
    BASE = 1_000_000.0

    def test_window_stats_scoped_to_window(self):
        series = WindowedSeries("stage")
        for dt, value in ((0.0, 0.1), (1.0, 0.2), (50.0, 0.4)):
            series.record(value, now=self.BASE + dt)
        now = self.BASE + 50.0
        recent = series.window_stats(10.0, now=now)
        assert recent["count"] == 1
        assert recent["max"] == pytest.approx(0.4)
        full = series.window_stats(120.0, now=now)
        assert full["count"] == 3
        assert full["rate_per_s"] == pytest.approx(3 / 120.0)
        assert full["min"] == pytest.approx(0.1)
        empty = series.window_stats(10.0, now=self.BASE + 500.0)
        assert empty["count"] == 0 and empty["p99"] == 0.0

    def test_ring_slot_eviction(self):
        series = WindowedSeries("stage", bucket_s=1.0, buckets=4)
        series.record(1.0, now=self.BASE)
        # same slot, four buckets later: the stale cell is overwritten
        series.record(2.0, now=self.BASE + 4.0)
        stats = series.window_stats(100.0, now=self.BASE + 4.0)
        assert stats["count"] == 1
        assert stats["min"] == pytest.approx(2.0)

    def test_recorder_mirrors_registry(self, registry):
        series = registry.attach_series(SeriesRecorder())
        with registry.span("stage"):
            pass
        registry.count("events", 3)
        registry.observe("batch", 8)
        live = series.snapshot(windows=(60.0,))
        window = live["windows"]["60s"]
        assert window["timers"]["stage"]["count"] == 1
        assert window["counters"]["events"]["amount"] == pytest.approx(3.0)
        assert window["values"]["batch"]["count"] == 1

    def test_merge_rejects_mixed_bucket_sizes(self):
        a = SeriesRecorder(bucket_s=1.0).merge_state()
        b = SeriesRecorder(bucket_s=2.0).merge_state()
        with pytest.raises(ValueError, match="bucket sizes"):
            merge_series_states([a, b])


# ----------------------------------------------------------------------
# Mergeable snapshot protocol (property-based)
# ----------------------------------------------------------------------
_values = st.lists(
    st.floats(min_value=1e-6, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    max_size=30)


def _shard_snapshot(values):
    reg = Registry("shard")
    for value in values:
        reg.timer("stage").record(value)
        reg.count("events", value)
        reg.distribution("size").record(value)
    return mergeable_snapshot(reg)


class TestMergeProtocol:
    @settings(max_examples=25, deadline=None)
    @given(a=_values, b=_values, c=_values)
    def test_merge_associative_and_commutative(self, a, b, c):
        sa, sb, sc = (_shard_snapshot(v) for v in (a, b, c))
        flat = merge_snapshots([sa, sb, sc])
        left = merge_snapshots([merge_snapshots([sa, sb]), sc])
        right = merge_snapshots([sa, merge_snapshots([sb, sc])])
        assert left == right == flat  # bit-exact dict equality
        assert merge_snapshots([sc, sa, sb]) == flat

    @settings(max_examples=25, deadline=None)
    @given(entries=st.lists(
        st.tuples(st.floats(min_value=1e-6, max_value=50.0,
                            allow_nan=False, allow_infinity=False),
                  st.integers(min_value=0, max_value=2)),
        max_size=40))
    def test_shard_split_bit_matches_single_process(self, entries):
        single = Registry("single")
        shards = [Registry(f"shard{i}") for i in range(3)]
        for value, shard in entries:
            for reg in (single, shards[shard]):
                reg.timer("stage").record(value)
                reg.count("events", value)
                reg.distribution("size").record(value)
        merged = merge_snapshots([mergeable_snapshot(r) for r in shards])
        assert merged == merge_snapshots([mergeable_snapshot(single)])
        # the local float views are the merged document's, bit for bit
        local = single.snapshot()
        assert local["timers"] == {
            n: timer_state_stats(s) for n, s in merged["timers"].items()}
        assert local["distributions"] == {
            n: dist_state_stats(s)
            for n, s in merged["distributions"].items()}
        assert local["counters"] == {
            n: s["value_fp"] / FP_SCALE
            for n, s in merged["counters"].items()}

    @settings(max_examples=25, deadline=None)
    @given(entries=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=60.0,
                            allow_nan=False, allow_infinity=False),
                  st.floats(min_value=1e-6, max_value=10.0,
                            allow_nan=False, allow_infinity=False),
                  st.integers(min_value=0, max_value=2)),
        max_size=40))
    def test_series_shards_bit_match(self, entries):
        base = 1_000_000.0
        single = SeriesRecorder()
        shards = [SeriesRecorder() for _ in range(3)]
        for offset, value, shard in entries:
            now = base + offset
            single.record_timer("stage", value, now=now)
            shards[shard].record_timer("stage", value, now=now)
            single.record_counter("events", value, now=now)
            shards[shard].record_counter("events", value, now=now)
        merged = merge_series_states([s.merge_state() for s in shards])
        assert merged == merge_series_states([single.merge_state()])

    def test_merge_document_is_pinned(self):
        """The repro.obs.merge/1 wire format, byte for byte: shards, the
        committed baselines and `repro obs slo` all read it."""
        reg = Registry("golden")
        reg.timer("never.recorded")
        for value in (0.0123456789, 0.25, 1e-8, 0.0, 3.5):
            reg.timer("detect.batch").record(value)
        reg.timer("engine.queue_wait").record(0.002)
        reg.count("engine.scenes", 3)
        reg.count("engine.scenes")
        reg.count("engine.rejected", 0)
        for value in (4, 1, 0, 2.5, 130):
            reg.observe("engine.batch_size", value)
        series = SeriesRecorder(bucket_s=1.0, buckets=8)
        for now, value in ((1000.2, 0.01), (1000.7, 0.03), (1002.1, 0.5)):
            series.record_timer("detect.batch", value, now=now)
        series.record_counter("engine.scenes", 2, now=1000.5)
        series.record_counter("engine.scenes", 1, now=1003.0)
        for now, value in ((1001.0, 4), (1001.9, 0), (1011.5, 2)):
            series.record_value("engine.batch_size", value, now=now)
        doc = mergeable_snapshot(reg, series=series)
        assert json.dumps(doc, sort_keys=True) == _PINNED_MERGE_DOCUMENT

        for path in sorted(BASELINES.glob("BENCH_*.json")):
            merge = json.loads(path.read_text())["merge"]
            assert merge_snapshots([merge]) == merge, path.name
            empty = snapshot_delta(merge, merge)
            assert merge_snapshots([empty, merge]) == merge, path.name
            for state in merge["timers"].values():
                assert timer_state_stats(state)["calls"] == state["calls"]
            for state in merge["distributions"].values():
                assert dist_state_stats(state)["count"] == state["count"]

    def test_merge_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="mergeable snapshot"):
            merge_snapshots([{"timers": {}}])

    def test_timer_state_stats_round_trip(self, registry):
        for value in (0.010, 0.020, 0.030, 0.200):
            registry.timer("stage").record(value)
        state = mergeable_snapshot(registry)["timers"]["stage"]
        stats = timer_state_stats(state)
        assert stats["calls"] == 4
        assert stats["total_s"] == pytest.approx(0.260)
        assert stats["min_s"] == pytest.approx(0.010)
        assert stats["max_s"] == pytest.approx(0.200)
        # log-bucket percentiles: ~12% bucket-edge tolerance
        assert stats["p99_s"] == pytest.approx(0.200, rel=0.15)

    def test_snapshot_delta_is_the_interval(self, registry):
        registry.timer("stage").record(0.010)
        registry.count("events", 2)
        registry.observe("size", 8)
        before = mergeable_snapshot(registry)
        for _ in range(3):
            registry.timer("stage").record(0.020)
        registry.count("events", 5)
        registry.timer("fresh").record(0.5)
        registry.observe("size", 2)
        registry.observe("size", 4)
        delta = snapshot_delta(mergeable_snapshot(registry), before)
        assert delta["timers"]["stage"]["calls"] == 3
        assert delta["timers"]["stage"]["hist"]["count"] == 3
        assert delta["counters"]["events"]["value_fp"] == 5 * FP_SCALE
        # a stage that first appears mid-interval is all-new
        assert delta["timers"]["fresh"]["calls"] == 1
        size = delta["distributions"]["size"]
        assert size["count"] == size["hist"]["count"] == 2
        assert size["total_fp"] == 6 * FP_SCALE
        assert dist_state_stats(size)["mean"] == 3.0
        # the delta's envelope is the current document's
        assert (size["min"], size["max"]) == (2.0, 8.0)


BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

# json.dumps(..., sort_keys=True) of the document recorded by
# TestMergeProtocol.test_merge_document_is_pinned.
_PINNED_MERGE_DOCUMENT = (
    '{"counters": {"engine.rejected": {"value_fp": 0}, '
    '"engine.scenes": {"value_fp": 4000000000}}, '
    '"distributions": {"engine.batch_size": {"count": 5, '
    '"hist": {"buckets": [[0, 1], [72, 1], [76, 1], [78, 1], [92, 1]], '
    '"count": 5, "max": 130.0, "min": 0.0}, "max": 130.0, "min": 0.0, '
    '"total_fp": 137500000000}}, "dropped_spans": 0, '
    '"schema": "repro.obs.merge/1", "series": {"bucket_s": 1.0, '
    '"counters": {"engine.scenes": {"cells": {"1000": {"amount_fp": 2000000000, '
    '"events": 1}, "1003": {"amount_fp": 1000000000, "events": 1}}}}, '
    '"schema": "repro.obs.series/1", '
    '"timers": {"detect.batch": {"cells": {"1000": {"count": 2, '
    '"hist": {"buckets": [[51, 1], [56, 1]], "count": 2, "max": 0.03, '
    '"min": 0.01}, "max": 0.03, "min": 0.01, "total_fp": 40000000}, '
    '"1002": {"count": 1, "hist": {"buckets": [[69, 1]], "count": 1, '
    '"max": 0.5, "min": 0.5}, "max": 0.5, "min": 0.5, '
    '"total_fp": 500000000}}}}, '
    '"values": {"engine.batch_size": {"cells": {"1001": {"count": 2, '
    '"hist": {"buckets": [[0, 1], [78, 1]], "count": 2, "max": 4, '
    '"min": 0}, "max": 4, "min": 0, "total_fp": 4000000000}, '
    '"1011": {"count": 1, "hist": {"buckets": [[75, 1]], "count": 1, '
    '"max": 2, "min": 2}, "max": 2, "min": 2, '
    '"total_fp": 2000000000}}}}}, '
    '"timers": {"detect.batch": {"calls": 5, "hist": {"buckets": [[0, '
    '2], [52, 1], [66, 1], [77, 1]], "count": 5, "max": 3.5, '
    '"min": 0.0}, "max_s": 3.5, "min_s": 0.0, "total_ns": 3762345689}, '
    '"engine.queue_wait": {"calls": 1, "hist": {"buckets": [[44, 1]], '
    '"count": 1, "max": 0.002, "min": 0.002}, "max_s": 0.002, '
    '"min_s": 0.002, "total_ns": 2000000}, '
    '"never.recorded": {"calls": 0, "hist": {"buckets": [], '
    '"count": 0, "max": null, "min": null}, "max_s": null, '
    '"min_s": null, "total_ns": 0}}}'
)


# ----------------------------------------------------------------------
# Prometheus exposition + HTTP surface
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_text_format_parses(self, registry):
        with registry.span("detect.total"):
            pass
        registry.count("engine.scenes", 7)
        registry.observe("engine.batch_size", 4)
        series = registry.attach_series(SeriesRecorder())
        registry.count("late", 1)  # lands in series too
        text = prometheus_text(registry, series=series)
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            float(value)  # every sample line ends in a parseable number
            assert name[0].isalpha() or name[0] == "_"
        assert 'repro_stage_duration_seconds{stage="detect.total"' in text
        assert 'repro_events_total{name="engine.scenes"} 7' in text
        assert "repro_value_summary" in text
        assert "repro_dropped_spans_total 0" in text
        assert "repro_stage_window_rate" in text  # live windowed gauges

    def test_label_escaping(self, registry):
        registry.count('odd"name\\with\nnewline')
        text = prometheus_text(registry)
        assert r'odd\"name\\with\nnewline' in text
        # the raw newline must not split the sample line
        [line] = [l for l in text.splitlines() if "odd" in l]
        assert line.endswith(" 1")

    def test_metrics_server_endpoints(self, registry):
        with registry.span("detect.total"):
            pass
        registry.count("engine.scenes", 3)
        series = registry.attach_series(SeriesRecorder())
        server = MetricsServer(registry, host="127.0.0.1", port=0,
                               series=series, slos=default_slos())
        with server:
            def fetch(path):
                with urllib.request.urlopen(server.url + path,
                                            timeout=5) as resp:
                    return resp.status, resp.headers.get("Content-Type"), \
                        resp.read().decode()

            status, ctype, body = fetch("/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            assert "repro_stage_duration_seconds" in body

            status, _, body = fetch("/healthz")
            health = json.loads(body)
            assert status == 200 and health["status"] == "ok"
            assert health["dropped_spans"] == 0

            status, _, body = fetch("/slo")
            slo_doc = json.loads(body)
            assert status == 200 and isinstance(slo_doc["ok"], bool)
            assert {s["name"] for s in slo_doc["slos"]} == \
                {s.name for s in default_slos()}

            status, _, body = fetch("/snapshot")
            snap = json.loads(body)
            assert status == 200 and snap["schema"] == MERGE_SCHEMA
            # what /snapshot serves is a valid merge input
            merged = merge_snapshots([snap, snap])
            assert merged["timers"]["detect.total"]["calls"] == 2

            with pytest.raises(urllib.error.HTTPError):
                fetch("/nope")


# ----------------------------------------------------------------------
# SLOs: offline telemetry gates and live burn rates
# ----------------------------------------------------------------------
class TestSLOs:
    def _doc(self, registry):
        return build_telemetry("slo_test", registry=registry)

    def test_latency_budget_math(self, registry):
        # 1 bad sample in 100 with a p99 objective = exactly the budget
        timer = registry.timer("detect.total")
        for _ in range(99):
            timer.record(0.010)
        timer.record(2.0)
        slo = SLO(name="p99", kind="latency", stage="detect.total",
                  percentile=99.0, threshold_s=0.5)
        [status] = evaluate_telemetry([slo], self._doc(registry))
        assert status.ok and status.burn == pytest.approx(1.0)
        for _ in range(4):
            timer.record(2.0)
        [status] = evaluate_telemetry([slo], self._doc(registry))
        assert not status.ok and status.burn > 1.0

    def test_default_latency_slos_watch_recorded_stages(
            self, global_registry, student_vit):
        """Every default latency SLO watches a stage one real engine
        batch records — otherwise the live /slo endpoint can never
        fire it (it reports "not recorded" at burn 0 forever)."""
        from repro.data import SceneConfig, SceneGenerator
        from repro.detect import TaskDetector

        detector = TaskDetector(student_vit, score_threshold=0.0)
        scenes = SceneGenerator(SceneConfig(grid=2), seed=0).generate_batch(2)
        with DetectionEngine(detector, EngineConfig(max_batch=2)) as engine:
            engine.detect_many(scenes)
        recorded = global_registry.snapshot()["timers"]
        latency = [slo for slo in default_slos() if slo.kind == "latency"]
        assert latency
        for slo in latency:
            assert slo.stage in recorded, f"{slo.name}: {slo.stage} never recorded"

    def test_renamed_stage_fails_the_gate(self, registry):
        registry.timer("detect.total").record(0.010)
        registry.timer("engine.batch").record(0.012)
        slos = [
            SLO(name="p99", kind="latency", stage="detect.total",
                percentile=99.0, threshold_s=0.5),
            SLO(name="overhead", kind="relative_latency",
                stage="engine.batch", reference_stage="detect.total",
                max_ratio=2.0),
        ]
        doc = self._doc(registry)
        assert all(status.ok for status in evaluate_telemetry(slos, doc))
        renamed = json.loads(json.dumps(doc))
        timers = renamed["merge"]["timers"]
        timers["detect.total_v2"] = timers.pop("detect.total")
        for status in evaluate_telemetry(slos, renamed):
            assert not status.ok
            assert "'detect.total' not recorded" in status.detail

    def test_gate_reads_the_merge_block_only(self, registry):
        """The ``obs`` block (a front-end process's own registry in a
        sharded run) cannot satisfy an objective the merge block lacks."""
        registry.timer("detect.total").record(0.010)
        registry.count("engine.scenes", 4)
        doc = self._doc(registry)
        doc["merge"] = {"timers": {}, "counters": {}}
        slos = [
            SLO(name="p99", kind="latency", stage="detect.total",
                percentile=99.0, threshold_s=0.5),
            SLO(name="rejects", kind="ratio", bad=["engine.rejected"],
                total=["engine.scenes", "engine.rejected"],
                max_fraction=0.01),
        ]
        latency, ratio = evaluate_telemetry(slos, doc)
        assert not latency.ok and "not recorded" in latency.detail
        assert not ratio.ok and "no total counter" in ratio.detail

    def test_absent_bad_counter_reads_zero(self, registry):
        registry.count("engine.scenes", 4)
        slo = SLO(name="rejects", kind="ratio", bad=["engine.rejected"],
                  total=["engine.scenes", "engine.rejected"],
                  max_fraction=0.01)
        [status] = evaluate_telemetry([slo], self._doc(registry))
        assert status.ok and status.value == 0.0

    def test_ratio_objective(self, registry):
        registry.count("cascade.shed", 3)
        registry.count("cascade.fast_path", 97)
        slo = SLO(name="shed", kind="ratio", bad=["cascade.shed"],
                  total=["cascade.fast_path", "cascade.shed"],
                  max_fraction=0.05)
        [status] = evaluate_telemetry([slo], self._doc(registry))
        assert status.ok and status.value == pytest.approx(0.03)
        registry.count("cascade.shed", 7)
        [status] = evaluate_telemetry([slo], self._doc(registry))
        assert not status.ok

    def test_relative_latency_is_machine_speed_free(self, registry):
        for _ in range(20):
            registry.timer("cascade.route").record(0.030)
            registry.timer("detect.batch_total").record(0.010)
        slo = SLO(name="overhead", kind="relative_latency",
                  stage="cascade.route", percentile=50.0,
                  reference_stage="detect.batch_total",
                  reference_percentile=50.0, max_ratio=6.0)
        [status] = evaluate_telemetry([slo], self._doc(registry))
        assert status.ok
        assert status.value == pytest.approx(3.0, rel=0.3)
        [tight] = evaluate_telemetry(
            [SLO(name="tight", kind="relative_latency",
                 stage="cascade.route", percentile=50.0,
                 reference_stage="detect.batch_total",
                 reference_percentile=50.0, max_ratio=2.0)],
            self._doc(registry))
        assert not tight.ok

    def test_live_burn_needs_both_windows(self):
        series = SeriesRecorder()
        now = 1_000_000.0
        slo = SLO(name="p99", kind="latency", stage="detect.total",
                  percentile=99.0, threshold_s=0.5)
        # sustained badness: every sample over threshold in both windows
        for i in range(50):
            series.record_timer("detect.total", 1.0, now=now - 10 - i * 0.1)
        [status] = evaluate_live([slo], registry=Registry("unused"),
                                 series=series, now=now)
        assert status.alerting and not status.ok
        assert set(status.windows) == {"60s", "600s"}
        # a fast-window blip over a healthy slow window must not page
        series = SeriesRecorder()
        for i in range(200):
            series.record_timer("detect.total", 0.01, now=now - 300 - i * 0.1)
        for i in range(5):
            series.record_timer("detect.total", 1.0, now=now - 5 - i * 0.1)
        [status] = evaluate_live([slo], registry=Registry("unused"),
                                 series=series, now=now)
        assert status.windows["60s"] >= slo.fast_burn
        assert status.windows["600s"] < slo.slow_burn
        assert not status.alerting and status.ok

    def test_config_loading_and_validation(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slos": [
            {"name": "shed", "kind": "ratio", "bad": ["cascade.shed"],
             "total": ["cascade.shed", "cascade.fast_path"],
             "max_fraction": 0.1},
        ]}))
        [slo] = load_slos(str(path))
        assert slo.name == "shed" and slo.max_fraction == 0.1
        path.write_text(json.dumps({"slos": [
            {"name": "x", "kind": "ratio", "total": ["a"],
             "max_fraction": 0.1, "not_a_field": 1}]}))
        with pytest.raises(ValueError, match="unknown keys"):
            load_slos(str(path))
        path.write_text(json.dumps({"objectives": []}))
        with pytest.raises(ValueError, match="'slos'"):
            load_slos(str(path))
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO(name="x", kind="availability")
        with pytest.raises(ValueError, match="latency needs"):
            SLO(name="x", kind="latency", stage="s")

    def test_format_statuses_flags_failures(self, registry):
        registry.count("cascade.shed", 10)
        registry.count("cascade.fast_path", 10)
        slo = SLO(name="shed", kind="ratio", bad=["cascade.shed"],
                  total=["cascade.fast_path", "cascade.shed"],
                  max_fraction=0.05)
        text = format_statuses(
            evaluate_telemetry([slo], self._doc(registry)))
        assert "FAIL" in text and "shed" in text


# ----------------------------------------------------------------------
# Tail-based sampling + flight recorder
# ----------------------------------------------------------------------
def _decision(route, trace_id, reason="queue"):
    return types.SimpleNamespace(route=route, trace_id=trace_id,
                                 reason=reason, margin=1.0, scene_index=0)


class TestSampler:
    def test_slow_k_keeps_the_slowest(self, tmp_path):
        sampler = ExemplarSampler(slow_k=3, artifact_dir=str(tmp_path))
        for i, duration in enumerate([0.5, 0.1, 0.9, 0.3, 0.7]):
            sampler.observe_request(f"t{i}", duration)
        kept = sampler.exemplars("slow")
        assert [e.value for e in kept] == [0.9, 0.7, 0.5]
        assert sampler.lookup("t2") is not None
        assert sampler.lookup("t1") is None  # fast request never retained
        assert sampler.lookup("t3") is None  # evicted by a slower one

    def test_per_reason_eviction_cleans_trace_index(self, tmp_path):
        sampler = ExemplarSampler(per_reason=2, artifact_dir=str(tmp_path))
        for i in range(3):
            sampler.offer(f"t{i}", "shed")
        kept = sampler.exemplars("shed")
        assert [e.trace_id for e in kept] == ["t1", "t2"]
        assert sampler.lookup("t0") is None
        assert sampler.lookup("t2") is not None

    def test_offer_resolves_spans_from_registry(self, registry, tmp_path):
        sampler = ExemplarSampler(artifact_dir=str(tmp_path))
        with request_context(registry=registry, name="req") as ctx:
            with registry.span("detect.total"):
                pass
        exemplar = sampler.offer(ctx.trace_id, "shed", registry=registry)
        assert {s["name"] for s in exemplar.spans} == {"req", "detect.total"}
        # late spans (engine execute after the scope closed) re-resolve
        registry.record_span("engine.execute", 0.0, 0.1,
                             trace_id=ctx.trace_id)
        sampler.resolve(registry)
        assert {s["name"] for s in sampler.lookup(ctx.trace_id).spans} == \
            {"req", "detect.total", "engine.execute"}

    def test_storm_detector_fires_once_per_storm(self):
        storm = ShedStormDetector(window=8, threshold=0.5, min_events=4)
        fired = [storm.update(True) for _ in range(6)]
        assert fired.count(True) == 1  # one page per storm, not per shed
        assert fired[3]  # on the crossing, once min_events is met
        for _ in range(8):
            storm.update(False)  # drain the window: re-arms
        assert storm.shed_fraction == 0.0
        assert [storm.update(True) for _ in range(8)].count(True) == 1

    def test_observe_route_dumps_one_storm_artifact(self, registry, tmp_path):
        sampler = ExemplarSampler(artifact_dir=str(tmp_path),
                                  storm_window=4, storm_threshold=0.5,
                                  storm_min_events=4)
        sampler.observe_route(
            [_decision("shed", f"t{i}") for i in range(4)], registry=registry)
        sampler.observe_route(
            [_decision("shed", "t9")], registry=registry)
        assert len(sampler.flight.dumps) == 1
        doc = json.loads(open(sampler.flight.dumps[0]).read())
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["reason"] == "shed_storm"
        assert {e.trace_id for e in sampler.exemplars("shed")} >= \
            {"t0", "t1", "t2", "t3"}
        kinds = [e["kind"] for e in doc["events"]]
        assert "shed_storm" in kinds and "route" in kinds

    def test_flight_ring_is_bounded(self, tmp_path):
        flight = FlightRecorder(capacity=4)
        for i in range(6):
            flight.record("event", index=i)
        events = flight.events()
        assert [e["index"] for e in events] == [2, 3, 4, 5]
        path = flight.dump(str(tmp_path), "unit test/reason")
        assert "unit_test_reason" in path  # reason sanitized for filenames
        assert len(json.loads(open(path).read())["events"]) == 4

    def test_record_engine_error_dumps_artifact(self, registry, tmp_path):
        sampler = ExemplarSampler(artifact_dir=str(tmp_path))
        path = sampler.record_engine_error(
            RuntimeError("boom"), scenes=3, registry=registry,
            trace_ids=["t0", None, "t1"])
        doc = json.loads(open(path).read())
        assert doc["reason"] == "engine_error"
        assert {e["trace_id"] for e in doc["exemplars"]} == {"t0", "t1"}
        assert all(e["reason"] == "error" for e in doc["exemplars"])

    def test_install_sampler_returns_previous(self, tmp_path):
        first = ExemplarSampler(artifact_dir=str(tmp_path))
        original = install_sampler(first)
        try:
            assert get_sampler() is first
            second = ExemplarSampler(artifact_dir=str(tmp_path))
            assert install_sampler(second) is first
            assert get_sampler() is second
        finally:
            install_sampler(original)
        assert get_sampler() is original


# ----------------------------------------------------------------------
# Engine trace propagation across the queue hop
# ----------------------------------------------------------------------
class _EchoSession:
    """Duck-typed session: the engine only needs detect_batch."""

    def detect_batch(self, scenes):
        time.sleep(0.001)
        return [("det", scene) for scene in scenes]


class _ContextSession(_EchoSession):
    def __init__(self):
        self.contexts = []

    def detect_batch(self, scenes, contexts=None):
        self.contexts.append(list(contexts or []))
        return [("det", scene) for scene in scenes]


class _GatedSession:
    def __init__(self):
        self.gate = threading.Event()

    def detect_batch(self, scenes):
        assert self.gate.wait(timeout=10.0)
        return [("det", scene) for scene in scenes]


class TestEngineTracing:
    def test_trace_survives_queue_hop_multiworker(self, global_registry):
        engine = DetectionEngine(_EchoSession(), EngineConfig(
            max_batch=4, flush_ms=2.0, workers=2, queue_size=32))
        futures = {}
        try:
            for i in range(12):
                with request_context(name="req", tenant=f"t{i}") as ctx:
                    futures[ctx.trace_id] = (i, engine.submit(i))
        finally:
            engine.close()
        for trace_id, (i, future) in futures.items():
            assert future.result(timeout=5) == ("det", i)
            spans = global_registry.spans_for_trace(trace_id)
            names = sorted(s.name for s in spans)
            # exactly one root + one queued interval + one fused execute,
            # regardless of which worker ran it or how batches formed
            assert names == ["engine.execute", "engine.queue_wait", "req"]
            [root] = [s for s in spans if s.name == "req"]
            assert all(s.parent_id == root.span_id for s in spans
                       if s.name != "req")
        assert "engine.queue_wait" in global_registry.timers
        assert global_registry.timers["engine.execute"].calls == 12

    def test_contexts_reach_a_context_aware_session(self, global_registry):
        session = _ContextSession()
        engine = DetectionEngine(session, EngineConfig(
            max_batch=4, flush_ms=2.0, workers=1, queue_size=32))
        submitted = []
        try:
            for i in range(6):
                with request_context(name="req") as ctx:
                    submitted.append(ctx.trace_id)
                    engine.submit(i)
        finally:
            engine.close()
        seen = [ctx.trace_id for batch in session.contexts
                for ctx in batch if ctx is not None]
        assert sorted(seen) == sorted(submitted)

    def test_nonblocking_submit_counts_rejections(self, global_registry):
        session = _GatedSession()
        engine = DetectionEngine(session, EngineConfig(
            max_batch=1, flush_ms=1.0, workers=1, queue_size=1))
        try:
            first = engine.submit(0)       # worker picks this up, blocks
            time.sleep(0.05)
            second = engine.submit(1)      # fills the 1-slot queue
            with pytest.raises(EngineRejected):
                engine.submit(2, block=False)
        finally:
            session.gate.set()
            engine.close()
        assert first.result(timeout=5) == ("det", 0)
        assert second.result(timeout=5) == ("det", 1)
        assert global_registry.counters["engine.rejected"].value == 1
        assert global_registry.counters["engine.scenes"].value == 2


# ----------------------------------------------------------------------
# Compare gate: exact work counts
# ----------------------------------------------------------------------
class TestCompareGate:
    def _doc(self, registry):
        registry.count("detect.nms.candidates", 9)
        registry.count("detect.nms.kept", 0)
        return build_telemetry("gate_test", registry=registry)

    def test_missing_baseline_stage_fails(self, registry):
        doc = self._doc(registry)
        renamed = json.loads(json.dumps(doc))
        counters = renamed["merge"]["counters"]
        counters["detect.nms.kept_v2"] = counters.pop("detect.nms.kept")
        comparison = compare_telemetry(doc, renamed)
        assert comparison.missing == ["detect.nms.kept"]
        assert not comparison.ok
        assert "MISSING" in comparison.summary()
        # the new name is informational, not a change
        assert comparison.new == ["detect.nms.kept_v2"]

    def test_zero_baseline_count_is_compared(self, registry):
        doc = self._doc(registry)
        grown = json.loads(json.dumps(doc))
        grown["merge"]["counters"]["detect.nms.kept"]["value_fp"] = FP_SCALE
        comparison = compare_telemetry(doc, grown)
        assert not comparison.ok
        assert [(row.counter, row.baseline, row.current)
                for row in comparison.changes] == \
            [("detect.nms.kept", 0, FP_SCALE)]

    def test_baseline_without_counters_fails(self, registry):
        with registry.span("detect.total"):
            pass
        doc = build_telemetry("no_counters", registry=registry)
        comparison = compare_telemetry(doc, doc)
        assert not comparison.ok
        assert "records no counters" in comparison.summary()


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestObsV2Cli:
    @pytest.fixture()
    def shed_heavy_file(self, registry, tmp_path):
        registry.count("cascade.shed", 40)
        registry.count("cascade.fast_path", 60)
        with registry.span("detect.total"):
            pass
        doc = build_telemetry("slo_cli", registry=registry)
        path = tmp_path / "BENCH_slo_cli.json"
        write_telemetry(str(path), doc)
        return str(path)

    def test_slo_gate_exit_codes(self, shed_heavy_file, tmp_path, capsys):
        from repro.cli import main

        config = tmp_path / "slo.json"
        config.write_text(json.dumps({"slos": [
            {"name": "shed-rate", "kind": "ratio", "bad": ["cascade.shed"],
             "total": ["cascade.fast_path", "cascade.shed"],
             "max_fraction": 0.05}]}))
        # advisory by default, hard failure under --gate
        assert main(["obs", "slo", shed_heavy_file,
                     "--config", str(config)]) == 0
        assert "FAIL" in capsys.readouterr().out
        assert main(["obs", "slo", shed_heavy_file,
                     "--config", str(config), "--gate"]) == 1
        config.write_text(json.dumps({"slos": [
            {"name": "shed-rate", "kind": "ratio", "bad": ["cascade.shed"],
             "total": ["cascade.fast_path", "cascade.shed"],
             "max_fraction": 0.5}]}))
        assert main(["obs", "slo", shed_heavy_file,
                     "--config", str(config), "--gate"]) == 0

    def test_compare_missing_stage_exit_code(self, registry, tmp_path, capsys):
        from repro.cli import main

        registry.count("detect.windows_scored", 9)
        registry.count("detect.nms.kept", 3)
        doc = build_telemetry("cli_missing", registry=registry)
        base = tmp_path / "BENCH_base.json"
        write_telemetry(str(base), doc)
        current = json.loads(json.dumps(doc))
        del current["merge"]["counters"]["detect.nms.kept"]
        cur = tmp_path / "BENCH_cur.json"
        cur.write_text(json.dumps(current))
        assert main(["obs", "compare", str(base), str(cur)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_report_warns_on_dropped_spans(self, registry, tmp_path, capsys):
        from repro.cli import main

        with registry.span("detect.total"):
            pass
        doc = build_telemetry("cli_drop", registry=registry)
        doc["obs"]["dropped_spans"] = 17
        path = tmp_path / "BENCH_drop.json"
        path.write_text(json.dumps(doc))
        assert main(["obs", "report", str(path)]) == 0
        assert "17 span(s) dropped" in capsys.readouterr().out

    def test_top_renders_interval_rows(self, registry, capsys):
        """`repro obs top` polls /snapshot twice and renders the delta:
        HTTP, snapshot_delta and timer_state_stats end to end."""
        from repro.cli import main

        stop = threading.Event()

        def traffic():
            while not stop.is_set():
                registry.timer("detect.batch_total").record(0.002)
                registry.count("engine.scenes")
                time.sleep(0.001)

        worker = threading.Thread(target=traffic, daemon=True)
        with MetricsServer(registry, host="127.0.0.1", port=0) as server:
            worker.start()
            try:
                assert main(["obs", "top", "--url", server.url,
                             "--frames", "1", "--interval", "0.05"]) == 0
            finally:
                stop.set()
                worker.join()
        out = capsys.readouterr().out
        [row] = [line for line in out.splitlines()
                 if line.startswith("detect.batch_total")]
        calls = int(row.split("|")[1])
        assert calls >= 1
        assert "engine.scenes" in out and "p99 ms" in out
