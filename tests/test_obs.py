"""Observability: timers, counters, histograms, spans, telemetry."""

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Histogram,
    Registry,
    Timer,
    build_telemetry,
    chrome_trace,
    compare_telemetry,
    flatten_tree,
    get_registry,
    load_telemetry,
    span_tree,
    traced,
    write_telemetry,
)


@pytest.fixture()
def registry():
    return Registry("test")


class TestTimer:
    def test_record_accumulates(self):
        timer = Timer("t")
        timer.record(0.5)
        timer.record(1.5)
        assert timer.calls == 2
        assert timer.total_s == pytest.approx(2.0)
        assert timer.mean_s == pytest.approx(1.0)
        assert timer.min_s == pytest.approx(0.5)
        assert timer.max_s == pytest.approx(1.5)
        assert timer.last_s == pytest.approx(1.5)

    def test_mean_of_untouched_timer_is_zero(self):
        assert Timer("t").mean_s == 0.0


class TestRegistry:
    def test_time_context_manager(self, registry):
        with registry.time("stage"):
            pass
        with registry.time("stage"):
            pass
        timer = registry.timer("stage")
        assert timer.calls == 2
        assert timer.total_s >= 0.0

    def test_time_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.time("boom"):
                raise RuntimeError("x")
        assert registry.timer("boom").calls == 1

    def test_counter(self, registry):
        registry.count("events")
        registry.count("events", 4)
        assert registry.counter("events").value == 5

    def test_get_or_create_is_idempotent(self, registry):
        assert registry.timer("a") is registry.timer("a")
        assert registry.counter("b") is registry.counter("b")

    def test_disabled_registry_is_noop(self, registry):
        registry.enabled = False
        with registry.time("stage"):
            pass
        registry.count("events")
        snap = registry.snapshot()
        assert snap["timers"] == {} and snap["counters"] == {}

    def test_traced_decorator(self, registry):
        @registry.traced("my.stage")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert registry.timer("my.stage").calls == 1

    def test_traced_default_name(self, registry):
        @registry.traced()
        def helper():
            return "ok"

        assert helper() == "ok"
        names = list(registry.timers)
        assert len(names) == 1 and "helper" in names[0]

    def test_snapshot_and_report(self, registry):
        with registry.time("alpha"):
            pass
        registry.count("widgets", 3)
        snap = registry.snapshot()
        assert snap["timers"]["alpha"]["calls"] == 1
        assert snap["counters"]["widgets"] == 3
        report = registry.report("title")
        assert "title" in report and "alpha" in report and "widgets" in report

    def test_report_empty(self, registry):
        assert "no timers" in registry.report()

    def test_reset(self, registry):
        with registry.time("stage"):
            pass
        registry.count("events")
        registry.reset()
        snap = registry.snapshot()
        assert snap["timers"] == {} and snap["counters"] == {}


class TestGlobalRegistry:
    def test_singleton(self):
        assert get_registry() is get_registry()

    def test_module_level_traced(self):
        registry = get_registry()
        registry.reset()

        @traced("global.stage")
        def work():
            return 7

        try:
            assert work() == 7
            assert registry.timer("global.stage").calls == 1
        finally:
            registry.reset()


class TestPipelineIntegration:
    """The hot paths actually record into the global registry."""

    def test_detect_records_stages(self, student_vit):
        from repro.data import SceneConfig, SceneGenerator
        from repro.detect import TaskDetector

        registry = get_registry()
        registry.reset()
        try:
            scene = SceneGenerator(SceneConfig(), seed=11).generate()
            TaskDetector(student_vit, score_threshold=0.0).detect(scene)
            timers = registry.snapshot()["timers"]
            for stage in ("detect.batch_total", "detect.window_build",
                          "detect.model_forward", "detect.nms"):
                assert timers[stage]["calls"] >= 1
            assert registry.counter("detect.windows_scored").value == scene.grid ** 2
        finally:
            registry.reset()

    def test_matcher_records_kg_match(self):
        from repro.data.ontology import ATTRIBUTE_FAMILIES
        from repro.kg import Constraint, ConstraintKind, GraphMatcher, KnowledgeGraph

        registry = get_registry()
        registry.reset()
        try:
            kg = KnowledgeGraph("t")
            kg.add_constraint(Constraint(ConstraintKind.REQUIRES, "color",
                                         frozenset({"red"}), 1.0))
            probs = {"color": np.full((2, len(ATTRIBUTE_FAMILIES["color"])),
                                      1.0 / len(ATTRIBUTE_FAMILIES["color"]))}
            GraphMatcher(kg).match_distributions(probs)
            assert registry.timer("kg.match").calls == 1
        finally:
            registry.reset()

    def test_simulator_records_step_loop(self):
        from repro.hw import AcceleratorConfig, Simulator
        from repro.hw.isa import DmaDirection, DmaOp, Program

        registry = get_registry()
        registry.reset()
        try:
            program = Program(
                "p", [DmaOp("load", DmaDirection.LOAD, num_bytes=1024)], batch=1)
            Simulator(AcceleratorConfig.edge_default()).simulate(program)
            timers = registry.snapshot()["timers"]
            assert timers["hw.op_model"]["calls"] == 1
            assert timers["hw.step_loop"]["calls"] == 1
            assert registry.counter("hw.ops_simulated").value == 1
        finally:
            registry.reset()


class TestHistogram:
    """Streaming log-bucket percentiles against the numpy reference."""

    # Geometric-midpoint representatives bound the relative error by
    # sqrt(growth) - 1 ~= 11.8 %; allow a little slack on top.
    TOLERANCE = 0.15

    def test_percentiles_match_numpy_lognormal(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-7.0, sigma=1.5, size=5000)
        hist = Histogram()
        for value in samples:
            hist.record(float(value))
        for q in (50.0, 90.0, 99.0):
            expected = float(np.percentile(samples, q))
            got = hist.percentile(q)
            assert abs(got - expected) / expected < self.TOLERANCE, \
                f"p{q}: {got} vs numpy {expected}"

    def test_percentiles_match_numpy_uniform_ms(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(1e-4, 1e-2, size=2000)
        hist = Histogram()
        for value in samples:
            hist.record(float(value))
        for q in (10.0, 50.0, 95.0):
            expected = float(np.percentile(samples, q))
            assert abs(hist.percentile(q) - expected) / expected < self.TOLERANCE

    def test_empty_histogram_is_zero(self):
        assert Histogram().percentile(50.0) == 0.0

    def test_single_sample_is_exact(self):
        hist = Histogram()
        hist.record(3.7e-3)
        # Clamping to the observed min/max makes one-sample percentiles exact.
        for q in (0.0, 50.0, 100.0):
            assert hist.percentile(q) == pytest.approx(3.7e-3)

    def test_extremes_clamp_to_observed_range(self):
        hist = Histogram()
        for value in (1e-5, 2e-5, 4e-5):
            hist.record(value)
        assert hist.percentile(0.0) >= 1e-5
        assert hist.percentile(100.0) <= 4e-5

    def test_out_of_range_percentile_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101.0)


class TestTimerPercentiles:
    def test_snapshot_reports_percentiles(self, registry):
        timer = registry.timer("t")
        for ms in (1.0, 2.0, 3.0, 100.0):
            timer.record(ms * 1e-3)
        stats = registry.snapshot()["timers"]["t"]
        assert 0 < stats["p50_s"] < stats["p99_s"] <= stats["max_s"]
        assert stats["p90_s"] >= stats["p50_s"]

    def test_untouched_timer_snapshot_is_strict_json(self, registry):
        registry.timer("never.recorded")
        snapshot = registry.snapshot()
        # min_s must not leak Infinity into strict JSON export.
        assert snapshot["timers"]["never.recorded"]["min_s"] == 0.0
        json.dumps(snapshot, allow_nan=False)

    def test_report_includes_percentile_columns(self, registry):
        with registry.time("stage"):
            pass
        report = registry.report()
        assert "p50 ms" in report and "p99 ms" in report


class TestSpans:
    def test_nesting_links_parent_child(self, registry):
        with registry.span("parent") as parent:
            with registry.span("child") as child:
                pass
        spans = {s.name: s for s in registry.spans}
        assert spans["child"].parent_id == spans["parent"].span_id
        assert spans["parent"].parent_id is None
        assert parent.dur_us >= child.dur_us

    def test_time_joins_the_span_tree(self, registry):
        with registry.span("outer"):
            with registry.time("inner"):
                pass
        spans = {s.name: s for s in registry.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id

    def test_attrs_and_set_attr(self, registry):
        with registry.span("s", task="patrol") as span:
            span.set_attr(windows=64)
        [recorded] = registry.spans
        assert recorded.attrs == {"task": "patrol", "windows": 64}

    def test_span_feeds_timer(self, registry):
        with registry.span("stage"):
            pass
        assert registry.timer("stage").calls == 1

    def test_disabled_registry_records_nothing(self, registry):
        registry.enabled = False
        with registry.span("s", a=1) as span:
            span.set_attr(b=2)  # null span: must not blow up
        assert registry.spans == []
        assert registry.snapshot()["timers"] == {}

    def test_exception_still_completes_span(self, registry):
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in registry.spans] == ["boom"]

    def test_span_buffer_is_bounded(self):
        registry = Registry("bounded", max_spans=5)
        for _ in range(8):
            with registry.span("s"):
                pass
        assert len(registry.spans) == 5
        assert registry.dropped_spans == 3
        # Aggregate stats still see every call.
        assert registry.timer("s").calls == 8

    def test_reset_clears_spans(self, registry):
        with registry.span("s"):
            pass
        registry.reset()
        assert registry.spans == []

    def test_span_tree_structure(self, registry):
        with registry.span("root"):
            with registry.span("a"):
                with registry.span("leaf"):
                    pass
            with registry.span("b"):
                pass
        [root] = registry.span_tree()
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["a", "b"]
        assert [c["name"] for c in root["children"][0]["children"]] == ["leaf"]
        flat = flatten_tree([root])
        assert [n["name"] for n in flat] == ["root", "a", "leaf", "b"]

    def test_traced_disabled_is_passthrough(self, registry):
        registry.enabled = False

        @registry.traced("stage")
        def work():
            return 42

        assert work() == 42
        assert registry.snapshot()["timers"] == {}


class TestConcurrency:
    """Concurrent span()/time()/count() from many threads stays exact."""

    THREADS = 8
    ITERATIONS = 200

    def test_totals_equal_sum_of_per_thread_work(self):
        registry = Registry("mt", max_spans=10 * self.THREADS * self.ITERATIONS)
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                with registry.span("outer"):
                    with registry.time("inner"):
                        registry.count("events")

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.THREADS * self.ITERATIONS
        assert registry.timer("outer").calls == expected
        assert registry.timer("inner").calls == expected
        assert registry.counter("events").value == expected
        assert registry.timer("outer").histogram.count == expected

    def test_no_torn_parent_child_links(self):
        registry = Registry("mt", max_spans=10 * self.THREADS * self.ITERATIONS)
        barrier = threading.Barrier(self.THREADS)

        def worker():
            barrier.wait()
            for _ in range(self.ITERATIONS):
                with registry.span("outer"):
                    with registry.span("inner"):
                        pass

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_id = {s.span_id: s for s in registry.spans}
        inner = [s for s in registry.spans if s.name == "inner"]
        assert len(inner) == self.THREADS * self.ITERATIONS
        for span in inner:
            parent = by_id[span.parent_id]
            # A parent from another thread would be a torn link.
            assert parent.tid == span.tid
            assert parent.name == "outer"
        outer = [s for s in registry.spans if s.name == "outer"]
        assert all(s.parent_id is None for s in outer)


class TestChromeTrace:
    def test_export_shape(self, registry):
        with registry.span("root", task="patrol"):
            with registry.span("leaf"):
                pass
        trace = chrome_trace(registry.spans)
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in complete} == {"root", "leaf"}
        for event in complete:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
            assert "pid" in event and "tid" in event
        # args carry span attributes into the Perfetto detail pane
        [root] = [e for e in complete if e["name"] == "root"]
        assert root["args"] == {"task": "patrol"}
        # strict JSON round-trip (what `repro obs trace` writes)
        json.dumps(trace, allow_nan=False)

    def test_accepts_dict_spans(self, registry):
        with registry.span("s"):
            pass
        as_dicts = [s.as_dict() for s in registry.spans]
        trace = chrome_trace(as_dicts)
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])
        assert span_tree(as_dicts)[0]["name"] == "s"


class TestTelemetry:
    def _sample_doc(self, registry):
        with registry.span("detect.total"):
            with registry.span("detect.nms"):
                pass
        registry.count("windows", 64)
        return build_telemetry(
            "unit_test", registry=registry,
            rows=[{"metric": np.float64(1.5), "count": np.int64(3),
                   "vector": np.arange(2)}],
        )

    def test_write_load_roundtrip(self, registry, tmp_path):
        doc = self._sample_doc(registry)
        path = tmp_path / "BENCH_unit_test.json"
        write_telemetry(str(path), doc)
        loaded = load_telemetry(str(path))
        assert loaded["schema_version"] == 1
        assert loaded["bench"] == "unit_test"
        assert loaded["obs"]["timers"]["detect.total"]["calls"] == 1
        assert loaded["obs"]["counters"]["windows"] == 64
        assert loaded["manifest"]["python"]
        # numpy rows were coerced to plain JSON types
        assert loaded["rows"] == [{"metric": 1.5, "count": 3, "vector": [0, 1]}]

    def test_schema_version_gate(self, registry, tmp_path):
        doc = self._sample_doc(registry)
        doc["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema_version"):
            load_telemetry(str(path))

    def test_compare_self_is_clean(self, registry):
        doc = self._sample_doc(registry)
        comparison = compare_telemetry(doc, doc, max_regress=0.15)
        assert comparison.ok
        assert comparison.rows  # it actually compared stages

    def test_compare_flags_2x_slowdown(self, registry):
        doc = self._sample_doc(registry)
        slow = json.loads(json.dumps(doc))
        for stats in slow["obs"]["timers"].values():
            for key in ("total_s", "mean_s", "p50_s", "p90_s", "p99_s", "max_s"):
                stats[key] *= 2.0
        comparison = compare_telemetry(doc, slow, max_regress=0.15)
        assert not comparison.ok
        assert {row.stage for row in comparison.regressions} == \
            {"detect.total", "detect.nms"}
        assert all(row.change_pct == pytest.approx(100.0)
                   for row in comparison.regressions)
        # ... and the improvement direction never trips the gate
        assert compare_telemetry(slow, doc, max_regress=0.15).ok

    def test_compare_share_metric_ignores_uniform_slowdown(self, registry):
        doc = self._sample_doc(registry)
        slow = json.loads(json.dumps(doc))
        for stats in slow["obs"]["timers"].values():
            for key in ("total_s", "mean_s", "p50_s", "p90_s", "p99_s", "max_s"):
                stats[key] *= 3.0
        # A uniformly slower machine changes no stage's share of the total.
        comparison = compare_telemetry(doc, slow, max_regress=0.15,
                                       metric="share")
        assert comparison.ok

    def test_compare_skips_one_sided_stages(self, registry):
        doc = self._sample_doc(registry)
        other = json.loads(json.dumps(doc))
        other["obs"]["timers"]["brand.new"] = \
            dict(other["obs"]["timers"]["detect.total"])
        comparison = compare_telemetry(doc, other)
        assert "brand.new" in comparison.skipped


class TestObsCli:
    @pytest.fixture()
    def bench_file(self, registry, tmp_path):
        with registry.span("detect.total", task="patrol"):
            with registry.span("detect.nms"):
                pass
        doc = build_telemetry("cli_test", registry=registry,
                              rows=[{"speedup": 4.2}])
        path = tmp_path / "BENCH_cli_test.json"
        write_telemetry(str(path), doc)
        return str(path)

    def test_report(self, bench_file, capsys):
        from repro.cli import main

        assert main(["obs", "report", bench_file]) == 0
        out = capsys.readouterr().out
        assert "cli_test" in out and "detect.total" in out and "p50" in out

    def test_trace_loads_as_chrome_trace(self, bench_file, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "trace.json"
        assert main(["obs", "trace", bench_file, "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_compare_exit_codes(self, bench_file, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "compare", bench_file, bench_file,
                     "--max-regress", "15%"]) == 0
        slow_doc = json.loads(open(bench_file).read())
        for stats in slow_doc["obs"]["timers"].values():
            for key in ("total_s", "mean_s", "p50_s", "p90_s", "p99_s", "max_s"):
                stats[key] *= 2.0
        slow_path = tmp_path / "BENCH_slow.json"
        slow_path.write_text(json.dumps(slow_doc))
        assert main(["obs", "compare", bench_file, str(slow_path)]) == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestDisabledOverhead:
    """enabled=False must keep the probes off the hot path entirely."""

    def test_disabled_span_avoids_clock_and_buffer(self, registry):
        registry.enabled = False
        for _ in range(100):
            with registry.span("s"):
                pass
            registry.count("c", 2)
            registry.observe("d", 5)
        assert registry.spans == []
        assert registry.snapshot() == {
            "timers": {}, "counters": {}, "distributions": {}}
