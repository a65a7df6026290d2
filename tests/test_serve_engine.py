"""Serving layer: session cache, batch-first dataflow, detection engine.

Covers the three layers of the serving stack:

* :class:`repro.serve.SessionCache` / ``ITaskPipeline.session`` — LRU
  semantics, fingerprint sensitivity, explicit invalidation, and the
  regression guarantee that repeated ``detect()`` calls prepare the
  mission (LLM extraction included) exactly once;
* ``TaskDetector.detect_batch`` / ``StreamingDetector.update_many`` —
  fused multi-scene execution must reproduce the sequential per-scene
  paths;
* :class:`repro.serve.DetectionEngine` — queued micro-batching with
  deterministic ordering, graceful shutdown, error isolation, and
  telemetry.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import ITaskPipeline, TaskSpec
from repro.core.configurations import (
    QuantizedConfiguration,
    TaskSpecificConfiguration,
)
from repro.data import (
    SceneConfig,
    SceneGenerator,
    attribute_head_spec,
    get_task,
)
from repro.data.datasets import num_classes
from repro.detect import TaskDetector
from repro.kg import GraphMatcher, SimulatedLLM
from repro.kg.schema import Constraint, ConstraintKind
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import get_registry
from repro.serve import (
    DetectionEngine,
    EngineClosed,
    EngineConfig,
    MissionSession,
    SessionCache,
    mission_fingerprint,
)

TASK = "roadside_hazards"


class CountingLLM(SimulatedLLM):
    """SimulatedLLM that counts ``generate`` calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.generate_calls = 0

    def generate(self, *args, **kwargs):
        self.generate_calls += 1
        return super().generate(*args, **kwargs)


class GatedEchoSession:
    """Model-free session: blocks each batch until ``release`` is set
    and returns empty detections.

    ``entered`` is set once a batch is inside ``detect_batch``, and
    ``batch_sizes`` lists every batch's size in call order."""

    def __init__(self, release):
        self.release = release
        self.entered = threading.Event()
        self.batch_sizes = []

    def detect_batch(self, scenes):
        self.batch_sizes.append(len(scenes))
        self.entered.set()
        self.release.wait(timeout=10.0)
        return [[] for _ in scenes]


def build_pipeline(llm=None) -> ITaskPipeline:
    """Pipeline with one float student specialist for ``TASK``."""
    task = get_task(TASK)
    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    specialist = TaskSpecificConfiguration(
        name=f"specialist:{task.name}", kind="task_specific",
        student=model, task_name=task.name)
    placeholder = QuantizedConfiguration(
        name="quantized:placeholder", kind="quantized", quantized=None)
    pipeline = ITaskPipeline(placeholder,
                             specialists={task.name: specialist},
                             llm=llm)
    pipeline.selector.register_specialist(
        task.name, pipeline.llm.generate_for_task(task))
    return pipeline


@pytest.fixture(scope="module")
def spec():
    return TaskSpec.from_definition(get_task(TASK))


@pytest.fixture(scope="module")
def scenes():
    return list(SceneGenerator(SceneConfig(grid=3), seed=5).generate_batch(6))


@pytest.fixture()
def pipeline():
    return build_pipeline()


# ----------------------------------------------------------------------
# Session cache
# ----------------------------------------------------------------------
class TestSessionCache:
    def test_detect_prepares_exactly_once(self, spec, scenes):
        """Regression: repeated ``pipeline.detect`` must not re-run the
        LLM/refinement/selection chain (the seed rebuilt it per call)."""
        llm = CountingLLM()
        pipeline = build_pipeline(llm=llm)
        calls_after_setup = llm.generate_calls
        for scene in scenes[:3]:
            pipeline.detect(spec, scene)
        assert llm.generate_calls == calls_after_setup + 1

    def test_session_object_is_reused(self, pipeline, spec):
        assert pipeline.session(spec) is pipeline.session(spec)

    def test_invalidate_sessions_forces_reprepare(self, spec, scenes):
        llm = CountingLLM()
        pipeline = build_pipeline(llm=llm)
        pipeline.detect(spec, scenes[0])
        baseline = llm.generate_calls
        assert pipeline.invalidate_sessions() == 1
        pipeline.detect(spec, scenes[0])
        assert llm.generate_calls == baseline + 1

    def test_register_specialist_invalidates(self, pipeline, spec):
        session = pipeline.session(spec)
        task = get_task(TASK)
        pipeline.register_specialist(
            task.name, pipeline.specialists[task.name],
            pipeline.llm.generate_for_task(task))
        assert pipeline.session(spec) is not session

    def test_fingerprint_sensitivity(self, pipeline, spec):
        base = pipeline._session_key(spec, False, None)
        assert pipeline._session_key(spec, True, None) != base
        assert pipeline._session_key(spec, False, 5.0) != base
        from repro.data import sample_profile

        richer = TaskSpec.from_definition(
            get_task(TASK),
            support_positives=[sample_profile(np.random.default_rng(0))])
        assert pipeline._session_key(richer, False, None) != base

    def test_fingerprint_sees_graph_edits(self, spec):
        """Editing a registered specialist graph in place must change the
        key (the fingerprint hashes each graph's version)."""
        pipeline = build_pipeline()
        before = pipeline._session_key(spec, False, None)
        kg = pipeline.selector.specialist_graphs[TASK]
        kg.add_constraint(Constraint(
            kind=ConstraintKind.PREFERS, family="color",
            values=frozenset({"red"}), weight=0.5))
        assert pipeline._session_key(spec, False, None) != before

    def test_stale_flag_after_graph_edit(self, pipeline, spec):
        session = pipeline.session(spec)
        assert not session.stale
        session.kg.add_constraint(Constraint(
            kind=ConstraintKind.PREFERS, family="size",
            values=frozenset({"large"}), weight=0.25))
        assert session.stale

    def test_lru_eviction_and_counters(self):
        registry = get_registry()
        registry.reset()
        cache = SessionCache(capacity=2)
        sessions = {}

        def factory(key):
            def build():
                sessions[key] = object()
                result = type("R", (), {})()
                result.kg = type("K", (), {"version": 0})()
                return result
            return build

        cache.get_or_create("a", factory("a"))
        cache.get_or_create("b", factory("b"))
        cache.get_or_create("a", factory("a"))   # hit; refreshes LRU order
        cache.get_or_create("c", factory("c"))   # evicts "b"
        assert "b" not in cache and "a" in cache and "c" in cache
        counters = {name: c.value for name, c in registry.counters.items()}
        assert counters["session.cache.hit"] == 1
        assert counters["session.cache.miss"] == 3
        assert counters["session.cache.evict"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SessionCache(capacity=0)

    def test_fingerprint_is_stable(self, spec):
        assert mission_fingerprint(spec) == mission_fingerprint(spec)


# ----------------------------------------------------------------------
# Batch-first dataflow
# ----------------------------------------------------------------------
class TestDetectBatch:
    def _assert_batch_matches_sequential(self, detector, scenes):
        sequential = [detector.detect(scene) for scene in scenes]
        batched = detector.detect_batch(scenes)
        assert len(batched) == len(scenes)
        for left, right in zip(sequential, batched):
            assert [d.bbox for d in left] == [d.bbox for d in right]
            assert [d.class_id for d in left] == [d.class_id for d in right]
            assert [d.score for d in left] == [d.score for d in right]

    def test_float_batch_matches_sequential(self, pipeline, spec, scenes):
        """The float forward's fixed-shape GEMM tiles are batch-invariant
        too, so fusing scenes is bit-identical on float models as well."""
        session = pipeline.session(spec)
        self._assert_batch_matches_sequential(session.detector, scenes)

    def test_quantized_batch_matches_sequential_bitwise(self, student_vit,
                                                        scenes):
        """The integer forward is batch-invariant, so fusing scenes must
        be bit-identical to per-scene detection."""
        from repro.quant import quantize_vit

        rng = np.random.default_rng(0)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        quantized = quantize_vit(student_vit, calibration)
        kg = SimulatedLLM().generate_for_task(get_task(TASK))
        detector = TaskDetector(quantized, matcher=GraphMatcher(kg),
                                score_threshold=0.0)
        self._assert_batch_matches_sequential(detector, scenes[:3])

    @pytest.mark.parametrize("weight_bits,act_bits", [(4, 8), (16, 16)])
    def test_quantized_batch_bitwise_other_widths(self, student_vit, scenes,
                                                  weight_bits, act_bits):
        """Batch invariance must hold on both exact-GEMM dtypes: w4a8
        runs the float32 kernels, w16a16 the float64 ones."""
        from repro.quant import QuantSpec, quantize_vit

        rng = np.random.default_rng(1)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        quantized = quantize_vit(
            student_vit, calibration,
            weight_spec=QuantSpec(bits=weight_bits, symmetric=True,
                                  per_channel=True, axis=0),
            act_spec=QuantSpec(bits=act_bits, symmetric=False))
        kg = SimulatedLLM().generate_for_task(get_task(TASK))
        detector = TaskDetector(quantized, matcher=GraphMatcher(kg),
                                score_threshold=0.0)
        self._assert_batch_matches_sequential(detector, scenes[:2])

    def test_quantized_detect_bitwise_equals_reference(self, student_vit,
                                                       scenes):
        """The whole detect path on BLAS kernels must reproduce the int64
        reference path bit for bit (under int64_kernels())."""
        from repro.quant import quantize_vit
        from repro.reference import int64_kernels

        rng = np.random.default_rng(2)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        quantized = quantize_vit(student_vit, calibration)
        kg = SimulatedLLM().generate_for_task(get_task(TASK))
        detector = TaskDetector(quantized, matcher=GraphMatcher(kg),
                                score_threshold=0.0)
        fast = detector.detect_batch(scenes[:2])
        with int64_kernels():
            reference = detector.detect_batch(scenes[:2])
        for left, right in zip(fast, reference):
            assert [d.bbox for d in left] == [d.bbox for d in right]
            assert [d.score for d in left] == [d.score for d in right]
            assert [d.class_id for d in left] == [d.class_id for d in right]

    def test_empty_batch(self, pipeline, spec):
        assert pipeline.session(spec).detect_batch([]) == []

    def test_update_many_equals_repeated_update(self, pipeline, spec, scenes):
        from repro.stream import StreamingDetector

        session = pipeline.session(spec)
        sequential = StreamingDetector.from_session(session)
        fused = StreamingDetector.from_session(session)
        per_frame = [sequential.update(scene) for scene in scenes[:4]]
        chunked = fused.update_many(scenes[:4])
        assert len(chunked) == 4
        for left, right in zip(per_frame, chunked):
            assert [(t.track_id, t.cell, t.active, t.score) for t in left] == \
                   [(t.track_id, t.cell, t.active, t.score) for t in right]


# ----------------------------------------------------------------------
# Detection engine
# ----------------------------------------------------------------------
class TestDetectionEngine:
    def test_config_validation(self):
        for bad in (dict(max_batch=0), dict(flush_ms=-1.0),
                    dict(workers=0), dict(queue_size=0)):
            with pytest.raises(ValueError):
                EngineConfig(**bad)

    def test_multiworker_matches_sequential(self, pipeline, spec, scenes):
        """Concurrent micro-batched serving must equal per-scene
        detection bit for bit, in submission order, regardless of worker
        count."""
        session = pipeline.session(spec)
        sequential = [session.detect(scene) for scene in scenes]
        config = EngineConfig(max_batch=4, workers=2, flush_ms=5.0)
        with session.engine(config) as engine:
            concurrent = engine.detect_many(scenes)
        for left, right in zip(sequential, concurrent):
            assert [(d.bbox, d.score) for d in left] == \
                [(d.bbox, d.score) for d in right]

    def test_bounded_queue_completes(self, pipeline, spec, scenes):
        session = pipeline.session(spec)
        config = EngineConfig(max_batch=2, workers=1, queue_size=1)
        with session.engine(config) as engine:
            results = engine.detect_many(scenes)
        assert len(results) == len(scenes)

    def test_lone_job_does_not_wait_flush_ms(self):
        """The engine has no timer: a job with no peers is flushed
        alone at once, however long ``flush_ms`` reads."""
        release = threading.Event()
        release.set()
        session = GatedEchoSession(release)
        config = EngineConfig(max_batch=8, flush_ms=5000.0)
        with DetectionEngine(session, config) as engine:
            start = time.perf_counter()
            assert engine.submit("scene").result(timeout=10.0) == []
            assert time.perf_counter() - start < 1.0
        assert session.batch_sizes == [1]

    def test_jobs_queued_behind_a_batch_drain_into_capped_batches(self):
        """Jobs that queue while a batch runs form the next batches,
        each taking at most ``max_batch`` of them."""
        registry = get_registry()
        registry.reset()
        release = threading.Event()
        session = GatedEchoSession(release)
        config = EngineConfig(max_batch=4, queue_size=16)
        with DetectionEngine(session, config) as engine:
            first = engine.submit("head")
            assert session.entered.wait(timeout=10.0)
            queued = [engine.submit(f"s{i}") for i in range(6)]
            release.set()
            assert first.result(timeout=10.0) == []
            assert [f.result(timeout=10.0) for f in queued] == [[]] * 6
        assert session.batch_sizes == [1, 4, 2]
        sizes = registry.distributions["engine.batch_size"]
        assert (sizes.count, sizes.min, sizes.max) == (3, 1, 4)
        assert registry.counters["engine.scenes"].value == 7

    def test_cancelled_queued_job_is_dropped_and_the_worker_lives(self):
        release = threading.Event()
        session = GatedEchoSession(release)
        with DetectionEngine(session, EngineConfig(max_batch=4)) as engine:
            head = engine.submit("head")
            assert session.entered.wait(timeout=10.0)
            cancelled = engine.submit("cancelled")
            kept = engine.submit("kept")
            assert cancelled.cancel()
            release.set()
            assert head.result(timeout=10.0) == []
            assert kept.result(timeout=10.0) == []
            assert engine.submit("next").result(timeout=2.0) == []
            assert all(worker.is_alive() for worker in engine._workers)
        assert session.batch_sizes == [1, 1, 1]

    def test_submit_after_close_raises(self, pipeline, spec, scenes):
        session = pipeline.session(spec)
        engine = session.engine(EngineConfig(max_batch=2))
        engine.close()
        assert engine.closed
        with pytest.raises(EngineClosed):
            engine.submit(scenes[0])

    def test_close_drains_outstanding_work(self, pipeline, spec, scenes):
        session = pipeline.session(spec)
        engine = session.engine(EngineConfig(max_batch=2, flush_ms=50.0))
        futures = [engine.submit(scene) for scene in scenes]
        engine.close(wait=True)
        assert all(future.done() for future in futures)
        for future in futures:
            assert future.result() is not None

    def test_close_is_idempotent(self, pipeline, spec):
        engine = pipeline.session(spec).engine()
        engine.close()
        engine.close()

    def test_bad_scene_fails_future_not_engine(self, pipeline, spec, scenes):
        session = pipeline.session(spec)
        config = EngineConfig(max_batch=1, flush_ms=1.0)
        with session.engine(config) as engine:
            bad = engine.submit(None)  # not a Scene: the batch fails
            with pytest.raises(Exception):
                bad.result(timeout=10.0)
            # The engine keeps serving after a failed batch.
            good = engine.submit(scenes[0])
            assert good.result(timeout=10.0) is not None

    def test_futures_resolve_after_batch_span_is_recorded(self):
        """A caller woken by its result must already see that batch's
        ``engine.batch`` timer — a snapshot taken on completion may not
        miss the batch that completed it."""
        registry = get_registry()
        registry.reset()
        release = threading.Event()
        session = GatedEchoSession(release)
        seen = []
        with DetectionEngine(session, EngineConfig(max_batch=1)) as engine:
            future = engine.submit("scene")
            # Attached while the batch is still blocked in detect_batch,
            # so the callback runs at resolution time on the worker.
            future.add_done_callback(
                lambda _: seen.append(registry.timer("engine.batch").calls))
            release.set()
            assert future.result(timeout=10.0) == []
        assert seen == [1]

    def test_engine_telemetry(self, pipeline, spec, scenes):
        registry = get_registry()
        registry.reset()
        session = pipeline.session(spec)
        with session.engine(EngineConfig(max_batch=4)) as engine:
            engine.detect_many(scenes)
        counters = {name: c.value for name, c in registry.counters.items()}
        assert counters["engine.scenes"] == len(scenes)
        assert counters["engine.batches"] >= 1
        distributions = registry.distributions
        assert distributions["engine.batch_size"].count >= 1
        assert distributions["engine.batch_size"].max <= 4
        assert distributions["engine.queue_depth"].count == len(scenes)
        assert "engine.queue_wait" in registry.timers
