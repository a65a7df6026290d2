"""Cascade router: margins, budgets, shedding, calibration, pinning."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.cascade import (
    ESCALATED,
    FAST_PATH,
    SHED,
    CalibrationStore,
    CascadeConfig,
    CascadeRouter,
    CascadeSession,
    EscalationBudget,
    SpecialistRegistry,
    calibrate_margin_threshold,
    scene_cell_accuracy,
)
from repro.core import (
    ConfigurationSelector,
    ITaskPipeline,
    ModelRegistry,
    TaskSpec,
    TaskSpecificConfiguration,
)
from repro.core.registry import CorruptArtifactError
from repro.data import get_task
from repro.data.scenes import SceneConfig, SceneGenerator
from repro.detect import TaskDetector, confidence_margin
from repro.fuzz.runner import build_model_pair
from repro.fuzz.scenario import ModelSpec
from repro.obs import get_registry
from repro.serve.engine import EngineConfig
from repro.serve.session import mission_fingerprint


@pytest.fixture(scope="module")
def model_pair():
    return build_model_pair(ModelSpec())


@pytest.fixture(scope="module")
def scenes():
    generator = SceneGenerator(SceneConfig(grid=2, cell_size=16), seed=42)
    return generator.generate_batch(6)


def make_router(model_pair, threshold=0.0, **config_kwargs):
    float_model, quantized_model = model_pair
    pinned = config_kwargs.pop("pinned", False)
    queue_depth_fn = config_kwargs.pop("queue_depth_fn", None)
    return CascadeRouter(
        TaskDetector(quantized_model, score_threshold=threshold),
        TaskDetector(float_model, score_threshold=threshold),
        config=CascadeConfig(**config_kwargs),
        pinned=pinned,
        queue_depth_fn=queue_depth_fn,
    )


class TestConfidenceMargin:
    def test_empty_scores_is_infinite(self):
        assert confidence_margin(np.array([]), 0.35) == float("inf")

    def test_min_distance_to_threshold(self):
        combined = np.array([0.1, 0.34, 0.9])
        assert confidence_margin(combined, 0.35) == pytest.approx(0.01)


class TestEscalationBudget:
    def test_fraction_zero_denies_everything(self):
        budget = EscalationBudget(0.0, window=4)
        assert not any(budget.try_acquire() for _ in range(10))

    def test_unlimited_fraction_always_grants(self):
        budget = EscalationBudget(1.0, window=4)
        assert all(budget.try_acquire() for _ in range(10))

    def test_sliding_window_grant_pattern(self):
        budget = EscalationBudget(0.5, window=4)
        # grants until 2 escalations sit in the 4-wide window
        assert budget.try_acquire() and budget.try_acquire()
        assert not budget.try_acquire() and not budget.try_acquire()
        # the two denials aged the grants toward the window edge; one
        # more denial evicts the first grant, then grants resume
        assert not budget.try_acquire()
        assert budget.try_acquire()
        assert budget.escalated_in_window <= 2

    def test_fast_path_ages_the_window(self):
        budget = EscalationBudget(0.25, window=4)
        assert budget.try_acquire()
        assert not budget.try_acquire()
        for _ in range(4):
            budget.record_fast_path()
        assert budget.escalated_in_window == 0
        assert budget.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            EscalationBudget(-0.1)
        with pytest.raises(ValueError):
            EscalationBudget(0.5, window=0)


class TestCascadeConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CascadeConfig(margin_threshold=-1.0)
        with pytest.raises(ValueError):
            CascadeConfig(max_escalation_fraction=-0.5)
        with pytest.raises(ValueError):
            CascadeConfig(escalation_window=0)
        with pytest.raises(ValueError):
            CascadeConfig(shed_queue_depth=-1)


class TestRouterRouting:
    def test_no_specialist_is_all_fast_path(self, model_pair, scenes):
        _, quantized_model = model_pair
        router = CascadeRouter(TaskDetector(quantized_model))
        results, decisions = router.detect_batch(scenes)
        assert [d.route for d in decisions] == [FAST_PATH] * len(scenes)
        reference = TaskDetector(quantized_model).detect_batch(scenes)
        assert _detections_equal(results, reference)

    def test_pinned_escalates_every_scene(self, model_pair, scenes):
        router = make_router(model_pair, pinned=True)
        _, decisions = router.detect_batch(scenes)
        assert [d.route for d in decisions] == [ESCALATED] * len(scenes)
        assert all("pinned" in d.reason for d in decisions)

    def test_escalated_scene_returns_specialist_output(self, model_pair,
                                                       scenes):
        float_model, _ = model_pair
        router = make_router(model_pair, pinned=True)
        results, _ = router.detect_batch(scenes)
        reference = TaskDetector(float_model,
                                 score_threshold=0.0).detect_batch(scenes)
        assert _detections_equal(results, reference)

    def test_margin_threshold_splits_routes(self, model_pair, scenes):
        probe = make_router(model_pair)
        _, decisions = probe.detect_batch(scenes)
        margins = sorted(d.margin for d in decisions)
        split = (margins[2] + margins[3]) / 2.0
        router = make_router(model_pair, margin_threshold=split)
        _, decisions = router.detect_batch(scenes)
        for decision in decisions:
            expected = ESCALATED if decision.margin < split else FAST_PATH
            assert decision.route == expected

    def test_decisions_identical_across_paths(self, model_pair, scenes):
        batch_results, batch_decisions = make_router(
            model_pair, margin_threshold=0.5).detect_batch(scenes)
        sequential = [make_router(model_pair, margin_threshold=0.5).detect(s)
                      for s in scenes]
        assert ([d.route for _, d in sequential]
                == [d.route for d in batch_decisions])
        assert ([d.margin for _, d in sequential]
                == [d.margin for d in batch_decisions])
        assert _detections_equal([r for r, _ in sequential], batch_results)

    def test_fraction_zero_sheds_and_keeps_fast_results(self, model_pair,
                                                        scenes):
        _, quantized_model = model_pair

        class CountingDetector(TaskDetector):
            calls = 0

            def detect_batch_with_signals(self, scenes):
                type(self).calls += 1
                return super().detect_batch_with_signals(scenes)

            def detect_batch(self, scenes):
                type(self).calls += 1
                return super().detect_batch(scenes)

        float_model, _ = model_pair
        specialist = CountingDetector(float_model, score_threshold=0.0)
        router = CascadeRouter(
            TaskDetector(quantized_model, score_threshold=0.0),
            specialist,
            config=CascadeConfig(margin_threshold=1e9,
                                 max_escalation_fraction=0.0))
        results, decisions = router.detect_batch(scenes)
        assert [d.route for d in decisions] == [SHED] * len(scenes)
        assert CountingDetector.calls == 0
        reference = TaskDetector(quantized_model,
                                 score_threshold=0.0).detect_batch(scenes)
        assert _detections_equal(results, reference)

    def test_budget_bounds_escalations(self, model_pair, scenes):
        router = make_router(model_pair, margin_threshold=1e9,
                             max_escalation_fraction=0.5,
                             escalation_window=4)
        _, decisions = router.detect_batch(scenes)
        # every scene desires escalation; the sliding window grants two,
        # denies until the grants age out, then grants again
        assert [d.route for d in decisions] == [
            ESCALATED, ESCALATED, SHED, SHED, SHED, ESCALATED]
        for start in range(len(decisions) - 3):
            window = decisions[start:start + 4]
            assert sum(d.route == ESCALATED for d in window) <= 2

    def test_queue_depth_sheds_escalations(self, model_pair, scenes):
        depths = iter([0, 10, 10, 0, 10, 10])
        router = make_router(model_pair, margin_threshold=1e9,
                             shed_queue_depth=5,
                             queue_depth_fn=lambda: next(depths))
        _, decisions = router.detect_batch(scenes)
        assert [d.route for d in decisions] == [
            ESCALATED, SHED, SHED, ESCALATED, SHED, SHED]
        assert all("queue" in d.reason for d in decisions
                   if d.route == SHED)

    def test_obs_counters_and_margins_recorded(self, model_pair, scenes):
        registry = get_registry()
        before = {route: registry.counter(f"cascade.{route}").value
                  for route in (FAST_PATH, ESCALATED, SHED)}
        router = make_router(model_pair, margin_threshold=0.5)
        _, decisions = router.detect_batch(scenes)
        for route in (FAST_PATH, ESCALATED, SHED):
            expected = sum(d.route == route for d in decisions)
            observed = registry.counter(f"cascade.{route}").value - before[route]
            assert observed == expected

    def test_empty_batch(self, model_pair):
        assert make_router(model_pair).detect_batch([]) == ([], [])


class TestCalibration:
    def test_scene_cell_accuracy_bounds(self, scenes):
        task = get_task("roadside_hazards")
        for scene in scenes:
            value = scene_cell_accuracy(scene, [], task)
            assert 0.0 <= value <= 1.0

    def test_calibration_invariants(self, model_pair, scenes):
        float_model, quantized_model = model_pair
        task = get_task("roadside_hazards")
        calibration = calibrate_margin_threshold(
            TaskDetector(quantized_model, score_threshold=0.0),
            TaskDetector(float_model, score_threshold=0.0),
            scenes, task, specialist_cost=4.5)
        assert calibration.num_scenes == len(scenes)
        assert calibration.frontier
        fractions = [p.escalation_fraction for p in calibration.frontier]
        assert fractions == sorted(fractions)  # higher threshold, more esc
        assert calibration.frontier[0].escalation_fraction == 0.0
        for point in calibration.frontier:
            assert point.relative_cost == pytest.approx(
                (1.0 + point.escalation_fraction * 4.5) / 4.5)
        if calibration.meets_targets:
            assert calibration.recovery >= calibration.target_recovery
            assert calibration.relative_cost <= calibration.max_relative_cost

    def test_calibration_requires_scenes(self, model_pair):
        float_model, quantized_model = model_pair
        with pytest.raises(ValueError):
            calibrate_margin_threshold(
                TaskDetector(quantized_model), TaskDetector(float_model),
                [], get_task("roadside_hazards"))

    def test_store_roundtrip(self, tmp_path, model_pair, scenes):
        float_model, quantized_model = model_pair
        task = get_task("roadside_hazards")
        calibration = calibrate_margin_threshold(
            TaskDetector(quantized_model, score_threshold=0.0),
            TaskDetector(float_model, score_threshold=0.0), scenes, task)
        store = CalibrationStore(ModelRegistry(str(tmp_path)))
        store.save("cascade_roadside", calibration)
        assert store.exists("cascade_roadside")
        assert store.names() == ["cascade_roadside"]
        assert store.load("cascade_roadside") == calibration

    def test_store_missing_raises_keyerror(self, tmp_path):
        store = CalibrationStore(ModelRegistry(str(tmp_path)))
        with pytest.raises(KeyError):
            store.load("ghost")

    def test_store_quarantines_corruption(self, tmp_path, model_pair, scenes):
        float_model, quantized_model = model_pair
        task = get_task("roadside_hazards")
        calibration = calibrate_margin_threshold(
            TaskDetector(quantized_model, score_threshold=0.0),
            TaskDetector(float_model, score_threshold=0.0), scenes, task)
        registry = ModelRegistry(str(tmp_path))
        store = CalibrationStore(registry)
        path = store.save("damaged", calibration)
        document = json.loads(open(path).read())
        document["calibration"]["recovery"] = 999.0  # break the digest
        with open(path, "w") as fh:
            json.dump(document, fh)
        with pytest.raises(CorruptArtifactError):
            store.load("damaged")
        assert not store.exists("damaged")
        hold = tmp_path / "quarantine" / "calibrations"
        assert list(hold.iterdir())
        # registry root scan never confuses calibrations for checkpoints
        assert registry.names() == []

    def test_store_does_not_pollute_registry_statuses(self, tmp_path,
                                                      model_pair, scenes):
        float_model, quantized_model = model_pair
        registry = ModelRegistry(str(tmp_path))
        store = CalibrationStore(registry)
        store.save("cal", calibrate_margin_threshold(
            TaskDetector(quantized_model, score_threshold=0.0),
            TaskDetector(float_model, score_threshold=0.0),
            scenes, get_task("roadside_hazards")))
        assert all(status.ok for status in registry.statuses())


class TestSpecialistRegistry:
    def test_pin_lookup_unpin(self):
        pins = SpecialistRegistry()
        pins.pin("fp", "roadside_hazards")
        assert pins.lookup("fp") == "roadside_hazards"
        assert len(pins) == 1 and pins.pins() == {"fp": "roadside_hazards"}
        assert pins.unpin("fp") and not pins.unpin("fp")
        assert pins.lookup("fp") is None


class TestFingerprintContentDigest:
    def test_equal_version_different_content_distinct(self):
        from repro.kg import Constraint, ConstraintKind, KnowledgeGraph

        def graph(color):
            kg = KnowledgeGraph("t")
            kg.add_constraint(Constraint(ConstraintKind.REQUIRES, "color",
                                         frozenset({color}), 1.0))
            return kg

        red, blue = graph("red"), graph("blue")
        assert red.version == blue.version
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        keys = {
            mission_fingerprint(
                spec, selector=ConfigurationSelector({"t": kg}))
            for kg in (red, blue)
        }
        assert len(keys) == 2  # content digest splits coinciding versions


def _pipeline(model_pair, threshold=0.0):
    from repro.core import QuantizedConfiguration

    _, quantized_model = model_pair
    return ITaskPipeline(
        QuantizedConfiguration(name="q", kind="quantized",
                               quantized=quantized_model),
        score_threshold=threshold,
    )


def _specialist(model_pair, task_name):
    float_model, _ = model_pair
    return TaskSpecificConfiguration(
        name=f"spec-{task_name}", kind="task_specific",
        student=float_model, task_name=task_name)


class TestPipelineCascade:
    def test_degrades_to_fast_path_without_specialists(self, model_pair,
                                                       scenes):
        pipeline = _pipeline(model_pair)
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        session = pipeline.cascade_session(spec)
        assert not session.has_specialist
        results = session.detect_batch(scenes)
        assert _detections_equal(
            results, pipeline.detect_batch(spec, scenes))
        assert set(session.route_counts()) == {FAST_PATH}

    def test_selected_specialist_is_pinned(self, model_pair, scenes):
        pipeline = _pipeline(model_pair)
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        mission_kg = pipeline.build_kg(spec)
        pipeline.register_specialist(
            spec.name, _specialist(model_pair, spec.name), mission_kg)
        session = pipeline.cascade_session(spec)
        assert session.has_specialist and session.router.pinned
        _, decisions = session.route_batch(scenes)
        assert [d.route for d in decisions] == [ESCALATED] * len(scenes)

    def test_pin_specialist_requires_registration(self, model_pair):
        pipeline = _pipeline(model_pair)
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        with pytest.raises(KeyError):
            pipeline.pin_specialist(spec, "ghost")

    def test_pin_specialist_forces_escalation(self, model_pair, scenes):
        pipeline = _pipeline(model_pair)
        mission = TaskSpec.from_definition(get_task("roadside_hazards"))
        other = get_task("stop_control")
        # register under the *other* task's graph: selection alone would
        # stay quantized, only the explicit pin routes to the specialist
        pipeline.register_specialist(
            other.name, _specialist(model_pair, other.name),
            pipeline.llm.generate_for_task(other))
        unpinned = pipeline.cascade_session(mission)
        assert not unpinned.router.pinned
        fingerprint = pipeline.pin_specialist(mission, other.name)
        assert pipeline.cascade_pins.lookup(fingerprint) == other.name
        session = pipeline.cascade_session(mission)
        assert session.router.pinned
        _, decisions = session.route_batch(scenes)
        assert [d.route for d in decisions] == [ESCALATED] * len(scenes)

    def test_engine_routes_match_batch_routes(self, model_pair, scenes):
        pipeline = _pipeline(model_pair)
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        mission_kg = pipeline.build_kg(spec)
        pipeline.register_specialist(
            spec.name, _specialist(model_pair, spec.name), mission_kg)

        reference_session = pipeline.cascade_session(spec)
        batch_results, batch_decisions = reference_session.route_batch(scenes)

        engine_session = pipeline.cascade_session(spec)
        with engine_session.engine(EngineConfig(max_batch=2,
                                                workers=2)) as engine:
            engine_results = engine.detect_many(scenes)
        engine_decisions = engine_session.drain_decisions()
        assert (sorted(d.route for d in engine_decisions)
                == sorted(d.route for d in batch_decisions))
        # escalated results come from the float specialist, which is
        # batch-invariant too, so the engine's batches change nothing
        assert _detections_equal(engine_results, batch_results)
        # the engine wired its live queue depth into the router
        assert engine_session.router.queue_depth_fn is not None

    def test_engine_budget_exhaustion_sheds_not_queues(self, model_pair,
                                                       scenes):
        pipeline = _pipeline(model_pair)
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        mission_kg = pipeline.build_kg(spec)
        pipeline.register_specialist(
            spec.name, _specialist(model_pair, spec.name), mission_kg)
        config = CascadeConfig(max_escalation_fraction=0.25,
                               escalation_window=4)
        session = pipeline.cascade_session(spec, config=config)
        with session.engine(EngineConfig(max_batch=2, workers=2)) as engine:
            results = engine.detect_many(list(scenes) * 3)
        decisions = session.drain_decisions()
        assert len(decisions) == len(results) == 3 * len(scenes)
        escalated = sum(d.route == ESCALATED for d in decisions)
        # budget holds under concurrency: at most fraction*window grants
        # per window of decisions, so well under half the total here
        assert 0 < escalated <= math.ceil(
            0.25 * 4) * math.ceil(len(decisions) / 4)
        assert sum(d.route == SHED for d in decisions) > 0

    def test_cascade_evaluate_runs(self, model_pair, scenes):
        pipeline = _pipeline(model_pair)
        spec = TaskSpec.from_definition(get_task("roadside_hazards"))
        session = pipeline.cascade_session(spec)
        value = session.evaluate(scenes)
        assert 0.0 <= value <= 1.0


def _detections_equal(left, right):
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if (x.bbox != y.bbox or x.score != y.score
                    or x.class_id != y.class_id):
                return False
    return True
