"""Detection pipeline: adapters, scanning, task conditioning."""

import numpy as np
import pytest

from repro.data import SceneConfig, SceneGenerator, get_task
from repro.data.datasets import background_class_id, num_classes
from repro.data.scenes import Scene
from repro.detect import TaskDetector, predict_windows, task_accuracy
from repro.kg import GraphMatcher, SimulatedLLM
from repro.obs import get_registry
from repro.quant import quantize_vit
from repro.reference import detect_reference, int64_kernels, windows_loop


@pytest.fixture(scope="module")
def scene():
    return SceneGenerator(SceneConfig(), seed=21).generate()


class TestPredictWindows:
    def test_float_model_contract(self, student_vit):
        windows = np.random.default_rng(0).random((5, 3, 32, 32)).astype(np.float32)
        out = predict_windows(student_vit, windows)
        assert out["class_probs"].shape == (5, num_classes())
        np.testing.assert_allclose(out["class_probs"].sum(axis=-1), 1.0, rtol=1e-4)
        for family, probs in out["attribute_probs"].items():
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-4)

    def test_quantized_model_contract(self, student_vit):
        rng = np.random.default_rng(1)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        q = quantize_vit(student_vit, calibration)
        out = predict_windows(q, calibration[:4])
        assert out["class_probs"].shape == (4, num_classes())

    def test_batching_consistent(self, student_vit):
        windows = np.random.default_rng(2).random((10, 3, 32, 32)).astype(np.float32)
        small = predict_windows(student_vit, windows, batch_size=3)
        large = predict_windows(student_vit, windows, batch_size=64)
        np.testing.assert_allclose(small["class_probs"], large["class_probs"],
                                   atol=1e-5)

    def test_zero_windows_float_model(self, student_vit):
        """Regression: an empty batch used to crash on np.concatenate([])."""
        out = predict_windows(student_vit, np.zeros((0, 3, 32, 32), np.float32))
        assert out["class_probs"].shape == (0, num_classes())
        reference = predict_windows(
            student_vit,
            np.random.default_rng(3).random((2, 3, 32, 32)).astype(np.float32))
        for family, probs in reference["attribute_probs"].items():
            assert out["attribute_probs"][family].shape == (0, probs.shape[1])
        assert ("task_probs" in out) == ("task_probs" in reference)

    def test_zero_windows_quantized_model(self, student_vit):
        rng = np.random.default_rng(4)
        calibration = rng.random((8, 3, 32, 32)).astype(np.float32)
        q = quantize_vit(student_vit, calibration)
        out = predict_windows(q, np.zeros((0, 3, 32, 32), np.float32))
        assert out["class_probs"].shape == (0, num_classes())


def _assert_same_detections(left, right, rtol=1e-12):
    """Same boxes in the same order, scores equal to ``rtol``."""
    assert [d.bbox for d in left] == [d.bbox for d in right]
    assert [d.class_id for d in left] == [d.class_id for d in right]
    np.testing.assert_allclose([d.score for d in left],
                               [d.score for d in right], rtol=rtol)


def _assert_bit_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.bbox, a.score, a.objectness, a.task_score, a.class_id) == \
            (b.bbox, b.score, b.objectness, b.task_score, b.class_id)
        assert all(isinstance(v, int) for v in a.bbox)
        assert a.attribute_probs.keys() == b.attribute_probs.keys()
        for family in a.attribute_probs:
            np.testing.assert_array_equal(a.attribute_probs[family],
                                          b.attribute_probs[family])


class TestTaskDetector:
    def test_grid_window_count(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        windows, boxes = detector._windows_all([scene])
        assert windows.shape[0] == scene.grid ** 2 == len(boxes)

    def test_sliding_stride(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        windows, _ = detector._windows_all([scene], stride=16)
        expected = ((scene.size - scene.cell_size) // 16 + 1) ** 2
        assert windows.shape[0] == expected

    def test_threshold_zero_fires_everywhere(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        detections = detector.detect(scene)
        assert len(detections) == scene.grid ** 2

    def test_threshold_one_fires_nowhere(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=1.0)
        assert detector.detect(scene) == []

    def test_detections_sorted_and_bounded(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        detections = detector.detect(scene)
        scores = [d.score for d in detections]
        assert scores == sorted(scores, reverse=True)
        for d in detections:
            assert 0.0 <= d.score <= 1.0
            assert 0.0 <= d.objectness <= 1.0
            assert 0.0 <= d.task_score <= 1.0

    def test_matcher_changes_scores(self, student_vit, scene):
        task = get_task("stop_control")
        kg = SimulatedLLM().generate_for_task(task)
        plain = TaskDetector(student_vit, matcher=None, score_threshold=0.0)
        tasked = TaskDetector(student_vit, matcher=GraphMatcher(kg),
                              score_threshold=0.0)
        plain_scores = {d.bbox: d.score for d in plain.detect(scene)}
        task_scores = {d.bbox: d.score for d in tasked.detect(scene)}
        # task conditioning can only lower the combined score
        for bbox, score in task_scores.items():
            assert score <= plain_scores[bbox] + 1e-9

    def test_score_threshold_validation(self, student_vit):
        with pytest.raises(ValueError):
            TaskDetector(student_vit, score_threshold=1.5)

    def test_scene_smaller_than_window_yields_no_detections(self, student_vit):
        """Regression: a scene below one cell used to crash np.stack([])."""
        tiny = Scene(image=np.zeros((3, 16, 16), dtype=np.float32),
                     objects=[], grid=1, cell_size=32)
        detector = TaskDetector(student_vit, score_threshold=0.0)
        windows, boxes = detector._windows_all([tiny])
        assert windows.shape == (0, 3, 32, 32)
        assert boxes.shape == (0, 4)
        assert detector.detect(tiny) == []
        loop_windows, loop_boxes = windows_loop(tiny)
        assert loop_windows.shape == (0, 3, 32, 32)
        assert loop_boxes == []
        assert detect_reference(detector, tiny) == []

    def test_windows_vectorized_matches_loop(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        for stride in (None, 16, 24):
            windows, boxes = detector._windows_all([scene], stride=stride)
            loop_windows, loop_boxes = windows_loop(scene, stride=stride)
            assert [tuple(box) for box in boxes.tolist()] == loop_boxes
            np.testing.assert_array_equal(windows, loop_windows)

    def test_detect_vectorized_matches_reference(self, student_vit, scene):
        task = get_task("stop_control")
        matcher = GraphMatcher(SimulatedLLM().generate_for_task(task))
        for threshold in (0.0, 0.3):
            detector = TaskDetector(student_vit, matcher=matcher,
                                    score_threshold=threshold)
            for stride in (None, 16, 24):
                _assert_same_detections(
                    detector.detect(scene, stride=stride),
                    detect_reference(detector, scene, stride=stride))

    def test_task_accuracy_range(self, student_vit):
        task = get_task("roadside_hazards")
        scenes = SceneGenerator(SceneConfig(), seed=5).generate_batch(3)
        detector = TaskDetector(student_vit, score_threshold=0.5)
        acc = task_accuracy(detector, scenes, task)
        assert 0.0 <= acc <= 1.0
        acc_hard = task_accuracy(detector, scenes, task, object_cells_only=True)
        assert 0.0 <= acc_hard <= 1.0


class TestOneDetectionPath:
    """``detect(scene)`` is ``detect_batch([scene])[0]``, and production
    matches the loop oracle in :mod:`repro.reference`."""

    @pytest.fixture(scope="class")
    def matcher(self):
        kg = SimulatedLLM().generate_for_task(get_task("roadside_hazards"))
        return GraphMatcher(kg)

    @pytest.fixture(scope="class")
    def big_scene(self):
        return SceneGenerator(SceneConfig(grid=14), seed=7).generate()

    def test_detect_bit_equals_batch_of_one_float(self, student_vit,
                                                  matcher, big_scene):
        # Grid 14 = 196 windows: more than one 64-row chunk, so a
        # separate single-scene forward would tile differently.
        detector = TaskDetector(student_vit, matcher=matcher,
                                score_threshold=0.0)
        _assert_bit_equal(detector.detect(big_scene),
                          detector.detect_batch([big_scene])[0])

    def test_detect_bit_equals_batch_of_one_quantized(self, student_vit,
                                                      matcher, big_scene):
        calibration = np.random.default_rng(6).random(
            (16, 3, 32, 32)).astype(np.float32)
        detector = TaskDetector(quantize_vit(student_vit, calibration),
                                matcher=matcher, score_threshold=0.0)
        _assert_bit_equal(detector.detect(big_scene),
                          detector.detect_batch([big_scene])[0])

    def test_detect_opens_one_batch_total_root_span(self, student_vit,
                                                    matcher, scene):
        registry = get_registry()
        registry.reset()
        TaskDetector(student_vit, matcher=matcher,
                     score_threshold=0.0).detect(scene)
        roots = [node["name"] for node in registry.span_tree()]
        assert roots == ["detect.batch_total"]
        timers = registry.snapshot()["timers"]
        assert "detect.total" not in timers
        assert timers["detect.batch_total"]["calls"] == 1

    def test_batches_match_reference(self, student_vit, matcher):
        """A fused batch (quantized: bit for bit, so row offsets are
        checked exactly) and a mixed-shape batch, run one scene at a
        time (float), both match the per-scene reference."""
        grid4 = SceneGenerator(SceneConfig(grid=4), seed=1).generate_batch(3)
        mixed = [
            grid4[0],
            SceneGenerator(SceneConfig(grid=3), seed=2).generate(),
            Scene(image=np.zeros((3, 16, 16), dtype=np.float32),
                  objects=[], grid=1, cell_size=32),
            grid4[1],
        ]
        calibration = np.random.default_rng(9).random(
            (16, 3, 32, 32)).astype(np.float32)
        cases = ((quantize_vit(student_vit, calibration), grid4, True),
                 (student_vit, mixed, False))
        registry = get_registry()
        for model, scenes, fused in cases:
            # 0.45 keeps some but not all of every scene's windows.
            detector = TaskDetector(model, matcher=matcher,
                                    score_threshold=0.45)
            registry.reset()
            batch, signals = detector.detect_batch_with_signals(
                scenes, stride=16)
            [root] = registry.span_tree()
            assert root["name"] == "detect.batch_total"
            assert root["attrs"]["fused"] is fused
            assert [s.num_windows for s in signals] == [
                len(windows_loop(scene, stride=16)[1]) for scene in scenes]
            for scene, detections in zip(scenes, batch):
                reference = detect_reference(detector, scene, stride=16)
                if fused:
                    _assert_bit_equal(detections, reference)
                else:
                    _assert_same_detections(detections, reference)

    def test_quantized_detect_bit_equals_int64_kernels(self, student_vit,
                                                       matcher, scene):
        calibration = np.random.default_rng(8).random(
            (16, 3, 32, 32)).astype(np.float32)
        detector = TaskDetector(quantize_vit(student_vit, calibration),
                                matcher=matcher, score_threshold=0.0)
        fast = detector.detect(scene, stride=16)
        with int64_kernels():
            reference = detect_reference(detector, scene, stride=16)
        _assert_bit_equal(fast, reference)
