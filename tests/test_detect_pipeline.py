"""Detection pipeline: adapters, scanning, task conditioning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import SceneConfig, SceneGenerator, get_task
from repro.data.datasets import background_class_id, num_classes
from repro.data.scenes import Scene
from repro.detect import TaskDetector, predict_windows, task_accuracy
from repro.detect.boxes import _descending_order, nms
from repro.kg import GraphMatcher, SimulatedLLM
from repro.obs import get_registry
from repro.quant import quantize_vit
from repro.reference import detect_reference, int64_kernels, windows_loop


@pytest.fixture(scope="module")
def scene():
    return SceneGenerator(SceneConfig(), seed=21).generate()


@pytest.fixture(scope="module")
def ragged_scene():
    """A 100-pixel side over 32-pixel cells: 3 x 3 whole cells plus a
    4-pixel edge that no window covers."""
    image = np.random.default_rng(22).random((3, 100, 100)).astype(np.float32)
    return Scene(image=image, objects=[], grid=3, cell_size=32)


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
        """300 windows run as two internal 150-row chunks; the same
        windows split across two calls give the same bits."""
        windows = np.random.default_rng(2).random((300, 3, 32, 32)).astype(np.float32)
        whole = predict_windows(student_vit, windows)
        parts = [predict_windows(student_vit, windows[:3]),
                 predict_windows(student_vit, windows[3:])]
        np.testing.assert_array_equal(
            whole["class_probs"],
            np.concatenate([p["class_probs"] for p in parts]))

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

    def test_windows_vectorized_matches_loop(self, student_vit, scene,
                                             ragged_scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        for case in (scene, ragged_scene):
            windows, boxes = detector._windows_all([case])
            loop_windows, loop_boxes = windows_loop(case)
            assert [tuple(box) for box in boxes.tolist()] == loop_boxes
            np.testing.assert_array_equal(windows, loop_windows)

    def test_ragged_scene_tiles_whole_cells(self, student_vit, ragged_scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        _, boxes = detector._windows_all([ragged_scene])
        assert len(boxes) == 9
        assert boxes[:, 2:].max() == 96 < ragged_scene.size

    def test_detect_vectorized_matches_reference(self, student_vit, scene,
                                                 ragged_scene):
        task = get_task("stop_control")
        matcher = GraphMatcher(SimulatedLLM().generate_for_task(task))
        for threshold in (0.0, 0.3):
            detector = TaskDetector(student_vit, matcher=matcher,
                                    score_threshold=threshold)
            for case in (scene, ragged_scene):
                _assert_bit_equal(detector.detect(case),
                                  detect_reference(detector, case))

    @settings(max_examples=60, deadline=None)
    @given(grid=st.integers(1, 6), cell=st.integers(1, 40),
           ragged=st.integers(0, 39), data=st.data())
    def test_nms_on_a_tiling_is_the_stable_score_sort(self, student_vit,
                                                      grid, cell, ragged,
                                                      data):
        """Tiles never overlap, so NMS keeps every candidate, in the
        stable descending score order (ties by ascending index)."""
        side = grid * cell + ragged % cell
        tiling = Scene(image=np.zeros((1, side, side), np.float32),
                       objects=[], grid=grid, cell_size=cell)
        _, boxes = TaskDetector(student_vit)._windows_all([tiling])
        hits = np.array(sorted(data.draw(st.sets(
            st.integers(0, len(boxes) - 1), min_size=1))))
        scores = data.draw(st.lists(
            st.sampled_from([0.0, 0.35, 0.5, 0.9, 1.0]),
            min_size=hits.size, max_size=hits.size))
        assert nms(boxes[hits], scores) == _descending_order(scores).tolist()

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
        """A fused batch (quantized) and a mixed-shape batch, run one
        scene at a time (float), both match the per-scene reference bit
        for bit, so row offsets are checked exactly."""
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
                scenes)
            [root] = registry.span_tree()
            assert root["name"] == "detect.batch_total"
            assert root["attrs"]["fused"] is fused
            assert [s.num_windows for s in signals] == [
                len(windows_loop(scene)[1]) for scene in scenes]
            for scene, detections in zip(scenes, batch):
                reference = detect_reference(detector, scene)
                _assert_bit_equal(detections, reference)

    def test_quantized_detect_bit_equals_int64_kernels(self, student_vit,
                                                       matcher, scene):
        calibration = np.random.default_rng(8).random(
            (16, 3, 32, 32)).astype(np.float32)
        detector = TaskDetector(quantize_vit(student_vit, calibration),
                                matcher=matcher, score_threshold=0.0)
        fast = detector.detect(scene)
        with int64_kernels():
            reference = detect_reference(detector, scene)
        _assert_bit_equal(fast, reference)
