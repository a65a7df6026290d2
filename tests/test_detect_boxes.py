"""Box utilities + hypothesis invariants for IoU and NMS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detect import box_area, box_iou, clip_box, nms
from repro.reference import nms_reference


def boxes_strategy():
    coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    return st.tuples(coord, coord, coord, coord).map(
        lambda t: (min(t[0], t[2]), min(t[1], t[3]),
                   max(t[0], t[2]) + 1.0, max(t[1], t[3]) + 1.0)
    )


class TestBoxBasics:
    def test_area(self):
        assert box_area((0, 0, 4, 3)) == 12.0
        assert box_area((5, 5, 5, 5)) == 0.0

    def test_iou_identical(self):
        assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert box_iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_iou_half_overlap(self):
        assert box_iou((0, 0, 2, 2), (1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_iou_touching_edges_zero(self):
        assert box_iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_clip(self):
        assert clip_box((-5, -5, 200, 50), 100, 100) == (0, 0, 100, 50)


class TestNMS:
    def test_keeps_non_overlapping(self):
        boxes = [(0, 0, 10, 10), (20, 20, 30, 30), (50, 50, 60, 60)]
        kept = nms(boxes, [0.9, 0.8, 0.7])
        assert sorted(kept) == [0, 1, 2]

    def test_suppresses_duplicates(self):
        boxes = [(0, 0, 10, 10), (1, 1, 11, 11)]
        kept = nms(boxes, [0.9, 0.5], iou_threshold=0.5)
        assert kept == [0]

    def test_keeps_highest_score(self):
        boxes = [(0, 0, 10, 10), (1, 1, 11, 11)]
        kept = nms(boxes, [0.5, 0.9], iou_threshold=0.5)
        assert kept == [1]

    def test_empty_input(self):
        assert nms([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nms([(0, 0, 1, 1)], [])

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            nms([(0, 0, 1, 1)], [0.5], iou_threshold=2.0)

    def test_descending_order(self):
        boxes = [(0, 0, 10, 10), (20, 20, 30, 30)]
        kept = nms(boxes, [0.1, 0.9])
        assert kept == [1, 0]

    def test_tied_scores_deterministic(self):
        """Stable sort: ties resolve to ascending input index, so the keep
        set no longer depends on numpy's unstable quicksort."""
        boxes = [(0, 0, 10, 10), (1, 1, 11, 11), (0, 0, 10, 10)]
        scores = [0.7, 0.7, 0.7]
        for fn in (nms, nms_reference):
            assert fn(boxes, scores, iou_threshold=0.5) == [0]
        disjoint = [(0, 0, 10, 10), (20, 20, 30, 30), (40, 40, 50, 50)]
        for fn in (nms, nms_reference):
            assert fn(disjoint, [0.5, 0.5, 0.5]) == [0, 1, 2]

    def test_vectorized_empty_and_validation_match_reference(self):
        assert nms([], []) == nms_reference([], []) == []
        for fn in (nms, nms_reference):
            with pytest.raises(ValueError):
                fn([(0, 0, 1, 1)], [0.5, 0.6])
            with pytest.raises(ValueError):
                fn([(0, 0, 1, 1)], [0.5], iou_threshold=-0.1)


@settings(max_examples=40, deadline=None)
@given(st.lists(boxes_strategy(), min_size=1, max_size=12),
       st.floats(min_value=0.1, max_value=0.9))
def test_nms_invariants(boxes, threshold):
    rng = np.random.default_rng(len(boxes))
    scores = rng.random(len(boxes)).tolist()
    kept = nms(boxes, scores, iou_threshold=threshold)
    # 1. kept indices are unique and valid
    assert len(set(kept)) == len(kept)
    assert all(0 <= i < len(boxes) for i in kept)
    # 2. kept boxes mutually below threshold
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert box_iou(boxes[a], boxes[b]) < threshold
    # 3. every suppressed box overlaps a kept box with >= score
    for idx in range(len(boxes)):
        if idx in kept:
            continue
        assert any(
            box_iou(boxes[idx], boxes[k]) >= threshold
            and scores[k] >= scores[idx]
            for k in kept
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(boxes_strategy(), min_size=1, max_size=24),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_nms_vectorized_matches_reference(boxes, threshold, seed):
    """The array nms is byte-identical to the loop oracle —
    including tied scores (drawn from a coarse grid to force ties)."""
    rng = np.random.default_rng(seed)
    scores = (rng.integers(0, 4, size=len(boxes)) / 4.0).tolist()
    assert nms(boxes, scores, iou_threshold=threshold) == \
        nms_reference(boxes, scores, iou_threshold=threshold)


@settings(max_examples=40, deadline=None)
@given(boxes_strategy(), boxes_strategy())
def test_iou_symmetric_and_bounded(a, b):
    iou_ab = box_iou(a, b)
    assert iou_ab == pytest.approx(box_iou(b, a))
    assert 0.0 <= iou_ab <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(boxes_strategy())
def test_iou_self_is_one(a):
    assert box_iou(a, a) == pytest.approx(1.0)
