"""Axis-aligned box utilities.

Boxes are ``(x0, y0, x1, y1)`` with ``x0 < x1`` and ``y0 < y1``
(half-open pixel coordinates, matching :class:`repro.data.Scene`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Box = Tuple[float, float, float, float]


def box_area(box: Box) -> float:
    x0, y0, x1, y1 = box
    return max(0.0, x1 - x0) * max(0.0, y1 - y0)


def box_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix0, iy0 = max(a[0], b[0]), max(a[1], b[1])
    ix1, iy1 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0.0, ix1 - ix0) * max(0.0, iy1 - iy0)
    if inter == 0.0:
        return 0.0
    union = box_area(a) + box_area(b) - inter
    return inter / union if union > 0 else 0.0


def clip_box(box: Box, width: float, height: float) -> Box:
    """Clamp a box to image bounds."""
    x0, y0, x1, y1 = box
    return (
        min(max(x0, 0.0), width),
        min(max(y0, 0.0), height),
        min(max(x1, 0.0), width),
        min(max(y1, 0.0), height),
    )


def _descending_order(scores: Sequence[float]) -> np.ndarray:
    """Indices by descending score, ties broken by ascending index.

    A *stable* sort on the negated scores makes tied scores keep their
    input order, so NMS keep sets are reproducible across numpy versions
    (plain ``argsort`` uses an unstable quicksort whose tie order is an
    implementation detail).
    """
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def _validate_nms_args(boxes, scores, iou_threshold: float) -> None:
    if len(boxes) != len(scores):
        raise ValueError("boxes and scores must have equal length")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must be in [0, 1]")


def nms(boxes: Sequence[Box], scores: Sequence[float],
        iou_threshold: float = 0.5) -> List[int]:
    """Greedy non-maximum suppression over ``(N, 4)`` boxes.

    Returns the indices of kept boxes, in descending score order (ties
    by ascending index).  Each greedy step computes IoU of the top
    survivor against all remaining candidates in one numpy pass, so the
    Python-level work is O(number of kept boxes);
    :func:`repro.reference.nms_reference` is the O(N²) loop oracle.
    """
    _validate_nms_args(boxes, scores, iou_threshold)
    if len(boxes) == 0:
        return []
    coords = np.asarray(boxes, dtype=np.float64).reshape(len(boxes), 4)
    x0, y0, x1, y1 = coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3]
    areas = np.maximum(0.0, x1 - x0) * np.maximum(0.0, y1 - y0)
    order = _descending_order(scores)
    kept: List[int] = []
    while order.size:
        idx = order[0]
        kept.append(int(idx))
        rest = order[1:]
        ix0 = np.maximum(x0[idx], x0[rest])
        iy0 = np.maximum(y0[idx], y0[rest])
        ix1 = np.minimum(x1[idx], x1[rest])
        iy1 = np.minimum(y1[idx], y1[rest])
        inter = np.maximum(0.0, ix1 - ix0) * np.maximum(0.0, iy1 - iy0)
        union = areas[idx] + areas[rest] - inter
        with np.errstate(divide="ignore", invalid="ignore"):
            iou = np.where((inter > 0.0) & (union > 0.0), inter / union, 0.0)
        order = rest[iou < iou_threshold]
    return kept
