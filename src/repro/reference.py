"""Reference implementations: the readable seed code, kept as oracles.

The runtime has one detection path (:class:`repro.detect.TaskDetector`)
and one integer kernel (:class:`repro.quant.QuantizedLinear`).  The seed
loop window builder, O(N²) NMS and int64 matmul they replaced live here,
with :func:`int64_kernels` to run a whole model on the int64 kernel and
:func:`detect_reference` to run detection on the loops, so tests,
benchmarks and the fuzzer can check the fast code against them.  Nothing
on the runtime path imports this module (a test enforces it).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenes import Scene
from repro.detect.boxes import Box, _descending_order, _validate_nms_args, box_iou
from repro.detect.pipeline import (
    Detection,
    TaskDetector,
    build_detections,
    forward_chunk,
    predict_windows,
    score_predictions,
)
from repro.quant.linear import QuantizedLinear

__all__ = [
    "windows_loop",
    "nms_reference",
    "forward_integer_reference",
    "int64_kernels",
    "detect_reference",
]


def windows_loop(scene: Scene, stride: Optional[int] = None
                 ) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
    """One-crop-per-placement window extraction (the seed builder).

    Returns the ``(N, C, S, S)`` windows and their boxes in scan order,
    as :meth:`TaskDetector.detect` places them.
    """
    size, starts = TaskDetector._window_starts(scene, stride)
    boxes: List[Tuple[int, int, int, int]] = []
    crops: List[np.ndarray] = []
    for y0 in starts:
        for x0 in starts:
            bbox = (int(x0), int(y0), int(x0) + size, int(y0) + size)
            boxes.append(bbox)
            crops.append(scene.crop(bbox))
    if not crops:
        channels = scene.image.shape[0]
        return np.zeros((0, channels, size, size), dtype=scene.image.dtype), []
    return np.stack(crops), boxes


def nms_reference(boxes: Sequence[Box], scores: Sequence[float],
                  iou_threshold: float = 0.5) -> List[int]:
    """Greedy non-maximum suppression — readable O(N²) loop version.

    The oracle for :func:`repro.detect.nms`, which must return identical
    keep lists.  Returns the indices of kept boxes, in descending score
    order.  The classic invariants hold: kept boxes are mutually below
    the IoU threshold, and every suppressed box overlaps some
    higher-scoring kept box at or above it.
    """
    _validate_nms_args(boxes, scores, iou_threshold)
    order = _descending_order(scores)
    kept: List[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        kept.append(int(idx))
        for other in order:
            if other == idx or suppressed[other]:
                continue
            if box_iou(boxes[idx], boxes[other]) >= iou_threshold:
                suppressed[other] = True
    return kept


def forward_integer_reference(layer: QuantizedLinear,
                              x_q: np.ndarray) -> np.ndarray:
    """The seed int64 kernel of ``layer``: the bit-exactness oracle.

    ``layer.forward_integer`` (BLAS over exact float codes) must
    reproduce this bit for bit.
    """
    weight = layer.weight_q.astype(np.int64)
    acc = x_q.astype(np.int64) @ weight.T  # int accumulate
    acc = acc - layer._act_zero * weight.sum(axis=1)
    y = acc.astype(np.float64) * (layer._act_scale * layer._weight_scale)
    if layer.bias is not None:
        y = y + layer.bias
    return y.astype(np.float32)


@contextlib.contextmanager
def int64_kernels() -> Iterator[None]:
    """Route every :class:`QuantizedLinear` through the int64 kernel.

    Within the scope, ``forward_integer`` and ``__call__`` of every
    layer run :func:`forward_integer_reference` (looked up at call
    time).  The switch is process-wide, so it is meant for tests and
    benchmarks, not for serving threads.
    """

    def forward_integer(layer: QuantizedLinear, x_q: np.ndarray) -> np.ndarray:
        return forward_integer_reference(layer, x_q)

    def call(layer: QuantizedLinear, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, x.shape[-1])
        y = forward_integer_reference(layer, layer.quantize_input(flat))
        return y.reshape(*x.shape[:-1], layer.out_features)

    saved = QuantizedLinear.forward_integer, QuantizedLinear.__call__
    QuantizedLinear.forward_integer, QuantizedLinear.__call__ = forward_integer, call
    try:
        yield
    finally:
        QuantizedLinear.forward_integer, QuantizedLinear.__call__ = saved


def detect_reference(detector: TaskDetector, scene: Scene,
                     stride: Optional[int] = None) -> List[Detection]:
    """:meth:`TaskDetector.detect` with the seed window loop and loop NMS.

    The forward (same chunk rule) and the scoring are the production
    ones, so the result differs from ``detector.detect`` only in the two
    stages this is the oracle for: boxes and keep order must match
    exactly, float scores to ``rtol=1e-12``.
    """
    windows, boxes = windows_loop(scene, stride=stride)
    predictions = predict_windows(
        detector.model, windows,
        batch_size=forward_chunk(len(boxes)))
    scores = score_predictions(predictions, detector.matcher)
    combined = scores[2]
    rows = np.flatnonzero(combined >= detector.score_threshold)
    keep = nms_reference([boxes[i] for i in rows],
                         [float(combined[i]) for i in rows],
                         iou_threshold=detector.nms_iou)
    kept = rows[keep]
    return build_detections([boxes[i] for i in kept], kept, predictions,
                            scores)
