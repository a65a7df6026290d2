"""Window scanning and task-conditioned detection.

Both model configurations — the float ViT
(:class:`repro.nn.VisionTransformer`) and the integer one
(:class:`repro.quant.QuantizedVisionTransformer`) — expose the same
``infer(images)`` contract, and :func:`predict_windows` turns it into
softmaxed class probabilities and per-family attribute distributions.

:class:`TaskDetector` then scans a scene's windows, computes

    score(window) = P(object) · kg_match(attribute distributions)

and emits :class:`Detection` records above threshold, after NMS.

The quantized configuration's forwards run on the exact BLAS-backed
integer kernels (:class:`~repro.quant.QuantizedLinear`): bit-identical
to the int64 reference arithmetic, and exactly batch-invariant — so a
scene's quantized detections are the same bits whichever batch of
:meth:`TaskDetector.detect_batch` it arrives in.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.datasets import background_class_id
from repro.data.scenes import Scene
from repro.detect.boxes import nms
from repro.kg.matcher import GraphMatcher
from repro.nn import VisionTransformer
from repro.obs import get_registry
from repro.obs.context import current_context
from repro.quant.vit import QuantizedVisionTransformer

ModelLike = Union[VisionTransformer, QuantizedVisionTransformer]


def _attr_deadline(span) -> None:
    """Stamp the request's remaining deadline budget onto a span.

    A detect running under a deadline-bearing request context records
    how much budget was left when inference *started*, so traces show
    whether a deadline miss was spent queueing or computing.
    """
    ctx = current_context()
    if ctx is not None and ctx.deadline_s is not None:
        span.set_attr(deadline_remaining_s=round(ctx.remaining_s(), 6))


def forward_chunk(total: int) -> int:
    """Rows per forward when detecting ``total`` windows in one call.

    At most 256: per-chunk Python/dispatch overhead amortizes across the
    whole batch, and 256 is the fastest row count measured for the
    quantized student on one BLAS thread (2-vCPU Xeon host): 69.1, 68.0,
    65.5 and 69.0 µs per window at 64, 144, 256 and 512 rows.  When
    ``total`` needs several chunks the rows are split evenly across
    ``ceil(total / 256)`` of them, so no slow ragged tail remains.
    """
    chunk = 256
    if total > chunk:
        pieces = -(-total // chunk)
        chunk = -(-total // pieces)
    return chunk


def tile_windows(images: Sequence[np.ndarray], cells: int,
                 size: int) -> np.ndarray:
    """The top-left ``cells x cells`` grid of ``size``-pixel windows of
    every ``(C, H, W)`` image, as one ``(len(images) * cells**2, C, size,
    size)`` batch, image by image and row-major within an image.

    One strided copy per image straight into the batch, with no
    intermediate stack.  The images must share channels and dtype and
    be at least ``cells * size`` on each side.  The detect path tiles
    every whole cell of a scene; the streaming tracker tiles its
    ``scene.grid`` cells.
    """
    first = images[0]
    channels = first.shape[0]
    side = cells * size
    windows = np.empty((len(images) * cells * cells, channels, size, size),
                       dtype=first.dtype)
    dest = windows.reshape(len(images), cells, cells, channels, size, size)
    for i, image in enumerate(images):
        dest[i] = image[:, :side, :side].reshape(
            channels, cells, size, cells, size).transpose(1, 3, 0, 2, 4)
    return windows


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _empty_predictions(model: ModelLike) -> Dict[str, np.ndarray]:
    """Well-formed zero-row outputs matching the model's head shapes."""
    cfg = model.config
    result: Dict[str, np.ndarray] = {
        "class_probs": np.zeros((0, cfg.num_classes), dtype=np.float32),
        "attribute_probs": {
            family: np.zeros((0, cardinality), dtype=np.float32)
            for family, cardinality in cfg.attribute_heads
        },
    }
    if cfg.with_task_head:
        result["task_probs"] = np.zeros(0, dtype=np.float32)
    return result


def predict_windows(model: ModelLike,
                    windows: np.ndarray) -> Dict[str, np.ndarray]:
    """Run a model configuration over ``(N, 3, S, S)`` windows.

    Returns ``{"class_probs": (N, C), "attribute_probs": {family: (N, V)}}``.
    An empty batch (``N == 0``) yields zero-row arrays of the right widths
    instead of crashing on an empty concatenate.

    The forward runs in :func:`forward_chunk` ``(N)``-row chunks; the
    float and integer forwards are both batch-invariant, so the chunking
    changes no output.
    """
    if windows.shape[0] == 0:
        return _empty_predictions(model)
    obs = get_registry()
    obs.count("detect.windows_scored", windows.shape[0])
    class_chunks: List[np.ndarray] = []
    attr_chunks: Dict[str, List[np.ndarray]] = {}
    task_chunks: List[np.ndarray] = []
    chunk = forward_chunk(windows.shape[0])
    for start in range(0, windows.shape[0], chunk):
        with obs.span("detect.model_forward"):
            out = model.infer(windows[start:start + chunk])
        class_chunks.append(_softmax_np(out["class_logits"]))
        for family, logits in out["attributes"].items():
            attr_chunks.setdefault(family, []).append(_softmax_np(logits))
        if "task_logits" in out:
            task_chunks.append(_softmax_np(out["task_logits"]))
    result: Dict[str, np.ndarray] = {
        "class_probs": np.concatenate(class_chunks, axis=0),
        "attribute_probs": {
            family: np.concatenate(parts, axis=0)
            for family, parts in attr_chunks.items()
        },
    }
    if task_chunks:
        # probability the window is relevant to the specialist's task
        result["task_probs"] = np.concatenate(task_chunks, axis=0)[:, 1]
    return result


def score_predictions(
    predictions: Dict[str, np.ndarray],
    matcher: Optional[GraphMatcher] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn :func:`predict_windows` output into per-window scores.

    Returns ``(objectness, task_scores, combined)``.  The task score
    comes from the specialist's distilled task head when present,
    otherwise from the knowledge-graph matcher; with neither, detection
    degrades to plain objectness (the data-only baseline).  This is the
    single scoring rule shared by :class:`TaskDetector` and the
    streaming tracker.
    """
    objectness = 1.0 - predictions["class_probs"][:, background_class_id()]
    if "task_probs" in predictions:
        # Task-specific configuration: the distilled task head IS the
        # knowledge graph's decision, baked into the specialist.
        task_scores = predictions["task_probs"]
    elif matcher is not None:
        task_scores = matcher.match_distributions(
            predictions["attribute_probs"]).score
    else:
        task_scores = np.ones_like(objectness)
    return objectness, task_scores, objectness * task_scores


def score_windows(model: ModelLike, windows: np.ndarray,
                  matcher: Optional[GraphMatcher] = None) -> np.ndarray:
    """Combined per-window scores in one call (the streaming reuse hook).

    :func:`predict_windows` + :func:`score_predictions` fused for callers
    that only need the combined score vector — notably the delta-gated
    streaming tier, which forwards just the windows whose pixels changed
    and splices cached scores in for the rest.  Scores are a pure
    function of ``(window pixels, matcher state)``, which is what makes
    that cache-and-splice exact.
    """
    predictions = predict_windows(model, windows)
    _, _, combined = score_predictions(predictions, matcher)
    return combined


def confidence_margin(combined: np.ndarray, score_threshold: float) -> float:
    """Distance of the closest window score to the decision threshold.

    The margin is the per-scene confidence signal the cascade router
    keys on: a small margin means at least one window sat right at the
    emit/suppress boundary, where the quantized configuration and the
    task-specific specialist are most likely to disagree.  A scene with
    no windows has nothing near the boundary and scores ``inf``
    (maximally confident).  Pure function of one scene's combined
    scores, so it is identical across :meth:`TaskDetector.detect`,
    :meth:`TaskDetector.detect_batch`, and the serving engine.
    """
    if combined.size == 0:
        return float("inf")
    return float(np.abs(combined - score_threshold).min())


@dataclasses.dataclass(frozen=True)
class SceneSignals:
    """Per-scene confidence signals emitted alongside detections.

    ``margin`` is :func:`confidence_margin`; ``max_combined`` is the best
    window's combined score (0.0 for a windowless scene).  Both are
    computed from the same scored windows the emitted detections came
    from — no extra forward pass.
    """

    margin: float
    max_combined: float
    num_windows: int
    num_detections: int


@dataclasses.dataclass
class Detection:
    """One task-relevant detection in a scene."""

    bbox: Tuple[int, int, int, int]
    score: float
    objectness: float
    task_score: float
    class_id: int
    attribute_probs: Dict[str, np.ndarray]

    def __repr__(self) -> str:
        return (
            f"Detection(bbox={self.bbox}, score={self.score:.3f}, "
            f"class={self.class_id})"
        )


def build_detections(boxes: Sequence[Sequence[int]], rows: np.ndarray,
                     predictions: Dict[str, np.ndarray],
                     scores: Tuple[np.ndarray, np.ndarray, np.ndarray],
                     ) -> List[Detection]:
    """:class:`Detection` records for the batch rows ``rows``.

    ``boxes[k]`` is row ``rows[k]``'s box; ``scores`` is
    :func:`score_predictions` output.  Attribute distributions are row
    views into ``predictions``.
    """
    objectness, task_scores, combined = scores
    class_ids = predictions["class_probs"][rows].argmax(axis=1)
    return [
        Detection(
            bbox=tuple(box),
            score=float(combined[i]),
            objectness=float(objectness[i]),
            task_score=float(task_scores[i]),
            class_id=int(class_id),
            attribute_probs={family: probs[i] for family, probs
                             in predictions["attribute_probs"].items()},
        )
        for box, i, class_id in zip(boxes, rows, class_ids)
    ]


class TaskDetector:
    """Task-oriented detector: model configuration + KG matcher.

    Parameters
    ----------
    model:
        Either model configuration (float distilled ViT or quantized ViT).
    matcher:
        Knowledge-graph matcher for the active task; ``None`` degrades to
        plain object detection (objectness only) — the data-only baseline.
    score_threshold:
        Minimum combined score to emit a detection.

    Every entry point runs the one body,
    :meth:`detect_batch_with_signals`: ``detect(scene)`` is
    ``detect_batch([scene])[0]``.  The seed loop implementations it
    replaced live in :mod:`repro.reference` as test oracles.
    """

    def __init__(
        self,
        model: ModelLike,
        matcher: Optional[GraphMatcher] = None,
        score_threshold: float = 0.35,
    ) -> None:
        if not 0.0 <= score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        self.model = model
        self.matcher = matcher
        self.score_threshold = score_threshold

    # ------------------------------------------------------------------
    @staticmethod
    def _window_starts(scene: Scene) -> Tuple[int, np.ndarray]:
        size = scene.cell_size
        return size, np.arange(scene.size // size) * size

    def _windows_all(
        self, scenes: Sequence[Scene],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All scenes' windows as one ``(N, C, S, S)`` batch.

        The windows tile each scene cell by cell, row-major; a side that
        is not a multiple of the cell size loses its ragged edge.
        Requires homogeneous scenes (same image shape and cell size —
        :meth:`detect_batch_with_signals` groups them).  Every scene
        shares the same window placements, returned once as an
        ``(N / len(scenes), 4)`` int box array in scan order.
        """
        with get_registry().span("detect.window_build"):
            size, starts = self._window_starts(scenes[0])
            ys, xs = np.meshgrid(starts, starts, indexing="ij")
            ys, xs = ys.reshape(-1), xs.reshape(-1)
            boxes = np.stack([xs, ys, xs + size, ys + size], axis=1)
            windows = tile_windows([scene.image for scene in scenes],
                                   starts.size, size)
            return windows, boxes

    # ------------------------------------------------------------------
    def _detect_fused(
        self, scenes: Sequence[Scene],
    ) -> Tuple[List[List[Detection]], List[SceneSignals]]:
        """One forward and one KG match over homogeneous scenes, then
        per-scene threshold + NMS on arrays; :class:`Detection` objects
        are built for the kept rows only."""
        windows, boxes = self._windows_all(scenes)
        predictions = predict_windows(self.model, windows)
        with get_registry().span("detect.kg_match"):
            scores = score_predictions(predictions, self.matcher)
        combined = scores[2]
        n = len(boxes)
        results: List[List[Detection]] = []
        signals: List[SceneSignals] = []
        for start in [index * n for index in range(len(scenes))]:
            scene_scores = combined[start:start + n]
            hits = np.flatnonzero(scene_scores >= self.score_threshold)
            detections: List[Detection] = []
            if hits.size:
                obs = get_registry()
                with obs.span("detect.nms", candidates=int(hits.size)):
                    keep = hits[nms(boxes[hits], scene_scores[hits])]
                obs.count("detect.nms.candidates", int(hits.size))
                obs.count("detect.nms.kept", int(keep.size))
                detections = build_detections(boxes[keep].tolist(),
                                              start + keep, predictions, scores)
            results.append(detections)
            signals.append(SceneSignals(
                margin=confidence_margin(scene_scores, self.score_threshold),
                max_combined=float(scene_scores.max()) if n else 0.0,
                num_windows=n,
                num_detections=len(detections),
            ))
        return results, signals

    def detect(self, scene: Scene) -> List[Detection]:
        return self.detect_batch_with_signals([scene])[0][0]

    def detect_batch(self, scenes: Sequence[Scene]) -> List[List[Detection]]:
        return self.detect_batch_with_signals(scenes)[0]

    def detect_batch_with_signals(
        self, scenes: Sequence[Scene],
    ) -> Tuple[List[List[Detection]], List[SceneSignals]]:
        """Batch-first detection: one fused model forward across scenes.

        Windows from every scene are concatenated into a single forward
        pass and a single knowledge-graph match, then split back for
        per-scene threshold + NMS.  Results arrive in input order, one
        detection list per scene, each with the :class:`SceneSignals`
        computed from the same scored windows.

        Determinism: window extraction, matching, threshold, and NMS are
        all row-wise, and the forward is exactly order- and
        batch-invariant in both configurations (exact integer kernels;
        fixed-shape float GEMM tiles) — so a scene's detections do not
        depend on the batch it arrives in.

        Scenes with different image shapes or cell sizes cannot share a
        forward; those run one at a time through the same fused body,
        still under the one ``detect.batch_total`` span.
        """
        scenes = list(scenes)
        if not scenes:
            return [], []
        task_name = self.matcher.kg.task_name if self.matcher is not None else None
        with get_registry().span("detect.batch_total", task=task_name,
                                 scenes=len(scenes)) as span:
            _attr_deadline(span)
            fused = len({(s.image.shape, s.cell_size) for s in scenes}) == 1
            groups = [scenes] if fused else [[scene] for scene in scenes]
            results: List[List[Detection]] = []
            signals: List[SceneSignals] = []
            for group in groups:
                group_results, group_signals = self._detect_fused(group)
                results += group_results
                signals += group_signals
            span.set_attr(
                fused=fused,
                windows=sum(s.num_windows for s in signals),
                detections=sum(s.num_detections for s in signals))
            return results, signals
