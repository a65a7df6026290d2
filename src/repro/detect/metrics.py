"""Detection metrics.

Two views of quality:

* classic detection metrics — greedy IoU matching, precision/recall,
  all-point-interpolated average precision;
* *task accuracy*, the paper's headline number — over a set of scenes,
  the fraction of windows whose task-relevance decision (relevant / not)
  is correct.  This is the metric behind the "+15 %" configuration gap.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenes import ObjectInstance, Scene
from repro.data.tasks import TaskDefinition
from repro.detect.boxes import box_iou
from repro.detect.pipeline import Detection, TaskDetector


@dataclasses.dataclass
class DetectionMetrics:
    """Aggregated detection quality over a scene set."""

    true_positives: int
    false_positives: int
    false_negatives: int
    average_precision: float

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "ap": self.average_precision,
            "tp": self.true_positives,
            "fp": self.false_positives,
            "fn": self.false_negatives,
        }


def match_detections(
    detections: Sequence[Detection],
    ground_truth: Sequence[ObjectInstance],
    iou_threshold: float = 0.5,
) -> Tuple[List[bool], int]:
    """Greedily match detections (descending score) to ground truth.

    Returns per-detection hit flags and the number of unmatched ground
    truth objects (false negatives).  Each ground-truth object matches at
    most one detection.
    """
    order = np.argsort([-d.score for d in detections])
    matched = [False] * len(ground_truth)
    hits: List[bool] = [False] * len(detections)
    for det_idx in order:
        detection = detections[det_idx]
        best_iou, best_gt = 0.0, -1
        for gt_idx, gt in enumerate(ground_truth):
            if matched[gt_idx]:
                continue
            iou = box_iou(detection.bbox, gt.bbox)
            if iou > best_iou:
                best_iou, best_gt = iou, gt_idx
        if best_gt >= 0 and best_iou >= iou_threshold:
            matched[best_gt] = True
            hits[det_idx] = True
    return hits, matched.count(False)


def precision_recall_curve(
    scores: Sequence[float], hits: Sequence[bool], num_positives: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Precision and recall as the score threshold sweeps downward."""
    if num_positives <= 0:
        return np.zeros(0), np.zeros(0)
    order = np.argsort(-np.asarray(scores, dtype=np.float64))
    hit_arr = np.asarray(hits, dtype=np.float64)[order]
    tp = np.cumsum(hit_arr)
    fp = np.cumsum(1.0 - hit_arr)
    precision = tp / np.maximum(tp + fp, 1e-12)
    recall = tp / num_positives
    return precision, recall


def average_precision(precision: np.ndarray, recall: np.ndarray) -> float:
    """All-point interpolated AP (area under the PR envelope)."""
    if precision.size == 0:
        return 0.0
    # Monotone non-increasing precision envelope.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    padded_recall = np.concatenate([[0.0], recall, [recall[-1]]])
    padded_precision = np.concatenate([[envelope[0]], envelope, [0.0]])
    deltas = np.diff(padded_recall)
    return float(np.sum(deltas * padded_precision[1:]))


def _detect_all(detector, scenes: Sequence[Scene]) -> List[List[Detection]]:
    """Per-scene detections via the fused batch path when available."""
    if hasattr(detector, "detect_batch"):
        return detector.detect_batch(scenes)
    return [detector.detect(scene) for scene in scenes]


def evaluate_task_detection(
    detector: TaskDetector,
    scenes: Sequence[Scene],
    task: TaskDefinition,
    iou_threshold: float = 0.5,
) -> DetectionMetrics:
    """Full detection evaluation of a detector on a task over scenes.

    Ground truth = the scenes' objects whose attribute profiles satisfy
    the task predicate.
    """
    all_scores: List[float] = []
    all_hits: List[bool] = []
    tp = fp = fn = 0
    total_positives = 0
    scenes = list(scenes)
    for scene, detections in zip(scenes, _detect_all(detector, scenes)):
        relevant = [obj for obj in scene.objects if task.matches(obj.profile)]
        total_positives += len(relevant)
        hits, misses = match_detections(detections, relevant, iou_threshold)
        tp += sum(hits)
        fp += len(hits) - sum(hits)
        fn += misses
        all_scores.extend(d.score for d in detections)
        all_hits.extend(hits)
    precision, recall = precision_recall_curve(all_scores, all_hits, total_positives)
    ap = average_precision(precision, recall)
    return DetectionMetrics(
        true_positives=tp, false_positives=fp, false_negatives=fn,
        average_precision=ap,
    )


def window_task_accuracy(
    model,
    dataset,
    matcher=None,
    threshold: float = 0.35,
) -> float:
    """Task-relevance decision accuracy over a labelled window dataset.

    Mirrors the detector's per-window decision rule —
    ``P(object) · kg_match ≥ threshold`` — against the dataset's
    ``task_labels``.  This is the E1 "specific scenario" accuracy: the
    dataset's hard negatives are what separate the two configurations.
    """
    from repro.detect.pipeline import predict_windows, score_predictions

    if dataset.task_labels is None:
        raise ValueError("dataset has no task labels")
    predictions = predict_windows(model, dataset.images)
    _, _, combined = score_predictions(predictions, matcher)
    decisions = combined >= threshold
    truth = dataset.task_labels > 0.5
    return float((decisions == truth).mean())


def cell_decision_counts(
    scene: Scene,
    detections: Sequence[Detection],
    task: TaskDefinition,
    object_cells_only: bool,
) -> Tuple[int, int]:
    """``(correct, total)`` cell decisions of one scene's detections.

    Every grid cell is a decision point: the detector should fire exactly
    on cells holding a task-relevant object.  ``object_cells_only``
    scores only cells that contain an object.
    """
    relevant_cells = {
        obj.cell for obj in scene.objects if task.matches(obj.profile)
    }
    object_cells = {obj.cell for obj in scene.objects}
    fired_cells = {
        (detection.bbox[1] // scene.cell_size,
         detection.bbox[0] // scene.cell_size)
        for detection in detections
    }
    correct = 0
    total = 0
    for row in range(scene.grid):
        for col in range(scene.grid):
            cell = (row, col)
            if object_cells_only and cell not in object_cells:
                continue
            correct += int((cell in relevant_cells) == (cell in fired_cells))
            total += 1
    return correct, total


def task_accuracy(
    detector: TaskDetector,
    scenes: Sequence[Scene],
    task: TaskDefinition,
    object_cells_only: bool = False,
) -> float:
    """Window-level task accuracy: the paper's configuration metric.

    Accuracy is the fraction of correct cell decisions
    (:func:`cell_decision_counts`) over all scenes.

    ``object_cells_only`` restricts scoring to cells that contain an
    object (relevant or distractor) — the hard decisions where the two
    model configurations actually differ; empty-background cells are
    near-trivially correct for both and dilute the gap.
    """
    correct = 0
    total = 0
    scenes = list(scenes)
    for scene, detections in zip(scenes, _detect_all(detector, scenes)):
        c, t = cell_decision_counts(scene, detections, task, object_cells_only)
        correct += c
        total += t
    return correct / total if total else 0.0
