"""Margin-threshold calibration and its persisted artifacts.

The router escalates scenes whose confidence margin falls below a
threshold; this module picks that threshold from data.  On a held-out
calibration set it measures, per scene, the fast (quantized) and
specialist cell accuracies plus the fast pass's margin, then sweeps
every distinct margin as a candidate threshold: escalating exactly the
scenes below the candidate yields the cascade's accuracy and cost at
that operating point.  The chosen threshold is the *cheapest* candidate
(fewest escalations) that recovers at least ``target_recovery`` of the
specialist's accuracy advantage within ``max_relative_cost`` of the
all-specialist cost; when no candidate meets both, the best-recovery
point under the cost cap is returned with ``meets_targets=False``.

Calibrations persist next to the model artifacts:
:class:`CalibrationStore` writes integrity-hashed JSON under
``<registry.root>/calibrations/`` — the same atomic-write, verify-on-
load, quarantine-on-corruption discipline as the checkpoint registry,
without colliding with its ``<root>/*.json`` checkpoint metadata.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import CorruptArtifactError, ModelRegistry
from repro.detect.metrics import cell_decision_counts
from repro.nn.serialization import atomic_write_bytes

if TYPE_CHECKING:
    from repro.data.scenes import Scene
    from repro.data.tasks import TaskDefinition
    from repro.detect.pipeline import Detection, TaskDetector

CALIBRATION_FORMAT_VERSION = 1


def scene_cell_accuracy(scene: "Scene", detections: Sequence["Detection"],
                        task: "TaskDefinition",
                        object_cells_only: bool = True) -> float:
    """One scene's cell-decision accuracy (see ``detect.task_accuracy``).

    Same decision rule as the aggregate metric, computed per scene so
    the calibration sweep can re-mix fast/specialist outcomes per
    routing choice without re-running either detector.  A scene with no
    scored cell reads 1.0.
    """
    correct, total = cell_decision_counts(scene, detections, task,
                                          object_cells_only)
    return correct / total if total else 1.0


@dataclasses.dataclass(frozen=True)
class CalibrationPoint:
    """One candidate operating point from the threshold sweep."""

    margin_threshold: float
    escalation_fraction: float
    accuracy: float
    recovery: float
    relative_cost: float


@dataclasses.dataclass(frozen=True)
class CascadeCalibration:
    """A calibrated cascade operating point, ready to persist.

    ``recovery`` is the fraction of the specialist's accuracy advantage
    over the fast path the cascade keeps; ``relative_cost`` is cascade
    cost over all-specialist cost under the supplied per-scene costs.
    """

    task: str
    margin_threshold: float
    escalation_fraction: float
    fast_accuracy: float
    specialist_accuracy: float
    cascade_accuracy: float
    recovery: float
    relative_cost: float
    fast_cost: float
    specialist_cost: float
    target_recovery: float
    max_relative_cost: float
    num_scenes: int
    meets_targets: bool
    frontier: Tuple[CalibrationPoint, ...] = ()

    def to_dict(self) -> Dict:
        payload = dataclasses.asdict(self)
        payload["frontier"] = [dataclasses.asdict(p) for p in self.frontier]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "CascadeCalibration":
        frontier = tuple(CalibrationPoint(**p)
                         for p in payload.get("frontier", ()))
        fields = {f.name for f in dataclasses.fields(cls)} - {"frontier"}
        return cls(frontier=frontier,
                   **{k: v for k, v in payload.items() if k in fields})


def _sweep_point(margins: Sequence[float], fast_acc: Sequence[float],
                 spec_acc: Sequence[float], threshold: float,
                 fast_cost: float, specialist_cost: float) -> CalibrationPoint:
    n = len(margins)
    escalate = [m < threshold for m in margins]
    num_esc = sum(escalate)
    accuracy = sum(s if e else f
                   for e, f, s in zip(escalate, fast_acc, spec_acc)) / n
    fast_mean = sum(fast_acc) / n
    spec_mean = sum(spec_acc) / n
    delta = spec_mean - fast_mean
    recovery = 1.0 if delta <= 0 else (accuracy - fast_mean) / delta
    relative_cost = ((n * fast_cost + num_esc * specialist_cost)
                     / (n * specialist_cost))
    return CalibrationPoint(
        margin_threshold=float(threshold),
        escalation_fraction=num_esc / n,
        accuracy=accuracy,
        recovery=recovery,
        relative_cost=relative_cost,
    )


def calibrate_margin_threshold(
    fast: "TaskDetector",
    specialist: "TaskDetector",
    scenes: Sequence["Scene"],
    task: "TaskDefinition",
    *,
    fast_cost: float = 1.0,
    specialist_cost: float = 4.5,
    target_recovery: float = 0.8,
    max_relative_cost: float = 0.4,
) -> CascadeCalibration:
    """Sweep margin thresholds on a calibration set, pick the cheapest
    point meeting the recovery/cost targets.

    Both detectors run once over the whole set (batch-first); the sweep
    itself is pure bookkeeping over the measured per-scene margins and
    accuracies, so candidate thresholds cost nothing extra.
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("calibration requires at least one scene")
    fast_results, signal_list = fast.detect_batch_with_signals(scenes)
    spec_results = specialist.detect_batch(scenes)
    margins = [s.margin for s in signal_list]
    fast_acc = [scene_cell_accuracy(scene, dets, task)
                for scene, dets in zip(scenes, fast_results)]
    spec_acc = [scene_cell_accuracy(scene, dets, task)
                for scene, dets in zip(scenes, spec_results)]

    # Candidate thresholds: 0.0 (never escalate) plus just-above each
    # distinct finite margin (escalate that scene and every lower one).
    eps = 1e-9
    candidates = [0.0] + sorted(
        {m + eps for m in margins if math.isfinite(m)})
    frontier = [
        _sweep_point(margins, fast_acc, spec_acc, threshold,
                     fast_cost, specialist_cost)
        for threshold in candidates
    ]

    affordable = [p for p in frontier if p.relative_cost <= max_relative_cost]
    meeting = [p for p in affordable if p.recovery >= target_recovery]
    if meeting:
        # Cheapest point that clears both bars.
        chosen = min(meeting, key=lambda p: (p.relative_cost,
                                             p.margin_threshold))
        meets = True
    elif affordable:
        # Best recovery we can buy under the cost cap.
        chosen = max(affordable, key=lambda p: (p.recovery,
                                                -p.relative_cost))
        meets = False
    else:
        chosen = frontier[0]
        meets = False

    n = len(scenes)
    return CascadeCalibration(
        task=task.name,
        margin_threshold=chosen.margin_threshold,
        escalation_fraction=chosen.escalation_fraction,
        fast_accuracy=sum(fast_acc) / n,
        specialist_accuracy=sum(spec_acc) / n,
        cascade_accuracy=chosen.accuracy,
        recovery=chosen.recovery,
        relative_cost=chosen.relative_cost,
        fast_cost=fast_cost,
        specialist_cost=specialist_cost,
        target_recovery=target_recovery,
        max_relative_cost=max_relative_cost,
        num_scenes=n,
        meets_targets=meets,
        frontier=tuple(frontier),
    )


class CalibrationStore:
    """Integrity-hashed calibration JSONs under the artifact registry.

    Files live in ``<registry.root>/calibrations/`` — a subdirectory, so
    the checkpoint registry's ``names()``/``statuses()`` root scan never
    mistakes them for orphaned checkpoint metadata.  Writes are atomic;
    loads verify the embedded sha256 and quarantine damaged files into
    ``<registry.root>/quarantine/calibrations/`` exactly like corrupt
    checkpoints.
    """

    def __init__(self, registry: ModelRegistry) -> None:
        self.registry = registry
        self.root = os.path.join(registry.root, "calibrations")

    def _path(self, name: str) -> str:
        import urllib.parse

        return os.path.join(self.root,
                            urllib.parse.quote(name, safe="") + ".json")

    @staticmethod
    def _digest(payload: Dict) -> str:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def save(self, name: str, calibration: CascadeCalibration) -> str:
        os.makedirs(self.root, exist_ok=True)
        body = calibration.to_dict()
        document = {
            "format": CALIBRATION_FORMAT_VERSION,
            "name": name,
            "calibration": body,
            "integrity": {"sha256": self._digest(body)},
        }
        path = self._path(name)
        atomic_write_bytes(
            (json.dumps(document, indent=2, sort_keys=True)
             + "\n").encode("utf-8"), path)
        return path

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def load(self, name: str) -> CascadeCalibration:
        path = self._path(name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            raise KeyError(f"no calibration named {name!r}") from None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            raise CorruptArtifactError(
                name, ["calibration file is not valid JSON"],
                paths=[path]) from None
        body = document.get("calibration")
        recorded = (document.get("integrity") or {}).get("sha256")
        if (document.get("format") != CALIBRATION_FORMAT_VERSION
                or body is None or recorded != self._digest(body)):
            self._quarantine(path)
            raise CorruptArtifactError(
                name, ["calibration failed its integrity check"],
                paths=[path])
        return CascadeCalibration.from_dict(body)

    def names(self) -> List[str]:
        import urllib.parse

        if not os.path.isdir(self.root):
            return []
        return sorted(
            urllib.parse.unquote(entry[:-len(".json")])
            for entry in os.listdir(self.root)
            if entry.endswith(".json")
        )

    def _quarantine(self, path: str) -> None:
        hold = os.path.join(self.registry.root, "quarantine", "calibrations")
        os.makedirs(hold, exist_ok=True)
        destination = os.path.join(hold, os.path.basename(path))
        if os.path.exists(destination):
            os.replace(path, destination + ".dup")
        else:
            os.replace(path, destination)
