"""Compositional scenario operators (in the torchfuzz operator mold).

Each operator is one orthogonal transformation of a
:class:`~repro.fuzz.scenario.ScenarioSpec` — pick a mission, crank the
clutter, degrade the knowledge graph, schedule degenerate grids, flip an
ablation switch.  :func:`generate_scenario` composes a seeded random
subset of them on top of the default spec, so scenario diversity comes
from operator *composition* rather than one monolithic sampler, and a
new scenario dimension is a new operator, not a rewrite.

Determinism contract: ``generate_scenario(seed)`` depends only on
``seed`` (all randomness flows through one ``np.random.default_rng``),
so the same seed always yields the same spec — the property the corpus
and ``repro fuzz replay`` rely on.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.data.tasks import TASK_LIBRARY
from repro.fuzz.scenario import ModelSpec, ScenarioSpec


class ScenarioOperator:
    """Base operator: one attribute-space transformation of a spec."""

    name = "base"

    def can_apply(self, spec: ScenarioSpec) -> bool:
        """Whether this operator is meaningful for ``spec``."""
        return True

    def apply(self, spec: ScenarioSpec,
              rng: np.random.Generator) -> ScenarioSpec:
        raise NotImplementedError

    def _stamp(self, spec: ScenarioSpec, **changes) -> ScenarioSpec:
        """Apply field changes and record this operator's provenance."""
        return dataclasses.replace(spec, ops=spec.ops + (self.name,),
                                   **changes)


class TaskOperator(ScenarioOperator):
    """Pick the mission whose predicate the scenario detects."""

    name = "task"

    def apply(self, spec, rng):
        names = sorted(TASK_LIBRARY)
        return self._stamp(spec, task=names[int(rng.integers(len(names)))])


class GridOperator(ScenarioOperator):
    """Grid size, weighted toward small grids and the degenerate 0/1."""

    name = "grid"

    def apply(self, spec, rng):
        grid = int(rng.choice([0, 1, 2, 3, 4],
                              p=[0.15, 0.2, 0.3, 0.2, 0.15]))
        return self._stamp(spec, grid=grid)


class BudgetOperator(ScenarioOperator):
    """How much workload the scenario carries (scenes, frames)."""

    name = "budget"

    def apply(self, spec, rng):
        num_frames = int(rng.integers(2, 7))
        schedule = spec.grid_schedule
        if schedule:
            schedule = tuple(
                schedule[i % len(schedule)] for i in range(num_frames))
        return self._stamp(spec, num_scenes=int(rng.integers(1, 5)),
                           num_frames=num_frames, grid_schedule=schedule)


class SceneMixOperator(ScenarioOperator):
    """Cell occupancy mix: objects vs distractors vs clutter vs empty."""

    name = "scene_mix"

    def apply(self, spec, rng):
        fractions = rng.dirichlet(np.ones(4))
        # floor at 4 decimals so the three occupied fractions can never
        # round their sum above 1 (SceneConfig validates the total)
        object_d, distractor_d, clutter_d = (
            np.floor(fractions[:3] * 1e4) / 1e4)
        return self._stamp(
            spec,
            object_density=float(object_d),
            distractor_density=float(distractor_d),
            clutter_density=float(clutter_d))


class ClutterOperator(ScenarioOperator):
    """Occlusion/clutter stress: most non-object cells become clutter."""

    name = "clutter"

    def apply(self, spec, rng):
        headroom = 1.0 - spec.object_density - spec.distractor_density
        # floor, not round: the total must stay <= 1 after quantizing
        clutter = float(np.floor(
            rng.uniform(0.5, 1.0) * headroom * 1e4) / 1e4)
        return self._stamp(spec, clutter_density=max(clutter, 0.0))


class NoiseOperator(ScenarioOperator):
    """Sensor-noise level, from clean to heavily degraded."""

    name = "noise"

    def apply(self, spec, rng):
        return self._stamp(
            spec, noise_std=float(rng.choice([0.0, 0.02, 0.08, 0.2])))


class KGNoiseOperator(ScenarioOperator):
    """Degrade the simulated LLM's graph extraction."""

    name = "kg_noise"

    def can_apply(self, spec):
        return spec.use_kg

    def apply(self, spec, rng):
        return self._stamp(
            spec,
            kg_omission=round(float(rng.uniform(0.0, 0.5)), 4),
            kg_hallucination=round(float(rng.uniform(0.0, 0.5)), 4),
            kg_weight_jitter=round(float(rng.uniform(0.0, 0.5)), 4),
            kg_seed=int(rng.integers(0, 8)))


class AblationOperator(ScenarioOperator):
    """The paper's ablation switches: KG off, task head baked in."""

    name = "ablation"

    def apply(self, spec, rng):
        use_kg = bool(rng.random() < 0.5)
        with_task_head = bool(rng.random() < 0.5)
        return self._stamp(
            spec, use_kg=use_kg,
            model=dataclasses.replace(spec.model,
                                      with_task_head=with_task_head))


class ModelOperator(ScenarioOperator):
    """Architecture of the float/quantized pair under test."""

    name = "model"

    def apply(self, spec, rng):
        dim = int(rng.choice([16, 32]))
        heads = int(rng.choice([2, 4]))
        if dim % heads != 0:
            heads = 2
        model = dataclasses.replace(
            spec.model, dim=dim, num_heads=heads,
            depth=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2)))
        return self._stamp(spec, model=model)


class ThresholdOperator(ScenarioOperator):
    """Detection score threshold, from keep-everything to near-nothing."""

    name = "threshold"

    def apply(self, spec, rng):
        return self._stamp(spec, score_threshold=float(
            rng.choice([0.0, 0.2, 0.35, 0.6, 0.9])))


class TrackerOperator(ScenarioOperator):
    """Temporal smoothing and hysteresis knobs (valid by construction)."""

    name = "tracker"

    def apply(self, spec, rng):
        on = round(float(rng.uniform(0.05, 0.8)), 4)
        off = round(float(rng.uniform(0.0, on)), 4)
        return self._stamp(
            spec, smoothing=round(float(rng.uniform(0.0, 0.9)), 4),
            on_threshold=on, off_threshold=off,
            max_missed_frames=int(rng.integers(0, 5)))


class StreamDynamicsOperator(ScenarioOperator):
    """Birth/death rates, including the extremes."""

    name = "stream_dynamics"

    def apply(self, spec, rng):
        return self._stamp(
            spec, birth_rate=float(rng.choice([0.0, 0.06, 0.3, 1.0])),
            death_rate=float(rng.choice([0.0, 0.04, 0.3, 1.0])))


class GridScheduleOperator(ScenarioOperator):
    """Per-frame grid sizes: shrinking, growing, and empty frames.

    This is the scenario family that leaves grid cells *unobserved*
    between frames — the ground that stale-EMA track aging and the
    zero-cell batch path failed on.
    """

    name = "grid_schedule"

    def apply(self, spec, rng):
        schedule = tuple(
            int(g) for g in rng.choice(
                [0, 1, 2, 3], size=spec.num_frames,
                p=[0.25, 0.25, 0.3, 0.2]))
        return self._stamp(spec, grid_schedule=schedule)


class EarlyDeathOperator(ScenarioOperator):
    """Deaths announced on the last visible frame (truncation semantics)."""

    name = "early_deaths"

    def apply(self, spec, rng):
        return self._stamp(spec, early_deaths=True)


class EngineOperator(ScenarioOperator):
    """Micro-batching engine shape (batch size, worker count)."""

    name = "engine"

    def apply(self, spec, rng):
        return self._stamp(spec,
                           engine_max_batch=int(rng.integers(1, 6)),
                           engine_workers=int(rng.integers(1, 3)))


class OcclusionOperator(ScenarioOperator):
    """Partially mask object cells (pixels only; truth intact).

    Occlusion pushes window scores toward the decision threshold — the
    regime where the cascade's margin signal earns its keep and a
    rounding slip in either configuration would flip a kept box.
    """

    name = "occlusion"

    def apply(self, spec, rng):
        return self._stamp(
            spec,
            occlusion_rate=round(float(rng.uniform(0.2, 0.9)), 4),
            occlusion_strength=float(rng.choice([0.3, 0.6, 0.9])))


class CascadeOperator(ScenarioOperator):
    """Cascade ablation switches: margin, budget, fingerprint pinning.

    Exercises every routing regime the ``cascade_routing`` oracle
    checks: margin-only escalation (tight and loose thresholds), a
    binding escalation budget that forces shedding, and the pinned
    fast-path bypass.
    """

    name = "cascade"

    def apply(self, spec, rng):
        return self._stamp(
            spec,
            cascade_margin=float(rng.choice([0.0, 0.05, 0.15, 0.4, 1.0])),
            cascade_fraction=float(rng.choice([0.0, 0.25, 0.5, 1.0])),
            cascade_pinned=bool(rng.random() < 0.3))


class DeltaGateOperator(ScenarioOperator):
    """Turn on incremental detection (frame-delta gating).

    Sampled alongside a periodic full refresh and, occasionally, the
    approximate tracker-prior carryover — the regime where the
    ``incremental_stream`` oracle's exact-vs-gated comparison and its
    ``refresh_every=1`` degeneracy check both bite.
    """

    name = "delta_gate"

    def apply(self, spec, rng):
        return self._stamp(
            spec, delta_gate=True,
            refresh_every=int(rng.choice([0, 1, 2, 4, 8])),
            motion_threshold=float(rng.choice(
                [0.0, 0.0, 0.0, 0.01, 0.05])))


class MotionDensityOperator(ScenarioOperator):
    """Freeze most of the scene: incremental rendering below 100% motion.

    ``motion_rate=0.0`` is the fully-static extreme (every cell repeats
    bit-identical pixels after birth); small rates model surveillance
    feeds where the delta gate should hit on most cells.
    """

    name = "motion_density"

    def apply(self, spec, rng):
        return self._stamp(
            spec, motion_rate=float(rng.choice([0.0, 0.1, 0.25, 0.5])))


class MultiCameraOperator(ScenarioOperator):
    """Replay the scenario over several independent camera feeds."""

    name = "multi_camera"

    def apply(self, spec, rng):
        return self._stamp(spec, num_cameras=int(rng.integers(2, 5)))


#: Always applied, in order: every scenario needs a mission, a budget,
#: and a grid before the optional stressors compose on top.
BASE_OPERATORS: List[ScenarioOperator] = [
    TaskOperator(), BudgetOperator(), GridOperator(),
]

#: Optional stressors, each applied independently with probability
#: :data:`OPTIONAL_RATE` in rng-shuffled order.
OPTIONAL_OPERATORS: List[ScenarioOperator] = [
    SceneMixOperator(), ClutterOperator(), NoiseOperator(),
    KGNoiseOperator(), AblationOperator(), ModelOperator(),
    ThresholdOperator(), TrackerOperator(), StreamDynamicsOperator(),
    GridScheduleOperator(), EarlyDeathOperator(), EngineOperator(),
    OcclusionOperator(), CascadeOperator(), DeltaGateOperator(),
    MotionDensityOperator(), MultiCameraOperator(),
]

OPTIONAL_RATE = 0.4


def all_operators() -> List[ScenarioOperator]:
    return list(BASE_OPERATORS) + list(OPTIONAL_OPERATORS)


def generate_scenario(seed: int) -> ScenarioSpec:
    """Compose one deterministic scenario from ``seed``.

    The same seed always returns the same spec: all randomness flows
    through a single generator seeded here, operator order is fixed for
    the base set and rng-shuffled (hence reproducible) for the optional
    set.
    """
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(seed=int(seed))
    for operator in BASE_OPERATORS:
        spec = operator.apply(spec, rng)
    order = rng.permutation(len(OPTIONAL_OPERATORS))
    for index in order:
        operator = OPTIONAL_OPERATORS[int(index)]
        roll = rng.random()
        if roll < OPTIONAL_RATE and operator.can_apply(spec):
            spec = operator.apply(spec, rng)
    return spec
