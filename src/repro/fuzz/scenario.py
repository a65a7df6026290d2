"""Scenario specifications: the unit the fuzzer generates, runs, shrinks.

A :class:`ScenarioSpec` is a fully-serializable description of one
differential test case: which mission, what model architecture, how the
scenes look (grid size — including degenerate empty and one-cell grids —
densities, clutter, sensor noise), how the knowledge-graph extraction is
perturbed, how the frame stream evolves (births/deaths, per-frame grid
schedule, early death announcements), and the tracker/engine knobs.

Everything is derived deterministically from integers and floats held in
the spec, so the same spec always replays the same scenario — the
property the ``repro fuzz replay`` CLI and the committed seed corpus
stand on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.data.scenes import Scene, SceneConfig, SceneGenerator
from repro.stream.sequence import FrameState, SceneSequence, SequenceConfig

CASE_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Architecture of the model pair (float + quantized) under test."""

    dim: int = 32
    depth: int = 1
    num_heads: int = 2
    mlp_ratio: float = 2.0
    window: int = 16          # cell size == model input size
    patch_size: int = 8
    with_task_head: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if self.window % self.patch_size != 0:
            raise ValueError("window must be divisible by patch_size")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One composed fuzz scenario (see module docstring)."""

    seed: int = 0
    task: str = "roadside_hazards"
    model: ModelSpec = ModelSpec()

    # -- static differential workload -----------------------------------
    num_scenes: int = 2
    grid: int = 2
    object_density: float = 0.45
    distractor_density: float = 0.2
    clutter_density: float = 0.15
    noise_std: float = 0.02
    score_threshold: float = 0.35

    # -- knowledge-graph path --------------------------------------------
    use_kg: bool = True
    kg_omission: float = 0.0
    kg_hallucination: float = 0.0
    kg_weight_jitter: float = 0.0
    kg_seed: int = 0

    # -- streaming workload ------------------------------------------------
    num_frames: int = 4
    grid_schedule: Tuple[int, ...] = ()   # per-frame grids; () = uniform grid
    birth_rate: float = 0.06
    death_rate: float = 0.04
    early_deaths: bool = False  # announce deaths on the last visible frame
    smoothing: float = 0.6
    on_threshold: float = 0.4
    off_threshold: float = 0.25
    max_missed_frames: int = 3

    # -- incremental streaming ---------------------------------------------
    # ``delta_gate`` turns on frame-delta gating in the streaming
    # detector; ``motion_rate`` < 1 switches the sequence to incremental
    # rendering (static cells repeat bit-identical pixels);
    # ``motion_threshold``/``refresh_every`` are the tracker-prior
    # carryover knobs; ``num_cameras`` > 1 replays the scenario over
    # independent per-camera sequences.
    delta_gate: bool = False
    motion_rate: float = 1.0
    motion_threshold: float = 0.0
    refresh_every: int = 0
    num_cameras: int = 1

    # -- engine knobs ------------------------------------------------------
    engine_max_batch: int = 4
    engine_workers: int = 1

    # -- occlusion nuisance ------------------------------------------------
    # Each object cell is partially masked with probability
    # ``occlusion_rate`` (a band dimmed by ``occlusion_strength``);
    # ground truth is untouched — occlusion perturbs pixels only.
    occlusion_rate: float = 0.0
    occlusion_strength: float = 0.6

    # -- cascade routing knobs ---------------------------------------------
    cascade_margin: float = 0.15      # escalate below this margin
    cascade_fraction: float = 1.0     # escalation budget (>=1 unlimited)
    cascade_pinned: bool = False      # pin the mission to its specialist

    # provenance: operator names that composed this spec
    ops: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.num_scenes < 1 or self.num_frames < 1:
            raise ValueError("num_scenes and num_frames must be >= 1")
        if self.grid < 0 or any(g < 0 for g in self.grid_schedule):
            raise ValueError("grid sizes must be >= 0")
        if self.grid_schedule and len(self.grid_schedule) != self.num_frames:
            raise ValueError("grid_schedule length must equal num_frames")
        total = (self.object_density + self.distractor_density
                 + self.clutter_density)
        if total > 1.0 + 1e-9:
            raise ValueError(f"cell densities sum to {total} > 1")
        if not 0.0 <= self.off_threshold <= self.on_threshold <= 1.0:
            raise ValueError("need 0 <= off_threshold <= on_threshold <= 1")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        if not 0.0 <= self.occlusion_rate <= 1.0:
            raise ValueError("occlusion_rate must be in [0, 1]")
        if not 0.0 <= self.occlusion_strength <= 1.0:
            raise ValueError("occlusion_strength must be in [0, 1]")
        if self.cascade_margin < 0.0:
            raise ValueError("cascade_margin must be >= 0")
        if self.cascade_fraction < 0.0:
            raise ValueError("cascade_fraction must be >= 0")
        if not 0.0 <= self.motion_rate <= 1.0:
            raise ValueError("motion_rate must be in [0, 1]")
        if self.motion_threshold < 0.0:
            raise ValueError("motion_threshold must be >= 0")
        if self.refresh_every < 0:
            raise ValueError("refresh_every must be >= 0")
        if self.num_cameras < 1:
            raise ValueError("num_cameras must be >= 1")

    # ------------------------------------------------------------------
    @property
    def frame_grids(self) -> Tuple[int, ...]:
        """Per-frame grid sizes (the uniform default or the schedule)."""
        if self.grid_schedule:
            return self.grid_schedule
        return (self.grid,) * self.num_frames

    def scene_config(self, grid: int) -> SceneConfig:
        return SceneConfig(
            grid=grid, cell_size=self.model.window,
            object_density=self.object_density,
            distractor_density=self.distractor_density,
            clutter_density=self.clutter_density,
            noise_std=self.noise_std,
        )

    # -- workload materialization ----------------------------------------
    def build_scenes(self) -> List[Scene]:
        """The static differential workload: ``num_scenes`` seeded scenes."""
        generator = SceneGenerator(self.scene_config(self.grid),
                                   seed=self.seed * 7919 + 11)
        scenes = generator.generate_batch(self.num_scenes)
        if self.occlusion_rate > 0.0:
            rng = np.random.default_rng(self.seed * 104729 + 41)
            for scene in scenes:
                apply_occlusion(scene, rng, self.occlusion_rate,
                                self.occlusion_strength)
        return scenes

    def build_frames(self) -> List[FrameState]:
        """The streaming workload: ``num_frames`` ground-truthed frames.

        A uniform grid uses the temporal :class:`SceneSequence` (objects
        persist, birth/death dynamics apply).  A varying
        ``grid_schedule`` renders each frame independently — cells of a
        shrunken frame go *unobserved*, the scenario class that trips
        stale-track aging — with every previous frame's objects reported
        dead (nothing persists across independent frames).
        """
        return self.build_camera_frames(0)

    def build_camera_frames(self, camera: int = 0) -> List[FrameState]:
        """One camera's frames; camera 0 is :meth:`build_frames` exactly.

        Cameras are independent feeds of the same scenario: identical
        dynamics, disjoint seed streams.  Keeping camera 0 on the
        original seed derivation preserves every committed corpus
        case's replay bit-for-bit.
        """
        if not 0 <= camera < self.num_cameras:
            raise ValueError(f"camera must be in [0, {self.num_cameras})")
        offset = 7907 * camera
        grids = self.frame_grids
        if len(set(grids)) == 1:
            sequence = SceneSequence(
                SequenceConfig(scene=self.scene_config(grids[0]),
                               birth_rate=self.birth_rate,
                               death_rate=self.death_rate,
                               motion_rate=self.motion_rate),
                seed=self.seed * 6151 + 13 + offset)
            states = list(sequence.frames(self.num_frames))
        else:
            states = []
            next_id = 0
            previous_ids: List[int] = []
            for index, grid in enumerate(grids):
                scene = SceneGenerator(
                    self.scene_config(grid),
                    seed=self.seed * 6151 + 17 * index + 13 + offset,
                ).generate()
                ids = list(range(next_id, next_id + len(scene.objects)))
                next_id += len(scene.objects)
                states.append(FrameState(
                    index=index, scene=scene, object_ids=ids,
                    births=list(ids), deaths=previous_ids))
                previous_ids = ids
        if self.early_deaths:
            states = shift_deaths_early(states)
        if self.occlusion_rate > 0.0:
            rng = np.random.default_rng(self.seed * 104729 + 57 + offset)
            for state in states:
                apply_occlusion(state.scene, rng, self.occlusion_rate,
                                self.occlusion_strength)
        return states

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["grid_schedule"] = list(self.grid_schedule)
        payload["ops"] = list(self.ops)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        data = dict(payload)
        model = data.pop("model", {})
        data["model"] = ModelSpec(**model)
        data["grid_schedule"] = tuple(data.get("grid_schedule", ()))
        data["ops"] = tuple(data.get("ops", ()))
        return cls(**data)


def apply_occlusion(scene: Scene, rng: np.random.Generator,
                    rate: float, strength: float) -> None:
    """Partially mask object cells in place (pixels only, truth intact).

    Each object's cell is occluded with probability ``rate``: a
    horizontal band one third of the cell tall, at an rng-chosen offset,
    is dimmed by ``strength``.  The rng is consumed once per object
    (plus once per occluded cell for the offset), so a fixed generator
    makes the masking deterministic per scene regardless of outcome.
    """
    if rate <= 0.0 or strength <= 0.0:
        return
    size = scene.cell_size
    band = max(1, size // 3)
    for obj in scene.objects:
        if rng.random() >= rate:
            continue
        row, col = obj.cell
        y0 = row * size + int(rng.integers(0, size - band + 1))
        x0 = col * size
        scene.image[:, y0:y0 + band, x0:x0 + size] *= (1.0 - strength)


def shift_deaths_early(states: Sequence[FrameState]) -> List[FrameState]:
    """Announce each death one frame early (truncation semantics).

    A producer that reports an object's death on its *last visible*
    frame — instead of the frame it is first absent — is a legitimate
    upstream convention; ``evaluate_stream`` must not credit a detection
    that first lands on or after the announcement.
    """
    states = list(states)
    shifted: List[FrameState] = []
    for k, state in enumerate(states):
        deaths = list(states[k + 1].deaths) if k + 1 < len(states) else []
        if k == 0:
            # Frame 0's own deaths have nowhere earlier to go.
            deaths = list(state.deaths) + deaths
        shifted.append(FrameState(
            index=state.index, scene=state.scene,
            object_ids=list(state.object_ids),
            births=list(state.births), deaths=deaths))
    return shifted
