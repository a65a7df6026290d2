"""Temporal scene sequences.

A :class:`SceneSequence` evolves a population of objects over a grid:
each frame, surviving objects are re-rendered in place with appearance
jitter (sensor noise, sub-pixel shift, brightness), objects die with a
small probability, and new objects are born into free cells.  Ground
truth per frame is the same :class:`~repro.data.ObjectInstance` record
the static pipeline uses, so all detection metrics carry over.
:class:`ScriptedSequence` replays stored frames behind the same
``frames(count)`` API.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.ontology import (
    AttributeProfile,
    category_of_profile,
    profile_for_category,
    sample_profile,
)
from repro.data.rendering import render_background, render_object
from repro.data.scenes import ObjectInstance, Scene, SceneConfig


@dataclasses.dataclass(frozen=True)
class SequenceConfig:
    """Temporal dynamics on top of a spatial :class:`SceneConfig`.

    ``motion_rate`` is the fraction of live objects re-rendered (with
    fresh appearance jitter) each frame.  At the default ``1.0`` every
    frame re-renders everything — full sensor jitter, the historical
    behavior.  Below ``1.0`` the sequence switches to incremental
    rendering: the background is frozen and unchanged cells repeat
    *bit-identical* pixels across frames — the surveillance-style
    workload the streaming delta gate exploits.
    """

    scene: SceneConfig = SceneConfig()
    birth_rate: float = 0.06      # per free cell, per frame
    death_rate: float = 0.04      # per live object, per frame
    distractor_fraction: float = 0.25  # of births
    motion_rate: float = 1.0      # per live object, per frame

    def __post_init__(self) -> None:
        for name in ("birth_rate", "death_rate", "distractor_fraction",
                     "motion_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclasses.dataclass
class _LiveObject:
    profile: AttributeProfile
    cell: Tuple[int, int]
    born_frame: int
    object_id: int


@dataclasses.dataclass
class FrameState:
    """One rendered frame plus its ground truth."""

    index: int
    scene: Scene
    object_ids: List[int]          # aligned with scene.objects
    births: List[int]              # object ids that appeared this frame
    deaths: List[int]              # object ids that vanished this frame


class SceneSequence:
    """Iterator over frames of an evolving scene."""

    def __init__(self, config: SequenceConfig = SequenceConfig(),
                 seed: int = 0) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._live: Dict[Tuple[int, int], _LiveObject] = {}
        self._next_id = 0
        self._frame = 0
        # incremental-rendering state (motion_rate < 1.0 only)
        self._background: Optional[np.ndarray] = None
        self._windows: Dict[Tuple[int, int], np.ndarray] = {}
        self._populate_initial()

    # ------------------------------------------------------------------
    def _all_cells(self) -> List[Tuple[int, int]]:
        grid = self.config.scene.grid
        return [(r, c) for r in range(grid) for c in range(grid)]

    def _spawn(self, cell: Tuple[int, int]) -> _LiveObject:
        rng = self._rng
        if rng.random() < self.config.distractor_fraction:
            profile = sample_profile(rng)
        else:
            from repro.data.ontology import category_names

            names = category_names()
            profile = profile_for_category(
                names[int(rng.integers(len(names)))], rng)
        obj = _LiveObject(profile=profile, cell=cell,
                          born_frame=self._frame, object_id=self._next_id)
        self._next_id += 1
        return obj

    def _populate_initial(self) -> None:
        density = self.config.scene.object_density + self.config.scene.distractor_density
        for cell in self._all_cells():
            if self._rng.random() < density:
                self._live[cell] = self._spawn(cell)

    # ------------------------------------------------------------------
    def step(self) -> FrameState:
        """Advance one frame: deaths, births, render."""
        rng = self._rng
        cfg = self.config
        deaths: List[int] = []
        for cell in list(self._live):
            if rng.random() < cfg.death_rate:
                deaths.append(self._live.pop(cell).object_id)
                # the vacated cell falls back to the frozen background;
                # a later birth must render fresh pixels, not the old
                # occupant's cached ones
                self._windows.pop(cell, None)
        births: List[int] = []
        for cell in self._all_cells():
            if cell not in self._live and rng.random() < cfg.birth_rate:
                obj = self._spawn(cell)
                self._live[cell] = obj
                births.append(obj.object_id)

        scene = self._render()
        state = FrameState(
            index=self._frame,
            scene=scene,
            object_ids=[self._live[obj.cell].object_id for obj in scene.objects],
            births=births,
            deaths=deaths,
        )
        self._frame += 1
        return state

    def _render(self) -> Scene:
        if self.config.motion_rate >= 1.0:
            return self._render_full()
        return self._render_incremental()

    def _render_incremental(self) -> Scene:
        """Re-render only moving objects; static cells repeat exact pixels.

        The background is rendered once and frozen.  Each live object's
        composited window is cached; it is re-rendered (fresh jitter)
        only when newly born or when the per-frame motion roll fires
        with probability ``motion_rate``.  Everything else — empty
        cells, static objects — is bit-identical frame over frame, so the
        streaming tracker's byte-exact delta gate genuinely hits.
        """
        scfg = self.config.scene
        cell = scfg.cell_size
        if self._background is None:
            self._background = render_background(
                self._rng, size=scfg.image_size, noise_std=scfg.noise_std)
        image = self._background.copy()
        objects: List[ObjectInstance] = []
        for (row, col), live in sorted(self._live.items()):
            x0, y0 = col * cell, row * cell
            window = self._windows.get((row, col))
            if window is None or self._rng.random() < self.config.motion_rate:
                background = self._background[:, y0:y0 + cell, x0:x0 + cell]
                window = render_object(
                    live.profile, rng=self._rng, size=cell,
                    background=background, noise_std=scfg.noise_std)
                self._windows[(row, col)] = window
            image[:, y0:y0 + cell, x0:x0 + cell] = window
            objects.append(ObjectInstance(
                profile=live.profile,
                bbox=(x0, y0, x0 + cell, y0 + cell),
                category=category_of_profile(live.profile),
                cell=(row, col)))
        return Scene(image=image, objects=objects, grid=scfg.grid,
                     cell_size=scfg.cell_size)

    def _render_full(self) -> Scene:
        scfg = self.config.scene
        size = scfg.image_size
        image = render_background(self._rng, size=size, noise_std=scfg.noise_std)
        objects: List[ObjectInstance] = []
        for (row, col), live in sorted(self._live.items()):
            x0, y0 = col * scfg.cell_size, row * scfg.cell_size
            bbox = (x0, y0, x0 + scfg.cell_size, y0 + scfg.cell_size)
            background = image[:, y0:y0 + scfg.cell_size, x0:x0 + scfg.cell_size]
            window = render_object(
                live.profile, rng=self._rng, size=scfg.cell_size,
                background=background, noise_std=scfg.noise_std,
            )
            image[:, y0:y0 + scfg.cell_size, x0:x0 + scfg.cell_size] = window
            objects.append(ObjectInstance(
                profile=live.profile, bbox=bbox,
                category=category_of_profile(live.profile), cell=(row, col),
            ))
        return Scene(image=image, objects=objects, grid=scfg.grid,
                     cell_size=scfg.cell_size)

    def frames(self, count: int) -> Iterator[FrameState]:
        for _ in range(count):
            yield self.step()


class ScriptedSequence:
    """A pre-materialized frame list behind the ``SceneSequence`` API.

    ``evaluate_stream`` only needs ``.frames(count)``.  Replaying stored
    states lets a benchmark score the frames it already timed, and lets
    the fuzzer (and regression tests) drive metrics with adversarial
    birth/death timing that the organic generator would never produce.
    """

    def __init__(self, states: Sequence[FrameState]) -> None:
        self._states = list(states)

    def frames(self, count: int) -> Iterator[FrameState]:
        yield from self._states[:count]

    def __len__(self) -> int:
        return len(self._states)
