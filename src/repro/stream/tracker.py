"""Streaming detector: temporal smoothing + hysteresis over frames.

Single-frame detections flicker: sensor noise makes a borderline window
cross the threshold one frame and miss the next.  The streaming detector
keeps an exponential moving average of the combined score per grid cell
and applies hysteresis — a track turns *on* above ``on_threshold`` and
only turns *off* below the lower ``off_threshold``.  Tracks carry stable
ids across frames.

Incremental detection (``TrackerConfig.delta_gate``) makes per-frame
cost scale with *scene change* instead of scene size.  The detector
keeps reference pixels: each cell's pixels when it was last scored.
Each frame's cells come from one tile copy
(:func:`~repro.detect.pipeline.tile_windows`), and one vectorized
byte comparison against the reference finds the changed cells.  Only
those go through the model forward and the matcher; the rest reuse
their cached raw score.  A cell is re-scored exactly when its bytes
changed.  Identical pixels through a deterministic model + matcher
produce identical scores, and both configurations' forwards are
batch-invariant, so gated EMA/hysteresis state is *bit-equal* to full
recompute.  Which cells are re-scored never depends on scores, so
``update_many`` gates a whole chunk first and scores its changed cells
in one forward.

The cache holds one frame layout (cells, window shape, dtype) and one
knowledge-graph ``version``: a layout change or a KG edit re-scores
every cell of the frame, and ``refresh_every`` forces a periodic full
re-score.  A zero-cell frame leaves the cache as it is.  The optional
``motion_threshold`` adds *tracker-prior carryover*: a cell whose
pixels moved, but by less than the threshold (mean absolute delta from
the reference), keeps its cached score as long as it holds an active
track — approximate by design, with drift bounded by
``refresh_every``.
"""

from __future__ import annotations

import dataclasses
import itertools
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenes import Scene
from repro.detect.pipeline import (
    ModelLike,
    score_windows,
    tile_windows,
)
from repro.kg.matcher import GraphMatcher
from repro.obs import get_registry

if TYPE_CHECKING:
    from repro.serve.session import MissionSession


@dataclasses.dataclass(frozen=True)
class TrackerConfig:
    smoothing: float = 0.6        # EMA weight on the previous score
    on_threshold: float = 0.4
    off_threshold: float = 0.25
    max_missed_frames: int = 3    # drop a track after this many off frames
    delta_gate: bool = False      # reuse cached scores for unchanged cells
    motion_threshold: float = 0.0  # carryover: mean-abs delta counted as static
    refresh_every: int = 0        # force a full re-score every N frames (0=off)

    def __post_init__(self) -> None:
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        if not 0.0 <= self.off_threshold <= self.on_threshold <= 1.0:
            raise ValueError("need 0 <= off_threshold <= on_threshold <= 1")
        if self.motion_threshold < 0.0:
            raise ValueError("motion_threshold must be >= 0")
        if self.refresh_every < 0:
            raise ValueError("refresh_every must be >= 0")


@dataclasses.dataclass
class Track:
    """A task-relevant object persisted across frames."""

    track_id: int
    cell: Tuple[int, int]
    first_frame: int
    last_frame: int
    score: float
    active: bool = True
    missed: int = 0


@dataclasses.dataclass
class GateStats:
    """One detector's running view of delta-gate effectiveness."""

    frames: int = 0       # gated frames processed
    skipped: int = 0      # cells reused from cache (incl. carried)
    recomputed: int = 0   # cells sent through the model forward
    carried: int = 0      # reuses granted by tracker-prior carryover

    @property
    def hit_rate(self) -> float:
        total = self.skipped + self.recomputed
        return self.skipped / total if total else 0.0


def _words(windows: np.ndarray) -> np.ndarray:
    """``(cells, C, S, S)`` windows as rows of raw ``uint32`` words, so
    two windows compare equal exactly when their bytes do."""
    return windows.reshape(len(windows), -1).view(np.uint32)


class StreamingDetector:
    """Stateful per-cell detector over a frame stream."""

    def __init__(self, model: ModelLike, matcher: Optional[GraphMatcher],
                 config: TrackerConfig = TrackerConfig()) -> None:
        self.model = model
        self.matcher = matcher
        self.config = config
        self._ema: Dict[Tuple[int, int], float] = {}
        self._tracks: Dict[Tuple[int, int], Track] = {}
        self._history: List[Track] = []
        self._next_track_id = 0
        self._frame = -1
        # The delta gate's cache, valid for one layout and KG version
        # (``_layout``): each cell's pixels when it was last scored and
        # that score, kept as the numpy scalar type the forward produced
        # (a python float would change the dtype the EMA arithmetic sees
        # and break bit-equality with full recompute).
        self._layout: Optional[Tuple[Any, ...]] = None
        self._reference: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None
        self.gate_stats = GateStats()

    # ------------------------------------------------------------------
    @classmethod
    def from_session(cls, session: "MissionSession",
                     config: TrackerConfig = TrackerConfig()
                     ) -> "StreamingDetector":
        """Build a tracker on a prepared mission session's model + matcher."""
        detector = session.detector
        return cls(detector.model, detector.matcher, config=config)

    # ------------------------------------------------------------------
    @staticmethod
    def _cells_and_windows(scene: Scene
                           ) -> Tuple[List[Tuple[int, int]], np.ndarray]:
        """A scene's ``scene.grid`` cells in row-major order (track birth
        order depends on it) and their windows as one ``(cells, C, S, S)``
        tile copy; a zero-cell frame yields zero rows."""
        grid = scene.grid
        return ([(row, col) for row in range(grid) for col in range(grid)],
                tile_windows([scene.image], grid, scene.cell_size))

    def _matcher_version(self) -> int:
        """KG edit counter the cached matcher results are keyed on."""
        return self.matcher.kg.version if self.matcher is not None else -1

    def _score_chunk(self, scenes: Sequence[Scene]
                     ) -> List[Dict[Tuple[int, int], Any]]:
        """Raw ``{cell: score}`` maps for consecutive frames, in scene
        cell order, from one fused :func:`score_windows` call (one per
        run of frames that share a layout).

        Ungated, every cell is scored.  Gated (see module docstring),
        each frame's tiles are compared with the reference pixels and
        only the changed cells are queued; the reference takes their
        pixels in place.  Which cells are queued depends on pixels, the
        KG version and the frame index, never on scores, so the whole
        chunk is gated first and scored in one forward.  Every frame
        maps its cells to slots of one score pool: the cached scores,
        then the chunk's fresh ones in queue order.  Carryover reads
        track state, so callers pass it one frame at a time.  Reused
        cells still count as *observed* in :meth:`_advance` — reuse
        replaces the forward, never the observation.
        """
        cfg = self.config
        gated = cfg.delta_gate
        kg_version = self._matcher_version()
        frames = [self._cells_and_windows(scene) for scene in scenes]
        # The cache is invalid until this chunk's forward has landed, so
        # a forward that raises leaves no reference without its score.
        layout, self._layout = self._layout, None
        cached = self._scores if gated and layout is not None else None
        pool_size = 0 if cached is None else len(cached)
        slots = np.arange(pool_size)  # the current layout's cells -> pool
        queued: List[np.ndarray] = []
        frame_slots: List[np.ndarray] = []
        counts: List[Tuple[int, int, int]] = []  # cells, recomputed, carried
        registry = get_registry()
        with registry.span("stream.gate") if gated else nullcontext():
            for offset, (cells, windows) in enumerate(frames):
                if not cells:  # nothing to score; the cache stays as it is
                    frame_slots.append(slots[:0])
                    counts.append((0, 0, 0))
                    continue
                frame = self._frame + 1 + offset  # the index _advance stamps
                key = (windows.shape, windows.dtype, kg_version)
                refresh = (cfg.refresh_every > 0
                           and frame % cfg.refresh_every == 0)
                changed, carried = None, 0  # None: every cell
                if gated and key == layout and not refresh:
                    changed = np.flatnonzero(
                        (_words(windows) != _words(self._reference)).any(axis=1))
                    if cfg.motion_threshold > 0.0 and changed.size:
                        kept = [i for i in changed
                                if not self._carries(cells[i], windows[i],
                                                     self._reference[i])]
                        carried = changed.size - len(kept)
                        changed = np.array(kept, dtype=np.intp)
                    if changed.size == len(cells):
                        changed = None
                if changed is None:
                    if gated and key == layout:
                        self._reference[...] = windows
                    elif gated:  # a fresh cache for the new layout
                        layout, self._reference = key, windows.copy()
                    queued.append(windows)
                    slots = np.arange(pool_size, pool_size + len(cells))
                    pool_size += len(cells)
                elif changed.size:
                    fresh = windows[changed]
                    self._reference[changed] = fresh
                    queued.append(fresh)
                    slots = slots.copy()
                    slots[changed] = np.arange(pool_size,
                                               pool_size + changed.size)
                    pool_size += changed.size
                frame_slots.append(slots)
                recomputed = len(cells) if changed is None else changed.size
                counts.append((len(cells), recomputed, carried))
        for total, recomputed, carried in counts if gated else ():
            reused = total - recomputed
            self.gate_stats.frames += 1
            self.gate_stats.skipped += reused
            self.gate_stats.recomputed += recomputed
            self.gate_stats.carried += carried
            registry.count("stream.cells.skipped", reused)
            registry.count("stream.cells.recomputed", recomputed)
            if total:
                registry.observe("stream.delta_gate.hit_rate", reused / total)
        parts = [] if cached is None else [cached]
        for _, run in itertools.groupby(
                queued, key=lambda windows: (windows.shape[1:], windows.dtype)):
            run = list(run)
            windows = run[0] if len(run) == 1 else np.concatenate(run)
            parts.append(score_windows(self.model, windows, self.matcher))
        pool = (np.concatenate(parts) if len(parts) > 1
                else parts[0] if parts else np.empty(0))
        if gated and layout is not None:
            self._scores = pool[slots]
            self._layout = layout
        return [dict(zip(cells, pool[cell_slots]))
                for (cells, _), cell_slots in zip(frames, frame_slots)]

    def _carries(self, cell: Tuple[int, int], window: np.ndarray,
                 reference: np.ndarray) -> bool:
        """Tracker-prior carryover: sub-threshold motion on a confirmed
        track keeps the cached score alive.  The reference pixels stay
        at the last *scored* frame, so drift is bounded by
        refresh_every, not unbounded by a random walk of tiny deltas."""
        track = self._tracks.get(cell)
        return (track is not None and track.active
                and float(np.abs(window - reference).mean())
                <= self.config.motion_threshold)

    # ------------------------------------------------------------------
    def update(self, scene: Scene) -> List[Track]:
        """Process one frame; returns the currently active tracks."""
        with get_registry().span("stream.update"):
            return self._advance(self._score_chunk([scene])[0])

    def update_many(self, scenes: Sequence[Scene]) -> List[List[Track]]:
        """Process a chunk of frames with one fused model forward.

        The chunk's scored windows (all of them ungated, the changed
        cells gated) go through one batched :func:`score_windows` call,
        one per run of frames that share a layout; EMA + hysteresis
        then advance frame by frame, exactly as — and
        with the same :class:`GateStats` as — repeated :meth:`update`
        calls.  Carryover (``motion_threshold > 0``) reads the track
        state the previous frame left, so that mode scores one frame at
        a time.  Returns each frame's active-track snapshot.
        """
        scenes = list(scenes)
        if self.config.delta_gate and self.config.motion_threshold > 0.0:
            chunks = [[scene] for scene in scenes]
        else:
            chunks = [scenes]
        # Deep-copy each snapshot: tracks are mutable and advance in
        # place on later frames, so sharing the Track objects would
        # silently rewrite frame 0's scores to frame k's.
        return [[dataclasses.replace(t) for t in self._advance(raw)]
                for chunk in chunks for raw in self._score_chunk(chunk)]

    def _advance(self, raw: Dict[Tuple[int, int], float]) -> List[Track]:
        """Advance one frame of EMA + hysteresis from raw cell scores.

        Cells absent from ``raw`` (shrinking grids, degenerate frames,
        gated windows) are *unobserved*: their EMA decays toward zero —
        an unobserved cell is evidence of nothing, not of persistence —
        their tracks count the frame as missed, and stale smoothed
        scores never give birth to new tracks.
        """
        self._frame += 1
        cfg = self.config
        for cell, score in raw.items():
            previous = self._ema.get(cell, score)
            self._ema[cell] = cfg.smoothing * previous + (1 - cfg.smoothing) * float(score)
        for cell in self._ema:
            if cell not in raw:
                # EMA update with an implicit zero observation.
                self._ema[cell] *= cfg.smoothing

        for cell, smoothed in self._ema.items():
            observed = cell in raw
            track = self._tracks.get(cell)
            if track is None or not track.active:
                if observed and smoothed >= cfg.on_threshold:
                    track = Track(track_id=self._next_track_id, cell=cell,
                                  first_frame=self._frame,
                                  last_frame=self._frame, score=smoothed)
                    self._next_track_id += 1
                    self._tracks[cell] = track
                    self._history.append(track)
                continue
            # active track: hysteresis
            track.score = smoothed
            if observed and smoothed >= cfg.off_threshold:
                track.last_frame = self._frame
                track.missed = 0
            else:
                track.missed += 1
                if track.missed > cfg.max_missed_frames:
                    track.active = False
        return self.active_tracks()

    def active_tracks(self) -> List[Track]:
        return [t for t in self._tracks.values() if t.active]

    @property
    def all_tracks(self) -> List[Track]:
        return list(self._history)

    def reset(self) -> None:
        self._ema.clear()
        self._tracks.clear()
        self._history.clear()
        self._next_track_id = 0
        self._frame = -1
        self._layout = self._reference = self._scores = None
        self.gate_stats = GateStats()
