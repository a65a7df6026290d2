"""Streaming detector: temporal smoothing + hysteresis over frames.

Single-frame detections flicker: sensor noise makes a borderline window
cross the threshold one frame and miss the next.  The streaming detector
keeps an exponential moving average of the combined score per grid cell
and applies hysteresis — a track turns *on* above ``on_threshold`` and
only turns *off* below the lower ``off_threshold``.  Tracks carry stable
ids across frames.

Incremental detection (``TrackerConfig.delta_gate``) makes per-frame
cost scale with *scene change* instead of scene size: each cell's pixels
are fingerprinted (crc32 + byte length + pixel sum) and, when the
fingerprint matches the previous scoring of that cell, the cached raw
score is reused without a model forward or a matcher pass.  Identical
pixels through a deterministic model + matcher produce identical scores,
and both configurations' forwards are batch-invariant, so gated
EMA/hysteresis state is *bit-equal* to full recompute.  Which cells are re-scored never depends on
scores, so ``update_many`` gates a whole chunk first and scores its
changed cells in one forward.  Two staleness escapes are closed
explicitly: cached matcher results are keyed on the knowledge graph's
``version`` (a KG edit invalidates every cached cell), and
``refresh_every`` forces a periodic full re-score.  The optional
``motion_threshold`` adds *tracker-prior carryover*: a cell whose pixels
moved, but by less than the threshold, keeps its cached score as long as
it holds an active track — approximate by design, with drift bounded by
``refresh_every``.
"""

from __future__ import annotations

import dataclasses
import zlib
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenes import Scene
from repro.detect.pipeline import ModelLike, score_windows
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


def _window_fingerprint(window: np.ndarray) -> Tuple[int, int, float]:
    """Cheap order-sensitive fingerprint of one cell's pixels.

    crc32 over the raw bytes, the byte length, and the float pixel sum.
    Two windows with equal fingerprints are treated as identical; a
    simultaneous crc32 *and* sum collision on same-length buffers is the
    only way a changed cell could slip through, and ``refresh_every``
    bounds even that astronomically unlikely case.
    """
    buffer = np.ascontiguousarray(window)
    return zlib.crc32(buffer.tobytes()), buffer.nbytes, float(buffer.sum())


@dataclasses.dataclass
class _CellCache:
    """Last computed raw score for one cell (the delta-gate reuse unit).

    ``score`` keeps the numpy scalar exactly as the scoring pass
    produced it — converting to a python float would change the dtype
    the EMA arithmetic sees and break bit-equality with full recompute.
    ``window`` (reference pixels for the carryover delta) is retained
    only when ``motion_threshold`` is active.
    """

    fingerprint: Tuple[int, int, float]
    score: Any
    kg_version: int
    window: Optional[np.ndarray] = None


class StreamingDetector:
    """Stateful per-cell detector over a frame stream."""

    def __init__(self, model: ModelLike, matcher: Optional[GraphMatcher],
                 config: TrackerConfig = TrackerConfig(),
                 batch_size: int = 64) -> None:
        self.model = model
        self.matcher = matcher
        self.config = config
        self.batch_size = batch_size
        self._ema: Dict[Tuple[int, int], float] = {}
        self._tracks: Dict[Tuple[int, int], Track] = {}
        self._history: List[Track] = []
        self._next_track_id = 0
        self._frame = -1
        self._score_cache: Dict[Tuple[int, int], _CellCache] = {}
        self.gate_stats = GateStats()

    # ------------------------------------------------------------------
    @classmethod
    def from_session(cls, session: "MissionSession",
                     config: TrackerConfig = TrackerConfig(),
                     batch_size: int = 64) -> "StreamingDetector":
        """Build a tracker on a prepared mission session's model + matcher."""
        detector = session.detector
        return cls(detector.model, detector.matcher, config=config,
                   batch_size=batch_size)

    # ------------------------------------------------------------------
    @staticmethod
    def _cells_and_windows(scene: Scene
                           ) -> Tuple[List[Tuple[int, int]], Sequence[np.ndarray]]:
        """A scene's cells and their pixel windows, in scan order.

        One stacked copy makes every window contiguous, which is cheaper
        than fingerprinting strided views; a zero-cell frame (degenerate
        grid) has nothing to stack.
        """
        cells, windows = [], []
        for row, col, _bbox, window in scene.iter_cells():
            cells.append((row, col))
            windows.append(window)
        return cells, np.stack(windows) if windows else windows

    def _matcher_version(self) -> int:
        """KG edit counter the cached matcher results are keyed on."""
        return self.matcher.kg.version if self.matcher is not None else -1

    def _score_chunk(self, scenes: Sequence[Scene]
                     ) -> List[Dict[Tuple[int, int], Any]]:
        """Raw ``{cell: score}`` maps for consecutive frames, in scene
        cell order (track birth order depends on it), from one fused
        :func:`score_windows` call.

        Ungated, every cell is scored.  Gated (see module docstring),
        each frame's cells are fingerprinted in order against a
        chunk-local *view* of the cache: a cell's ``_CellCache`` entry,
        or the entry an earlier frame of the chunk queued.  Which cells
        are queued depends on fingerprints, the KG version and the frame
        index, never on scores, so the whole chunk scores at once and
        the last entry per cell is written back.  Carryover reads track
        state, so callers pass it one frame at a time.  Reused cells
        still count as *observed* in :meth:`_advance` — reuse replaces
        the forward, never the observation.
        """
        cfg = self.config
        gated = cfg.delta_gate
        keep_pixels = gated and cfg.motion_threshold > 0.0
        kg_version = self._matcher_version()
        frames = [self._cells_and_windows(scene) for scene in scenes]
        view: Dict[Tuple[int, int], _CellCache] = {}
        queued: List[Tuple[_CellCache, np.ndarray]] = []
        per_frame: List[List[_CellCache]] = []
        counts: List[Tuple[int, int, int]] = []  # cells, recomputed, carried
        registry = get_registry()
        with registry.span("stream.gate") if gated else nullcontext():
            for offset, (cells, windows) in enumerate(frames):
                frame = self._frame + 1 + offset  # the index _advance stamps
                # Ungated, every cell is re-scored (and nothing cached).
                refresh = not gated or (cfg.refresh_every > 0
                                        and frame % cfg.refresh_every == 0)
                entries: List[_CellCache] = []
                before, carried = len(queued), 0
                for cell, window in zip(cells, windows):
                    fingerprint = _window_fingerprint(window) if gated else None
                    entry = (None if refresh else
                             view.get(cell) or self._score_cache.get(cell))
                    if entry is not None and entry.kg_version == kg_version:
                        if entry.fingerprint == fingerprint:
                            entries.append(entry)
                            continue
                        if self._carries(entry, cell, window):
                            carried += 1
                            entries.append(entry)
                            continue
                    entry = _CellCache(fingerprint, None, kg_version,
                                       np.array(window) if keep_pixels else None)
                    queued.append((entry, window))
                    entries.append(entry)
                    if gated:
                        view[cell] = entry
                per_frame.append(entries)
                counts.append((len(cells), len(queued) - before, carried))
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
        if queued:
            fresh = score_windows(self.model,
                                  np.stack([window for _, window in queued]),
                                  self.matcher, batch_size=self.batch_size)
            for (entry, _), score in zip(queued, fresh):
                entry.score = score
        self._score_cache.update(view)
        return [{cell: entry.score for cell, entry in zip(cells, entries)}
                for (cells, _), entries in zip(frames, per_frame)]

    def _carries(self, entry: _CellCache, cell: Tuple[int, int],
                 window: np.ndarray) -> bool:
        """Tracker-prior carryover: sub-threshold motion on a confirmed
        track keeps the cached score alive.  The reference pixels stay
        at the last *computed* frame, so drift is bounded by
        refresh_every, not unbounded by a random walk of tiny deltas."""
        threshold = self.config.motion_threshold
        track = self._tracks.get(cell)
        return (threshold > 0.0 and entry.window is not None
                and track is not None and track.active
                and float(np.abs(window - entry.window).mean()) <= threshold)

    # ------------------------------------------------------------------
    def update(self, scene: Scene) -> List[Track]:
        """Process one frame; returns the currently active tracks."""
        with get_registry().span("stream.update"):
            return self._advance(self._score_chunk([scene])[0])

    def update_many(self, scenes: Sequence[Scene]) -> List[List[Track]]:
        """Process a chunk of frames with one fused model forward.

        The chunk's scored windows (all of them ungated, the changed
        cells gated) go through one batched :func:`score_windows` call;
        EMA + hysteresis then advance frame by frame, exactly as — and
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
        self._score_cache.clear()
        self.gate_stats = GateStats()
