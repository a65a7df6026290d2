"""Multi-camera streaming benchmark core.

Shared by ``benchmarks/bench_e14_stream.py`` and the ``repro stream``
CLI family: materialize N camera sequences at a configurable motion
density, drive a full-recompute pass and a delta-gated pass (optionally
also a gated ``update_many`` replay) over the same frames, and report
frames/sec, gate hit rates, track bit-identity against the
full-recompute oracle, and MOTA-style quality deltas from
:mod:`repro.stream.metrics`.

The identity check is the benchmark's correctness gate: with exact
gating (``motion_threshold == 0``) on the quantized configuration the
gated pass must reproduce the full-recompute tracks *bit for bit* —
faster-but-different is a failed run, not a tradeoff.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.data.scenes import SceneConfig
from repro.data.tasks import TaskDefinition
from repro.obs import get_registry
from repro.stream.metrics import evaluate_stream, metrics_delta
from repro.stream.sequence import FrameState, SceneSequence, SequenceConfig
from repro.stream.tracker import StreamingDetector, Track, TrackerConfig

#: Float GEMM tiling varies with batch shape; gated passes over a float
#: model agree with full recompute to ulps, not bitwise.
SCORE_ATOL = 1e-5

#: Per-camera seed stride (any constant works; primes read well).
CAMERA_SEED_STRIDE = 7907


def materialize_cameras(
    num_cameras: int,
    num_frames: int,
    scene: SceneConfig,
    *,
    motion_rate: float = 0.05,
    birth_rate: float = 0.02,
    death_rate: float = 0.01,
    seed: int = 0,
) -> List[List[FrameState]]:
    """N independent camera feeds, pre-rendered so timing excludes rendering."""
    cameras: List[List[FrameState]] = []
    for camera in range(num_cameras):
        sequence = SceneSequence(
            SequenceConfig(scene=scene, birth_rate=birth_rate,
                           death_rate=death_rate, motion_rate=motion_rate),
            seed=seed + CAMERA_SEED_STRIDE * camera)
        cameras.append(list(sequence.frames(num_frames)))
    return cameras


class _ScriptedFrames:
    """Pre-materialized frames behind the ``SceneSequence.frames`` API."""

    def __init__(self, states: Sequence[FrameState]) -> None:
        self._states = list(states)

    def frames(self, count: int) -> Iterator[FrameState]:
        yield from self._states[:count]


def run_pass(
    model: Any,
    matcher: Any,
    config: TrackerConfig,
    cameras: Sequence[Sequence[FrameState]],
    batch_size: int = 64,
    chunk: int = 0,
) -> Tuple[List[List[List[Track]]], float, List[StreamingDetector]]:
    """One timed sweep: every camera's frames through its own detector.

    Frame by frame through ``update``, or with ``chunk > 0`` through
    ``update_many`` in ``chunk``-frame chunks (the replay path).
    Returns ``(per-camera per-frame track snapshots, elapsed seconds,
    detectors)`` — the detectors expose ``gate_stats`` afterwards.
    """
    detectors = [StreamingDetector(model, matcher, config=config,
                                   batch_size=batch_size)
                 for _ in cameras]
    snapshots: List[List[List[Track]]] = []
    start = perf_counter()
    for detector, states in zip(detectors, cameras):
        scenes = [state.scene for state in states]
        if chunk > 0:
            snapshots.append([snapshot
                              for start in range(0, len(scenes), chunk)
                              for snapshot in detector.update_many(
                                  scenes[start:start + chunk])])
        else:
            snapshots.append([[dataclasses.replace(t)
                               for t in detector.update(scene)]
                              for scene in scenes])
    elapsed = perf_counter() - start
    return snapshots, elapsed, detectors


def compare_snapshots(
    reference: Sequence[Sequence[Sequence[Track]]],
    candidate: Sequence[Sequence[Sequence[Track]]],
    exact_scores: bool = True,
    atol: float = SCORE_ATOL,
) -> Optional[str]:
    """First mismatch between two per-camera snapshot sets, or ``None``.

    Structural fields (ids, cells, lifecycle frames, missed counts) must
    always match exactly; scores bitwise under ``exact_scores`` (the
    quantized guarantee) and within ``atol`` otherwise.
    """
    fields = ("track_id", "cell", "first_frame", "last_frame", "active",
              "missed")
    if len(reference) != len(candidate):
        return f"camera count {len(reference)} != {len(candidate)}"
    for cam, (ref_cam, cand_cam) in enumerate(zip(reference, candidate)):
        if len(ref_cam) != len(cand_cam):
            return f"camera {cam}: frame count differs"
        for frame, (ref, cand) in enumerate(zip(ref_cam, cand_cam)):
            ref_sorted = sorted(ref, key=lambda t: t.track_id)
            cand_sorted = sorted(cand, key=lambda t: t.track_id)
            if len(ref_sorted) != len(cand_sorted):
                return (f"camera {cam} frame {frame}: "
                        f"{len(ref_sorted)} vs {len(cand_sorted)} tracks")
            for r, c in zip(ref_sorted, cand_sorted):
                for field in fields:
                    if getattr(r, field) != getattr(c, field):
                        return (f"camera {cam} frame {frame} track "
                                f"{r.track_id}: {field} "
                                f"{getattr(r, field)!r} != "
                                f"{getattr(c, field)!r}")
                if exact_scores:
                    ok = r.score == c.score
                else:
                    ok = abs(float(r.score) - float(c.score)) <= atol
                if not ok:
                    return (f"camera {cam} frame {frame} track "
                            f"{r.track_id}: score {r.score!r} != "
                            f"{c.score!r}")
    return None


def run_stream_bench(
    model: Any,
    matcher: Any,
    task: TaskDefinition,
    *,
    num_cameras: int = 2,
    num_frames: int = 20,
    grid: int = 6,
    cell_size: int = 32,
    motion_rate: float = 0.05,
    object_density: float = 0.4,
    distractor_density: float = 0.15,
    noise_std: float = 0.02,
    birth_rate: float = 0.02,
    death_rate: float = 0.01,
    tracker: TrackerConfig = TrackerConfig(),
    gate: Optional[TrackerConfig] = None,
    seed: int = 0,
    exact_scores: bool = True,
    batch_size: int = 64,
    replay_chunk: int = 0,
) -> Dict[str, Any]:
    """Full-recompute vs delta-gated sweep over one motion density.

    ``tracker`` carries the EMA/hysteresis knobs; the full pass runs it
    with ``delta_gate=False`` and the gated pass with ``delta_gate=True``
    (or ``gate`` verbatim when provided, e.g. to benchmark carryover).
    Returns one row of results; ``identical``/``mismatch`` report the
    oracle comparison under ``exact_scores``.  ``replay_chunk > 0`` adds
    a gated ``update_many`` pass in chunks of that many frames
    (``replay_*`` keys, same oracle), run with the registry off so the
    stage shares stay the per-frame path's.
    """
    scene = SceneConfig(grid=grid, cell_size=cell_size,
                        object_density=object_density,
                        distractor_density=distractor_density,
                        clutter_density=0.0, noise_std=noise_std)
    cameras = materialize_cameras(
        num_cameras, num_frames, scene, motion_rate=motion_rate,
        birth_rate=birth_rate, death_rate=death_rate, seed=seed)

    full_config = dataclasses.replace(tracker, delta_gate=False)
    gated_config = (gate if gate is not None
                    else dataclasses.replace(tracker, delta_gate=True))

    full_snaps, full_s, _ = run_pass(model, matcher, full_config, cameras,
                                     batch_size=batch_size)
    gated_snaps, gated_s, gated_detectors = run_pass(
        model, matcher, gated_config, cameras, batch_size=batch_size)

    exact_gate = gated_config.motion_threshold == 0.0
    mismatch = compare_snapshots(full_snaps, gated_snaps,
                                 exact_scores=exact_scores and exact_gate)
    replay: Dict[str, Any] = {}
    if replay_chunk > 0:
        registry = get_registry()
        enabled, registry.enabled = registry.enabled, False
        try:
            replay_snaps, replay_s, _ = run_pass(
                model, matcher, gated_config, cameras,
                batch_size=batch_size, chunk=replay_chunk)
        finally:
            registry.enabled = enabled
        replay_mismatch = compare_snapshots(
            full_snaps, replay_snaps, exact_scores=exact_scores and exact_gate)
        replay = {"replay_fps": num_cameras * num_frames / replay_s,
                  "replay_identical": replay_mismatch is None,
                  "replay_mismatch": replay_mismatch}

    skipped = sum(d.gate_stats.skipped for d in gated_detectors)
    recomputed = sum(d.gate_stats.recomputed for d in gated_detectors)
    carried = sum(d.gate_stats.carried for d in gated_detectors)
    total_cells = skipped + recomputed

    quality: Dict[str, float] = {}
    full_metrics = None
    gated_metrics = None
    for states in cameras:
        full_m = evaluate_stream(
            StreamingDetector(model, matcher, config=full_config,
                              batch_size=batch_size),
            _ScriptedFrames(states), task, num_frames=len(states))
        gated_m = evaluate_stream(
            StreamingDetector(model, matcher, config=gated_config,
                              batch_size=batch_size),
            _ScriptedFrames(states), task, num_frames=len(states))
        full_metrics = full_m if full_metrics is None else full_metrics
        gated_metrics = gated_m if gated_metrics is None else gated_metrics
        for key, delta in metrics_delta(full_m, gated_m).items():
            quality[key] = max(quality.get(key, 0.0), delta)

    frames_total = num_cameras * num_frames
    return {
        "motion_rate": motion_rate,
        "cameras": num_cameras,
        "frames": num_frames,
        "grid": grid,
        "full_fps": frames_total / full_s if full_s else float("inf"),
        "gated_fps": frames_total / gated_s if gated_s else float("inf"),
        "speedup": full_s / gated_s if gated_s else float("inf"),
        "hit_rate": skipped / total_cells if total_cells else 0.0,
        "carried": carried,
        "skipped": skipped,
        "recomputed": recomputed,
        "identical": mismatch is None if exact_gate else None,
        "mismatch": mismatch,
        "exact_gate": exact_gate,
        "frame_accuracy": (full_metrics.frame_accuracy
                           if full_metrics else 0.0),
        "gated_frame_accuracy": (gated_metrics.frame_accuracy
                                 if gated_metrics else 0.0),
        "max_quality_delta": max(quality.values()) if quality else 0.0,
        "quality_deltas": quality,
        **replay,
    }
