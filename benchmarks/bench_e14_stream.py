"""E14 — Incremental streaming detection: delta gating across motion densities.

The streaming detector's frame-delta gate makes per-frame cost scale
with scene *change* instead of scene size: unchanged grid cells reuse
their cached raw score bit-for-bit instead of re-entering the model
forward.  This benchmark drives N independent camera feeds (the
multi-camera surveillance workload the paper's edge deployment targets)
through a full-recompute pass and a delta-gated pass over identical
pre-rendered frames, sweeping motion density from fully static to
every-cell-changes.  :func:`run_stream_bench` measures one density; its
identity check is :func:`repro.stream.bench.compare_snapshots`, the
streaming contract's oracle.

Four tables:

* ``sweep`` — frames/sec, speedup, gate hit rate, and bit-identity per
  motion density under exact gating;
* ``replay`` — per motion density, the gated pass replayed through
  ``update_many`` in ``REPLAY_CHUNK``-frame chunks (each chunk's changed
  cells scored in one forward) against the per-frame gated pass, also
  asserted bit-identical to full recompute.  It runs with the registry
  off, so the telemetry CI gates is the per-frame path's;
* ``carryover`` — tracker-prior carryover (``motion_threshold > 0``) on
  a jittery feed, reporting carried reuses and the MOTA-style quality
  delta the approximation costs;
* ``manifest-level`` counters: ``stream.cells.{skipped,recomputed}``
  and the ``stream.delta_gate.hit_rate`` distribution ride into the
  telemetry automatically.

**Acceptance gate** (full mode): on the mostly-static multi-camera
sweep point (motion density ``0.05``) the gated pass must run at least
``MIN_SPEEDUP`` (3x) faster than full recompute, each side timed as the
median of ``TIMING_PASSES`` alternating passes, **and** produce
bit-identical tracks; every exact-gate sweep point must be
bit-identical with zero quality delta, including the full-motion end
where the gate buys nothing, and so must every replay row.  The run
exits non-zero otherwise.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e14_stream.py
    PYTHONPATH=src python benchmarks/bench_e14_stream.py --smoke

``--smoke`` shrinks cameras/frames/grid (CI-friendly) and skips the
wall-clock speedup gate (shared CI runners make timing ratios noisy)
while still asserting bit-identity; both modes persist telemetry to
``BENCH_e14_stream.json`` for the CI work-counter and SLO gates.
"""

import contextlib
import dataclasses
import os
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    finalize_benchmark,
    print_table,
    quantized_configuration,
    task_matcher,
)
from repro.data import get_task
from repro.data.scenes import SceneConfig
from repro.data.tasks import TaskDefinition
from repro.obs import get_registry
from repro.stream import (
    FrameState,
    ScriptedSequence,
    StreamingDetector,
    Track,
    TrackerConfig,
    evaluate_stream,
    metrics_delta,
)
from repro.stream.bench import compare_snapshots, materialize_cameras

TASK = "roadside_hazards"

#: Motion densities swept under exact gating (fraction of live objects
#: re-rendered per frame; the rest repeat bit-identical pixels).
MOTION_RATES = (0.0, 0.05, 0.25, 1.0)
SMOKE_MOTION_RATES = (0.05, 1.0)

#: The deployment point the speedup gate stands on: mostly-static
#: multi-camera feeds, the regime the delta gate exists for.
GATE_MOTION_RATE = 0.05
MIN_SPEEDUP = 3.0

#: Full mode times each sweep side as the median of this many
#: alternating full/gated passes; one pass per side read 1.9-3.5x at
#: the gate point on a 2-vCPU host, too wide for a 3x bound.
TIMING_PASSES = 7

#: Frames per ``update_many`` chunk in the replay rows.
REPLAY_CHUNK = 8

#: Carryover demonstration: sub-threshold jitter on a moderately busy
#: feed, with the periodic refresh bounding drift.
CARRYOVER_MOTION_RATE = 0.3
CARRYOVER_THRESHOLD = 0.05
CARRYOVER_REFRESH = 8


def run_pass(
    model: Any,
    matcher: Any,
    config: TrackerConfig,
    cameras: Sequence[Sequence[FrameState]],
    chunk: int = 0,
) -> Tuple[List[List[List[Track]]], float, List[StreamingDetector]]:
    """One timed sweep: every camera's frames through its own detector.

    Frame by frame through ``update``, or with ``chunk > 0`` through
    ``update_many`` in ``chunk``-frame chunks (the replay path).
    Returns ``(per-camera per-frame track snapshots, elapsed seconds,
    detectors)`` — the detectors expose ``gate_stats`` afterwards.
    """
    detectors = [StreamingDetector(model, matcher, config=config)
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


@contextlib.contextmanager
def _registry_off():
    """Run extra passes without recording, so the telemetry CI gates
    stays one per-frame pass per side."""
    registry = get_registry()
    enabled, registry.enabled = registry.enabled, False
    try:
        yield
    finally:
        registry.enabled = enabled


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
    birth_rate: float = 0.02,
    death_rate: float = 0.01,
    tracker: TrackerConfig = TrackerConfig(),
    gate: Optional[TrackerConfig] = None,
    seed: int = 0,
    replay_chunk: int = 0,
    timing_passes: int = 0,
) -> Dict[str, Any]:
    """Full-recompute vs delta-gated sweep over one motion density.

    ``tracker`` carries the EMA/hysteresis knobs; the full pass runs it
    with ``delta_gate=False`` and the gated pass with ``delta_gate=True``
    (or ``gate`` verbatim when provided, e.g. to benchmark carryover).
    Returns one row of results; ``identical``/``mismatch`` report the
    bitwise oracle comparison under exact gating (``None`` under
    carryover, which only bounds its drift).  ``replay_chunk > 0`` adds
    a gated ``update_many`` pass in chunks of that many frames
    (``replay_*`` keys, same oracle), run with the registry off so the
    recorded stages and counts stay the per-frame path's.
    ``timing_passes > 0`` times each side as the median of that many
    further alternating full/gated passes, also run with the registry
    off.
    """
    scene = SceneConfig(grid=grid, cell_size=cell_size, object_density=0.4,
                        distractor_density=0.15, clutter_density=0.0,
                        noise_std=0.02)
    cameras = materialize_cameras(
        num_cameras, num_frames, scene, motion_rate=motion_rate,
        birth_rate=birth_rate, death_rate=death_rate, seed=seed)

    full_config = dataclasses.replace(tracker, delta_gate=False)
    gated_config = (gate if gate is not None
                    else dataclasses.replace(tracker, delta_gate=True))

    full_snaps, full_s, _ = run_pass(model, matcher, full_config, cameras)
    gated_snaps, gated_s, gated_detectors = run_pass(
        model, matcher, gated_config, cameras)
    if timing_passes:
        full_times, gated_times = [], []
        with _registry_off():
            for _ in range(timing_passes):
                full_times.append(
                    run_pass(model, matcher, full_config, cameras)[1])
                gated_times.append(
                    run_pass(model, matcher, gated_config, cameras)[1])
        full_s = statistics.median(full_times)
        gated_s = statistics.median(gated_times)

    exact_gate = gated_config.motion_threshold == 0.0
    mismatch = (compare_snapshots(full_snaps, gated_snaps) if exact_gate
                else None)
    replay: Dict[str, Any] = {}
    if replay_chunk > 0:
        with _registry_off():
            replay_snaps, replay_s, _ = run_pass(
                model, matcher, gated_config, cameras, chunk=replay_chunk)
        replay_mismatch = (compare_snapshots(full_snaps, replay_snaps)
                           if exact_gate else None)
        replay = {"replay_fps": num_cameras * num_frames / replay_s,
                  "replay_identical": (replay_mismatch is None
                                       if exact_gate else None),
                  "replay_mismatch": replay_mismatch}

    skipped = sum(d.gate_stats.skipped for d in gated_detectors)
    recomputed = sum(d.gate_stats.recomputed for d in gated_detectors)
    carried = sum(d.gate_stats.carried for d in gated_detectors)
    total_cells = skipped + recomputed

    quality: Dict[str, float] = {}
    for states in cameras:
        full_m = evaluate_stream(
            StreamingDetector(model, matcher, config=full_config),
            ScriptedSequence(states), task, num_frames=len(states))
        gated_m = evaluate_stream(
            StreamingDetector(model, matcher, config=gated_config),
            ScriptedSequence(states), task, num_frames=len(states))
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
        "max_quality_delta": max(quality.values()) if quality else 0.0,
        "quality_deltas": quality,
        **replay,
    }


def run_experiment(smoke: bool = False):
    """Sweep motion densities full-vs-gated; returns (tables, gate_row)."""
    registry = get_registry()
    registry.reset()  # isolate this run's counters for the work gate
    model = quantized_configuration().model
    matcher = task_matcher(TASK)
    task = get_task(TASK)
    num_cameras, num_frames, grid = (2, 8, 4) if smoke else (3, 20, 5)
    motion_rates = SMOKE_MOTION_RATES if smoke else MOTION_RATES

    sweep_rows, replay_rows = [], []
    for motion_rate in motion_rates:
        row = run_stream_bench(
            model, matcher, task,
            num_cameras=num_cameras, num_frames=num_frames, grid=grid,
            motion_rate=motion_rate, seed=3, replay_chunk=REPLAY_CHUNK,
            timing_passes=0 if smoke else TIMING_PASSES)
        assert row["identical"], (
            f"exact delta gating diverged from full recompute at "
            f"motion_rate={motion_rate}: {row['mismatch']}")
        assert row["max_quality_delta"] == 0.0, (
            f"bit-identical tracks must yield identical streaming metrics "
            f"(motion_rate={motion_rate}, "
            f"delta={row['max_quality_delta']})")
        assert row["replay_identical"], (
            f"gated update_many replay diverged from full recompute at "
            f"motion_rate={motion_rate}: {row['replay_mismatch']}")
        sweep_rows.append({
            "motion": motion_rate,
            "cameras": row["cameras"],
            "frames": row["frames"],
            "full_fps": row["full_fps"],
            "gated_fps": row["gated_fps"],
            "speedup": row["speedup"],
            "hit_rate": row["hit_rate"],
            "identical": row["identical"],
            "quality_delta": row["max_quality_delta"],
        })
        replay_rows.append({
            "motion": motion_rate,
            "chunk": REPLAY_CHUNK,
            "gated_fps": row["gated_fps"],
            "replay_fps": row["replay_fps"],
            "replay_speedup": row["replay_fps"] / row["gated_fps"],
            "identical": row["replay_identical"],
        })

    carryover = run_stream_bench(
        model, matcher, task,
        num_cameras=num_cameras, num_frames=num_frames, grid=grid,
        motion_rate=CARRYOVER_MOTION_RATE,
        gate=TrackerConfig(delta_gate=True,
                           motion_threshold=CARRYOVER_THRESHOLD,
                           refresh_every=CARRYOVER_REFRESH),
        seed=3)
    carryover_rows = [{
        "motion": CARRYOVER_MOTION_RATE,
        "threshold": CARRYOVER_THRESHOLD,
        "refresh_every": CARRYOVER_REFRESH,
        "speedup": carryover["speedup"],
        "hit_rate": carryover["hit_rate"],
        "carried": carryover["carried"],
        "quality_delta": carryover["max_quality_delta"],
    }]

    tables = {"sweep": sweep_rows, "replay": replay_rows,
              "carryover": carryover_rows}
    gate_row = next((row for row in sweep_rows
                     if row["motion"] == GATE_MOTION_RATE), None)
    return tables, gate_row


def _print_results(tables) -> None:
    print_table("E14: full recompute vs delta gating (exact, bit-identical)",
                tables["sweep"])
    print_table("E14: gated update_many replay vs per-frame update "
                "(bit-identical)", tables["replay"])
    print_table("E14: tracker-prior carryover (approximate, bounded drift)",
                tables["carryover"])
    print()
    print(get_registry().report("E14 incremental streaming"))


def test_e14_stream(benchmark):
    tables, gate_row = benchmark.pedantic(
        run_experiment, kwargs={"smoke": True}, rounds=1, iterations=1)
    _print_results(tables)
    # Bit-identity and zero quality delta are asserted inside
    # run_experiment for every sweep point; check the gate point exists
    # and the gate genuinely skipped work on the mostly-static feed.
    assert gate_row is not None and gate_row["identical"]
    assert gate_row["hit_rate"] > 0.5
    assert tables["carryover"][0]["quality_delta"] <= 0.1


def main():
    smoke = "--smoke" in sys.argv[1:]
    tables, gate_row = run_experiment(smoke=smoke)
    _print_results(tables)
    finalize_benchmark("e14_stream", keep_spans=False, **tables)
    failed = False
    if gate_row is None:
        print(f"WARNING: no sweep row at motion_rate={GATE_MOTION_RATE}")
        failed = True
    elif not smoke and gate_row["speedup"] < MIN_SPEEDUP:
        print(f"WARNING: gated streaming at motion_rate={GATE_MOTION_RATE} "
              f"is {gate_row['speedup']:.2f}x full recompute "
              f"(gate: >= {MIN_SPEEDUP:.1f}x)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
