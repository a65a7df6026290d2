"""E11 — Serving throughput: per-call rebuild vs session vs engine.

The paper's deployment story is a *stream* of small edge scenes against
one standing mission.  This benchmark measures scenes/sec for the three
execution strategies the serving layer offers over the same detector:

* ``percall_rebuild`` — the seed semantics: every ``detect()`` call
  re-runs mission preparation (LLM graph extraction, few-shot
  refinement, configuration selection, detector construction) before
  scanning a single scene;
* ``percall_cached`` — :class:`repro.serve.MissionSession` alone:
  preparation cached, still one scene per forward;
* ``engine`` — cached session plus :class:`repro.serve.DetectionEngine`
  micro-batching, fusing windows from many scenes into shared forwards
  (swept over ``max_batch`` × ``workers``).

Timing rounds are interleaved across all modes and speedups are the
median of per-round ratios, so machine drift cancels (see
:func:`benchmarks.common.interleaved_rounds`).  A correctness gate
asserts the engine reproduces sequential per-scene detection before
anything is timed.  Models are fresh untrained students (weights do not
affect timing), so the workload needs no artifact cache.
:func:`compare_engine_configurations` reruns the harness with the model
swapped for E12's float-vs-quantized engine table.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e11_throughput.py
    PYTHONPATH=src python benchmarks/bench_e11_throughput.py --smoke

``--smoke`` shrinks the stream (CI-friendly) while keeping hot-path
stage *shares* stable for the CI regression gate (``repro obs compare
--metric share``).  Both modes persist telemetry — manifest, batched
span tree, ``session.cache.*`` counters, ``engine.*`` distributions,
and the throughput rows — to ``BENCH_e11_throughput.json``.  The full
run exits non-zero if the best engine configuration (batch >= 8) falls
below 2x the per-call rebuild baseline.
"""

import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import finalize_benchmark, interleaved_rounds, print_table
from repro.core.configurations import (
    QuantizedConfiguration,
    TaskSpecificConfiguration,
)
from repro.core.pipeline import ITaskPipeline
from repro.core.taskspec import TaskSpec
from repro.data import (
    SceneConfig,
    SceneGenerator,
    attribute_head_spec,
    get_task,
    sample_profile,
)
from repro.data.datasets import num_classes
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import get_registry
from repro.serve.engine import EngineConfig

SPEEDUP_TARGET = 2.0
TASK_NAME = "roadside_hazards"


def build_workload(
    num_scenes: int = 64, grid: int = 3, seed: int = 7,
    configuration: str = "specialist",
) -> Tuple[ITaskPipeline, TaskSpec, List]:
    """Pipeline + mission + scene stream for the throughput runs.

    The mission is few-shot — the paper's central serving scenario — so
    every per-call rebuild repeats LLM extraction *and* support-example
    refinement, exactly as the seed's per-call ``detect()`` did.

    ``configuration`` picks the deployed model:

    * ``"specialist"`` — one float specialist registered under the
      refined mission graph, so selection always picks it (similarity
      exactly 1.0) and the quantized placeholder is never deployed;
    * ``"quantized"`` — no specialists at all: selection falls back to a
      real w8a8 post-training-quantized copy of the same student, so the
      stream exercises the integer BLAS kernels end to end.
    """
    if configuration not in ("specialist", "quantized"):
        raise ValueError(
            f"configuration must be 'specialist' or 'quantized', "
            f"got {configuration!r}")
    task = get_task(TASK_NAME)
    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    if configuration == "quantized":
        from repro.quant import quantize_vit

        calibration = np.random.default_rng(1).random(
            (32, config.in_channels, config.image_size, config.image_size),
        ).astype(np.float32)
        quantized_cfg = QuantizedConfiguration(
            name="quantized:w8a8", kind="quantized",
            quantized=quantize_vit(model, calibration))
        pipeline = ITaskPipeline(quantized_cfg)
    else:
        specialist = TaskSpecificConfiguration(
            name=f"specialist:{task.name}", kind="task_specific",
            student=model, task_name=task.name)
        placeholder = QuantizedConfiguration(
            name="quantized:placeholder", kind="quantized", quantized=None)
        pipeline = ITaskPipeline(placeholder,
                                 specialists={task.name: specialist})

    rng = np.random.default_rng(seed)
    positives, negatives = [], []
    while len(positives) < 4 or len(negatives) < 4:
        profile = sample_profile(rng)
        (positives if task.matches(profile) else negatives).append(profile)
    spec = TaskSpec.from_definition(task, support_positives=positives[:4],
                                    support_negatives=negatives[:4])
    if configuration == "specialist":
        # Register under the refined graph (build_kg is deterministic), so
        # selector similarity is exactly 1.0 and the specialist always wins.
        pipeline.selector.register_specialist(task.name, pipeline.build_kg(spec))
    scenes = SceneGenerator(SceneConfig(grid=grid),
                            seed=seed).generate_batch(num_scenes)
    return pipeline, spec, list(scenes)


def run_throughput(
    num_scenes: int = 64,
    grid: int = 3,
    batch_sizes: Sequence[int] = (1, 8, 32),
    workers: Sequence[int] = (1, 2),
    repeats: int = 3,
    seed: int = 7,
) -> List[Dict]:
    """Measure scenes/sec for each strategy; returns result rows.

    Every row carries ``scenes_per_s`` plus its speedup over the
    ``percall_rebuild`` baseline (the seed's per-call semantics).  The
    engine rows sweep ``max_batch`` × ``workers`` over the float
    specialist.
    """
    pipeline, spec, scenes = build_workload(num_scenes, grid, seed)

    # Correctness gate first: the engine must reproduce per-scene detect.
    session = pipeline.session(spec)
    sequential = [session.detect(scene) for scene in scenes]
    with session.engine(EngineConfig(max_batch=8, queue_size=max(64, num_scenes))) as engine:
        fused = engine.detect_many(scenes)
    assert len(fused) == len(sequential), "engine dropped scenes"
    for left, right in zip(sequential, fused):
        assert [d.bbox for d in left] == [d.bbox for d in right], \
            "engine diverged from per-scene detection"
        np.testing.assert_allclose([d.score for d in left],
                                   [d.score for d in right], rtol=1e-5)

    def percall_rebuild() -> None:
        for scene in scenes:
            pipeline.sessions.clear()   # seed semantics: prepare every call
            pipeline.detect(spec, scene)

    def percall_cached() -> None:
        for scene in scenes:
            pipeline.detect(spec, scene)

    def engine_pass(config: EngineConfig):
        def run() -> None:
            with session.engine(config) as eng:
                eng.detect_many(scenes)
        return run

    tasks = [("percall_rebuild", None, None, percall_rebuild),
             ("percall_cached", None, None, percall_cached)]
    for nworkers in workers:
        for batch in batch_sizes:
            config = EngineConfig(max_batch=batch, workers=nworkers,
                                  queue_size=max(64, num_scenes))
            tasks.append(("engine", batch, nworkers, engine_pass(config)))

    samples = interleaved_rounds(repeats, [fn for _, _, _, fn in tasks])

    rows: List[Dict] = []
    baseline_rounds = samples[0]
    for (mode, batch, nworkers, _), rounds in zip(tasks, samples):
        best = min(rounds)
        # Speedup = median of per-round ratios against the baseline round
        # measured moments earlier, so machine drift cancels out.
        speedup = statistics.median(
            b / r for b, r in zip(baseline_rounds, rounds))
        rows.append({
            "mode": mode,
            "batch": batch,
            "workers": nworkers,
            "scenes_per_s": num_scenes / best,
            "ms_per_scene": best / num_scenes * 1e3,
            "speedup_vs_percall": speedup,
        })
    return rows


def best_engine_speedup(rows: Sequence[Dict], min_batch: int = 8) -> float:
    """Best engine speedup over the per-call baseline at batch >= min_batch."""
    candidates = [
        row["speedup_vs_percall"] for row in rows
        if row["mode"] == "engine" and (row["batch"] or 0) >= min_batch
    ]
    return max(candidates) if candidates else 0.0


def compare_engine_configurations(
    num_scenes: int = 48,
    grid: int = 3,
    batch: int = 8,
    workers: int = 1,
    repeats: int = 3,
    seed: int = 7,
) -> List[Dict]:
    """Float-specialist vs quantized engine scenes/sec on one stream.

    The E11 harness with the model swapped: both configurations serve
    the identical scene stream through identically configured
    micro-batching engines, with timing rounds interleaved so machine
    drift cancels (E12's acceptance gate: the quantized configuration
    must stay within 2x of the float one).  Returns one row per
    configuration with ``scenes_per_s`` and ``ratio_vs_float``
    (float scenes/sec ÷ this configuration's — 1.0 for float itself,
    small is good).
    """
    sessions = []
    for configuration in ("specialist", "quantized"):
        pipeline, spec, scenes = build_workload(num_scenes, grid, seed,
                                                configuration=configuration)
        sessions.append((configuration, pipeline.session(spec), scenes))

    config = EngineConfig(max_batch=batch, workers=workers,
                          queue_size=max(64, num_scenes))

    def engine_pass(session, scenes):
        def run() -> None:
            with session.engine(config) as eng:
                eng.detect_many(scenes)
        return run

    tasks = [engine_pass(session, scenes) for _, session, scenes in sessions]
    samples = interleaved_rounds(repeats, tasks)

    rows: List[Dict] = []
    float_rounds = samples[0]
    for (configuration, _, _), rounds in zip(sessions, samples):
        best = min(rounds)
        ratio = statistics.median(r / f for f, r in zip(float_rounds, rounds))
        rows.append({
            "configuration": configuration,
            "batch": batch,
            "workers": workers,
            "scenes_per_s": num_scenes / best,
            "ms_per_scene": best / num_scenes * 1e3,
            "ratio_vs_float": ratio,
        })
    return rows


def run_experiment(num_scenes: int = 64, repeats: int = 5,
                   batch_sizes=(1, 8, 32), workers=(1, 2)):
    """Throughput sweep; returns (rows, counter/distribution table)."""
    registry = get_registry()
    registry.reset()  # isolate this run's spans, counters, distributions
    rows = run_throughput(num_scenes=num_scenes, repeats=repeats,
                          batch_sizes=batch_sizes, workers=workers)
    snapshot = registry.snapshot()
    serving = [
        {"metric": name, "value": counter,
         "mean": None, "p90": None, "max": None}
        for name, counter in sorted(snapshot.get("counters", {}).items())
        if name.startswith("session.cache.")
    ] + [
        {"metric": name, "value": stats["count"], "mean": stats["mean"],
         "p90": stats["p90"], "max": stats["max"]}
        for name, stats in sorted(snapshot.get("distributions", {}).items())
        if name.startswith("engine.")
    ]
    return rows, serving


def _print_results(rows, serving) -> None:
    print_table("E11: serving throughput (scenes/sec)", rows)
    print_table("E11: session cache counters + engine distributions", serving)
    print()
    print(get_registry().report("E11 serving"))


def test_e11_throughput(benchmark):
    rows, serving = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    _print_results(rows, serving)
    assert best_engine_speedup(rows) >= SPEEDUP_TARGET
    # The serving layer's own telemetry must be populated: the session
    # cache was exercised (hits from the cached modes) and the engine
    # recorded its batch-size distribution.
    metrics = {row["metric"] for row in serving}
    assert "session.cache.hit" in metrics
    assert "engine.batch_size" in metrics


def main():
    smoke = "--smoke" in sys.argv[1:]
    # Smoke keeps CI fast; the share-based regression gate only needs
    # stable *relative* stage weights, which hold at 16 scenes.
    rows, serving = (run_experiment(num_scenes=16, repeats=2,
                                    batch_sizes=(1, 8), workers=(1,))
                     if smoke else run_experiment())
    _print_results(rows, serving)
    finalize_benchmark("e11_throughput", rows, serving=serving)
    best = best_engine_speedup(rows)
    if not smoke and best < SPEEDUP_TARGET:
        print(f"WARNING: best engine speedup {best:.2f}x below the "
              f"{SPEEDUP_TARGET:.1f}x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
