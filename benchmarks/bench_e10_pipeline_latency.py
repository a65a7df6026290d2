"""E10 — End-to-end detection pipeline latency, per stage.

The paper's serving story ("real-time task-oriented detection at the
edge") depends on the *whole* pipeline — window extraction, model
forward, knowledge-graph matching, NMS — not just the accelerator GEMMs
that E3 times.  This benchmark runs a large (default 25×25-cell) scene
twice: once through the seed reference implementation
(:func:`repro.reference.detect_reference`: per-cell crop loop + O(N²)
Python NMS) and once through :meth:`TaskDetector.detect`, asserts the
two produce identical detections, and reports the speedup plus a
per-stage latency breakdown.

The stage list is **derived from the span tree** the pipeline records
(children of the last ``detect.batch_total`` span), not hard-coded
here — if a stage is renamed or added in ``repro.detect.pipeline``,
this benchmark follows automatically and the two can never drift.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e10_pipeline_latency.py
    PYTHONPATH=src python benchmarks/bench_e10_pipeline_latency.py --smoke

``--smoke`` shrinks the scene to 14×14 (CI-friendly, under a second);
CI gates its work counters (windows scored, forward MACs, NMS
candidates and kept boxes) exactly against ``benchmarks/baselines/``
with ``repro obs compare``.  Both modes persist the run — manifest,
span tree, per-stage p50/p90/p99, counters — to
``BENCH_e10_pipeline_latency.json`` for ``repro obs
report/trace/compare``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np

from benchmarks.common import finalize_benchmark, print_table
from repro.data import SceneConfig, SceneGenerator, attribute_head_spec, get_task
from repro.data.datasets import num_classes
from repro.detect import TaskDetector
from repro.kg import GraphMatcher, SimulatedLLM
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import get_registry
from repro.reference import detect_reference

ROOT_STAGE = "detect.batch_total"


def _build_detector(grid: int):
    """Fresh (untrained) student + task matcher: weights don't affect
    timing, and skipping ArtifactBuilder keeps the benchmark stateless."""
    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    kg = SimulatedLLM().generate_for_task(get_task("roadside_hazards"))
    scene = SceneGenerator(SceneConfig(grid=grid), seed=7).generate()
    detector = TaskDetector(model, matcher=GraphMatcher(kg),
                            score_threshold=0.0)
    return scene, detector


def _time_detect(detect, scene, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        detect(scene)
        best = min(best, time.perf_counter() - start)
    return best


def pipeline_stages(obs) -> list:
    """Stage names in pipeline order, read off the recorded span tree.

    Walks the last ``detect.batch_total`` root's subtree depth-first, so
    nested stages (e.g. ``kg.match`` inside ``detect.kg_match``) appear
    after their parent; duplicates (one span per forward batch) collapse
    to one entry.
    """
    roots = [r for r in obs.span_tree() if r["name"] == ROOT_STAGE]
    if not roots:
        raise RuntimeError(
            f"no {ROOT_STAGE!r} span recorded — did detect() run with "
            "the registry enabled?")
    ordered = []

    def visit(node):
        if node["name"] not in ordered:
            ordered.append(node["name"])
        for child in node["children"]:
            visit(child)

    visit(roots[-1])
    # Root last: the table reads top-down as stages, then the total.
    ordered.remove(ROOT_STAGE)
    ordered.append(ROOT_STAGE)
    return ordered


def run_experiment(grid: int = 25, repeats: int = 3):
    scene, detector = _build_detector(grid)
    obs = get_registry()

    # Correctness gate: production must reproduce the seed detections
    # exactly (same boxes, same keep order, same score bits).
    ref_dets = detect_reference(detector, scene)
    dets = detector.detect(scene)
    assert [(d.bbox, d.score) for d in ref_dets] == \
        [(d.bbox, d.score) for d in dets], \
        "detect diverged from the reference implementation"

    reference_s = _time_detect(
        lambda s: detect_reference(detector, s), scene, repeats)
    obs.reset()  # isolate the production run's spans and per-stage numbers
    production_s = _time_detect(detector.detect, scene, repeats)
    stage_stats = obs.snapshot()["timers"]
    stage_names = pipeline_stages(obs)

    summary = [{
        "scene": f"{grid}x{grid} cells",
        "windows": grid * grid,
        "detections": len(dets),
        "reference_ms": reference_s * 1e3,
        "production_ms": production_s * 1e3,
        "speedup": reference_s / production_s,
    }]
    total = stage_stats.get(ROOT_STAGE, {}).get("total_s", 0.0)
    stages = [
        {
            "stage": name,
            "calls": stats["calls"],
            "total_ms": stats["total_s"] * 1e3,
            "mean_ms": stats["mean_s"] * 1e3,
            "p50_ms": stats["p50_s"] * 1e3,
            "p90_ms": stats["p90_s"] * 1e3,
            "p99_ms": stats["p99_s"] * 1e3,
            "share_pct": 100.0 * stats["total_s"] / total if total else 0.0,
        }
        for name in stage_names
        if (stats := stage_stats.get(name)) is not None
    ]
    return summary, stages


def _print_results(summary, stages) -> None:
    print_table("E10: end-to-end detect() latency (production vs seed)", summary)
    print_table("E10: production run, per-stage breakdown (from span tree)",
                stages)
    print()
    print(get_registry().report("E10 pipeline"))


def test_e10_pipeline_latency(benchmark):
    summary, stages = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    _print_results(summary, stages)
    assert summary[0]["speedup"] >= 3.0
    # The span tree must expose the pipeline's structure: every stage the
    # detector records shows up, nested under the end-to-end root.
    observed = {row["stage"] for row in stages}
    assert ROOT_STAGE in observed
    assert {"detect.window_build", "detect.model_forward",
            "detect.kg_match", "detect.nms"} <= observed
    # Percentiles are populated for every observed stage.
    assert all(row["p50_ms"] > 0.0 for row in stages)


def main():
    smoke = "--smoke" in sys.argv[1:]
    # Smoke keeps CI fast; its work counts are what the CI gate compares.
    summary, stages = run_experiment(grid=14 if smoke else 25,
                                     repeats=5 if smoke else 3)
    _print_results(summary, stages)
    finalize_benchmark("e10_pipeline_latency", summary, stages=stages)
    if not smoke and summary[0]["speedup"] < 3.0:
        print(f"WARNING: speedup {summary[0]['speedup']:.2f}x below the 3x target")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
