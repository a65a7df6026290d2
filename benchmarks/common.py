"""Shared infrastructure for the experiment benchmarks.

Every ``bench_eN_*.py`` regenerates one of the paper's tables/figures.
Heavy model training is delegated to the session-wide artifact cache
(:class:`repro.core.ArtifactBuilder`), so the first benchmark run pays the
training cost once and subsequent runs load checkpoints.

Each benchmark module exposes

* ``run_experiment(...) -> rows`` — pure experiment logic returning a list
  of row dicts (what EXPERIMENTS.md records);
* ``test_*`` functions using the pytest-benchmark fixture, so
  ``pytest benchmarks/ --benchmark-only`` both regenerates the tables
  (printed to stdout) and times the hot paths;
* a ``main()`` so ``python benchmarks/bench_eN_*.py`` works standalone.

Standalone runs end with :func:`finalize_benchmark`, which writes the
run's telemetry — run manifest (git sha, seed, platform), per-stage span
stats with p50/p90/p99, counters, and the experiment rows — to
``BENCH_<name>.json`` next to the repository root (override the
directory with ``REPRO_BENCH_DIR``).  Those files are the durable perf
trajectory: ``repro obs report/trace/compare`` consume them, and CI
gates the work counted in their ``merge`` block exactly against
``benchmarks/baselines/`` with ``repro obs compare``.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import ArtifactBuilder
from repro.data import SceneConfig, SceneGenerator, build_task_windows, get_task
from repro.kg import GraphMatcher, SimulatedLLM

EVAL_SEED = 10_000
DECISION_THRESHOLD = 0.35

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=1)
def builder() -> ArtifactBuilder:
    return ArtifactBuilder(seed=0)


def artifact_cache_counters() -> Dict[str, float]:
    """Artifact cache traffic (hit/miss/corrupt/quarantined/rebuild) recorded
    in the global obs registry by :class:`ArtifactBuilder` lookups."""
    from repro.obs import get_registry

    return {
        name: counter.value
        for name, counter in get_registry().counters.items()
        if name.startswith("artifacts.")
    }


@functools.lru_cache(maxsize=1)
def teacher():
    return builder().teacher()


@functools.lru_cache(maxsize=1)
def multitask_student():
    return builder().multitask_student()


@functools.lru_cache(maxsize=None)
def specialist(task_name: str):
    return builder().task_student_by_name(task_name)


@functools.lru_cache(maxsize=None)
def quantized_configuration(weight_bits: int = 8, act_bits: int = 8):
    return builder().quantized(weight_bits=weight_bits, act_bits=act_bits)


@functools.lru_cache(maxsize=None)
def task_kg(task_name: str):
    return SimulatedLLM().generate_for_task(get_task(task_name))


@functools.lru_cache(maxsize=None)
def task_matcher(task_name: str) -> GraphMatcher:
    return GraphMatcher(task_kg(task_name))


@functools.lru_cache(maxsize=None)
def eval_windows(task_name: str, seed_offset: int = 0):
    """Held-out "specific scenario" window set (disjoint seed from training).

    Heavy on near-miss negatives: the evaluation regime where the
    configurations genuinely differ (E1's "specific scenarios").
    """
    return build_task_windows(
        get_task(task_name), seed=EVAL_SEED + seed_offset,
        num_positive=120, num_negative=180,
        hard_negative_fraction=0.7, near_miss_fraction=0.7,
    )


@functools.lru_cache(maxsize=None)
def eval_scenes(count: int = 24, seed: int = EVAL_SEED):
    return tuple(SceneGenerator(SceneConfig(), seed=seed).generate_batch(count))


# ----------------------------------------------------------------------
# table printing
# ----------------------------------------------------------------------
def print_table(title: str, rows: Sequence[Dict], columns: Optional[List[str]] = None) -> None:
    if not rows:
        print(f"\n== {title} == (no rows)")
        return
    columns = columns or list(rows[0].keys())
    widths = {
        col: max(len(col), *(len(_fmt(row.get(col))) for row in rows))
        for col in columns
    }
    print(f"\n== {title} ==")
    header = " | ".join(col.ljust(widths[col]) for col in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def geometric_mean(values: Sequence[float]) -> float:
    arr = np.asarray(list(values), dtype=np.float64)
    return float(np.exp(np.log(np.clip(arr, 1e-12, None)).mean()))


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def interleaved_rounds(repeats: int, tasks: Sequence[Callable[[], object]],
                       inner: int = 1) -> List[List[float]]:
    """Per-task steady-state seconds per call, rounds round-robined.

    Machines drift (thermal, noisy neighbours); timing mode A repeatedly
    and then mode B confounds their ratio with the drift.  Round robin
    spreads every mode's samples over the same wall-clock span, so
    per-round ratios (mode vs baseline measured moments apart) cancel
    the drift that absolute best-of numbers cannot.

    Each round re-enters a task's cache regime with one untimed call
    before timing ``inner`` back-to-back calls.  Strict call-by-call
    alternation would time every mode on the *other* mode's evicted
    cache, a regime no deployment runs in, and one that understates a
    fast path whose working set fits where a slow one's cannot.  The
    first round's untimed call also serves as each task's warm-up.
    """
    samples: List[List[float]] = [[] for _ in tasks]
    for _ in range(repeats):
        for i, fn in enumerate(tasks):
            fn()
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            samples[i].append((time.perf_counter() - start) / inner)
    return samples


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def bench_output_dir() -> str:
    """Where ``BENCH_*.json`` files land (``REPRO_BENCH_DIR`` overrides)."""
    return os.environ.get("REPRO_BENCH_DIR", _REPO_ROOT)


def finalize_benchmark(
    name: str,
    rows: Optional[Sequence[Dict]] = None,
    seed: Optional[int] = EVAL_SEED,
    out: Optional[str] = None,
    *,
    keep_spans: bool = True,
    **tables: Sequence[Dict],
) -> str:
    """Persist one standalone benchmark run as ``BENCH_<name>.json``.

    ``rows`` is the experiment's primary table; extra keyword tables are
    stored under their argument name.  ``keep_spans=False`` leaves the
    span buffer out (stage stats and counters stay), so a run whose
    smoke is a committed baseline stays small enough to review.  The document also captures the
    global obs registry (span tree, p50/p90/p99 per stage, counters —
    including the ``artifacts.*`` cache traffic) and a run manifest, so
    every E-row in EXPERIMENTS.md can cite its provenance.  The manifest
    carries the counter snapshot and the span-buffer drop count so a
    truncated trace (``dropped_spans > 0``) is visible at a glance in
    the provenance header, not just deep in the obs block.
    """
    from repro.obs import build_telemetry, get_registry, write_telemetry

    registry = get_registry()
    dropped = registry.dropped_spans
    doc = build_telemetry(
        name,
        registry=registry,
        rows=rows,
        tables=tables or None,
        seed=seed,
        manifest_extra={
            "counters": {cname: counter.value
                         for cname, counter in registry.counters.items()},
            "dropped_spans": dropped,
        },
    )
    if not keep_spans:
        doc["obs"]["spans"] = []
    path = out or os.path.join(bench_output_dir(), f"BENCH_{name}.json")
    write_telemetry(path, doc)
    if dropped:
        print(f"[telemetry] WARNING: {dropped} span(s) dropped "
              f"(buffer full) — the recorded trace is incomplete")
    print(f"[telemetry] wrote {path}")
    return path
