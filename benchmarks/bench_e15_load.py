"""E15 — Open-loop load: sharded serving tier vs single-process engine.

The paper's deployment story is real-time detection under heavy load on
constrained hardware.  PR 4's :class:`~repro.serve.DetectionEngine` is a
thread pool inside one interpreter — the GIL caps the tier at roughly
one core of python glue regardless of worker count.  This benchmark
drives the same **open-loop** workload (Poisson arrivals at a fixed
offered rate, independent of service progress — the honest load model:
clients do not slow down because the server is busy) against:

* ``baseline`` — per-mission ``DetectionEngine``\\ s in one process;
* ``sharded``  — the same engines behind a
  :class:`~repro.serve.ShardRouter` across N worker processes.

The workload mixes **warm** missions (a fixed set, session-cached after
first use) with occasional **cold** missions (unique fingerprints that
always pay session construction), and spreads requests over a zipf-ish
**tenant skew**.  Both tiers see the *identical* arrival schedule,
and so does every run: it is seeded, and its rate is a committed
multiple (``OVERLOAD_FACTOR``) of a committed capacity
(``BASE_RATE_SCENES_PER_S``), not of a per-run timing.
Submission never blocks: when an engine's queue is full, or a shard has
no free scene slot, the request is shed and counted, which is what
"open loop at 4x capacity" means operationally.

**Reported per tier**: served scenes/sec, shed fraction, the
p50/p99 of served-request latency (submit to completed future), and
the peak count of threads the run added (the smoke bounds the
baseline's: it keeps a warm engine per warm mission plus one cold).

**Floor gate** (both modes, every host): the sharded tier must serve
at least as many scenes/sec as the single-process baseline — sharding
may fail to help, but it must never lose.  Each shard worker sizes its
BLAS pools to its CPU share, so the shards overlap instead of
oversubscribing the cores (see :mod:`repro.serve.shard`).

**Acceptance gate** (full mode, hosts with >= 4 CPU cores): with >= 4
shards the sharded tier must sustain **>= 3x** the baseline's served
scenes/sec at equal-or-better p99.  On smaller hosts the shards
time-slice the same core as the baseline thread pool, so the gate is
reported but not enforced (there is no parallel speedup to measure —
the run still validates transport, shedding, and aggregation).

**Always checked, both modes**: the front-end's merged ``/snapshot``
(served over HTTP by :meth:`ShardRouter.serve_metrics`) is
bit-identical to :func:`repro.obs.merge_snapshots` over the individual
shard documents fetched from each worker's own HTTP endpoint — the
cross-process aggregation property the obs layer promises.

**Merged work, both modes**: the merged snapshot counts every scene
the shards served (``engine.scenes``) and exactly the windows those
scenes yield (``detect.windows_scored``), so a merge that drops or
double-counts fails (:func:`check_merged_work`).

Telemetry lands in ``BENCH_e15_load.json`` with the cross-shard
**merged snapshot** in the ``merge`` block, so the
``benchmarks/slo/serving.json`` burn-rate gate (``repro obs slo``)
evaluates the sharded tier, not the front-end process.  Its counts are
not gated against a baseline: the open loop admits a timing-dependent
number of scenes.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e15_load.py
    PYTHONPATH=src python benchmarks/bench_e15_load.py --smoke
    PYTHONPATH=src python benchmarks/bench_e15_load.py --shards 4
"""

import json
import os
import sys
import threading
import time
import urllib.request
from collections import OrderedDict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np

from benchmarks.common import bench_output_dir, print_table
from repro.data import (
    SceneConfig,
    SceneGenerator,
    attribute_head_spec,
    get_task,
)
from repro.data.datasets import num_classes
from repro.detect import TaskDetector
from repro.kg import GraphMatcher, SimulatedLLM
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import get_registry
from repro.obs.context import request_context
from repro.obs.export import merge_snapshots
from repro.obs.registry import FP_SCALE
from repro.serve import (
    EngineConfig,
    EngineRejected,
    ShardConfig,
    ShardRejected,
    ShardRouter,
)

SEED = 20_250
WARM_TASKS = ["roadside_hazards", "cargo_audit", "valve_inspection"]
TENANTS = [f"tenant-{i}" for i in range(6)]
COLD_FRACTION = 0.05
# Closed-loop scenes/sec of one warm session, per scene grid: the
# capacity unit the offered rate is a multiple of.  Committed, not
# timed per run, so every run of every tree sees the same seeded
# arrival schedule.  Read on a 2-vCPU x86 host (grid 2: 961-1144,
# grid 3: 559-595 over three cold-process readings each).
BASE_RATE_SCENES_PER_S = {2: 1000.0, 3: 575.0}
OVERLOAD_FACTOR = 4.0
TARGET_SPEEDUP = 3.0
MIN_GATE_CPUS = 4


class SessionFactory:
    """Picklable worker factory: mission key -> ready detector.

    Mission keys are ``"<task>"`` (warm) or ``"<task>:cold<i>"`` (cold
    — a unique fingerprint that always pays session construction).
    The student model is rebuilt deterministically once per process
    and cached on the instance; each mission builds its own knowledge
    graph + matcher, which is the per-session cost cold missions pay.
    """

    def __init__(self, seed: int = SEED) -> None:
        self.seed = seed
        self._model = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_model"] = None  # never pickle models across processes
        return state

    def __call__(self, mission: str) -> TaskDetector:
        if self._model is None:
            config = ViTConfig.student(num_classes(), attribute_head_spec())
            self._model = VisionTransformer(
                config, rng=np.random.default_rng(self.seed))
        task_name = mission.split(":", 1)[0]
        kg = SimulatedLLM().generate_for_task(get_task(task_name))
        return TaskDetector(self._model, matcher=GraphMatcher(kg),
                            score_threshold=0.35)


class SingleProcessTier:
    """The baseline: per-mission engines inside this interpreter.

    Mirrors the :class:`ShardRouter` submit surface (mission-keyed,
    non-blocking shed) so the open-loop driver is tier-agnostic.
    Keeps at most ``MAX_ENGINES`` engines — one per warm mission plus
    the newest cold one — and closes the least recently used beyond
    that, so the tier measures a few engines, not one worker thread per
    cold mission ever seen.
    """

    MAX_ENGINES = len(WARM_TASKS) + 1

    def __init__(self, factory: SessionFactory,
                 engine_config: EngineConfig) -> None:
        self.factory = factory
        self.engine_config = engine_config
        self._engines = OrderedDict()
        self._created = []
        self._lock = threading.Lock()

    def _engine_for(self, mission: str):
        with self._lock:
            engine = self._engines.get(mission)
            if engine is not None:
                self._engines.move_to_end(mission)
                return engine
            from repro.serve import DetectionEngine

            engine = DetectionEngine(self.factory(mission), self.engine_config)
            self._engines[mission] = engine
            self._created.append(engine)
            if len(self._engines) > self.MAX_ENGINES:
                # Its queued jobs still run; the worker exits after them.
                self._engines.popitem(last=False)[1].close(wait=False)
            return engine

    def submit(self, scene, mission, *, block=False):
        return self._engine_for(mission).submit(scene, block=block)

    def close(self) -> None:
        for engine in self._created:
            engine.close(wait=True)


def make_schedule(duration_s: float, rate: float, rng):
    """Poisson arrival schedule: (offset_s, mission, tenant) triples.

    Mission mix: warm tasks uniform, a ``COLD_FRACTION`` of arrivals
    get a unique cold fingerprint.  Tenant skew is zipf-ish: tenant i
    is ~1/(i+1) as likely as tenant 0, so one tenant dominates — the
    regime the per-tenant fairness cap exists for.
    """
    weights = np.array([1.0 / (i + 1) for i in range(len(TENANTS))])
    weights /= weights.sum()
    schedule = []
    offset = 0.0
    cold = 0
    while True:
        offset += rng.exponential(1.0 / rate)
        if offset >= duration_s:
            return schedule
        if rng.random() < COLD_FRACTION:
            mission = f"{WARM_TASKS[cold % len(WARM_TASKS)]}:cold{cold}"
            cold += 1
        else:
            mission = WARM_TASKS[rng.integers(len(WARM_TASKS))]
        tenant = TENANTS[rng.choice(len(TENANTS), p=weights)]
        schedule.append((offset, mission, tenant))


def run_open_loop(tier, scenes, schedule, label: str):
    """Drive one tier through the arrival schedule; gather stats.

    Open loop: arrivals fire on the wall clock regardless of service
    progress.  A full engine queue, or a shard with no free slot, sheds
    the request immediately (non-blocking submit) — served throughput
    and the latency percentiles cover the requests that were actually
    admitted.
    """
    latencies = []
    futures = []
    shed = 0
    start_threads = peak_threads = threading.active_count()
    start = time.perf_counter()
    for index, (offset, mission, tenant) in enumerate(schedule):
        delay = (start + offset) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        peak_threads = max(peak_threads, threading.active_count())
        scene = scenes[index % len(scenes)]
        with request_context(name=f"{label}.request", tenant=tenant,
                             mission=mission):
            submitted = time.perf_counter()
            try:
                future = tier.submit(scene, mission, block=False)
            except (EngineRejected, ShardRejected):
                shed += 1
                continue
        future.add_done_callback(
            lambda f, t0=submitted: latencies.append(
                time.perf_counter() - t0) if f.exception() is None else None)
        futures.append(future)
    for future in futures:
        try:
            future.result(timeout=120)
        except Exception:
            pass
    elapsed = time.perf_counter() - start
    served = len(latencies)
    ordered = sorted(latencies)

    def pct(p):
        if not ordered:
            return float("nan")
        return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]

    return {
        "tier": label,
        "offered": len(schedule),
        "served": served,
        "shed": shed,
        "duration_s": elapsed,
        "served_per_s": served / elapsed if elapsed > 0 else 0.0,
        "p50_ms": pct(50) * 1e3,
        "p99_ms": pct(99) * 1e3,
        # The most threads alive at once beyond those at the start.
        "added_threads_peak": peak_threads - start_threads,
    }


def check_merge_bit_identity(router: ShardRouter) -> None:
    """Front-end merged /snapshot == merge of per-shard HTTP documents.

    Fetched over real HTTP from every worker's own ephemeral-port
    server and from the front-end aggregator, after traffic stopped
    (static counters), so the comparison is cross-process and exact.
    """
    shard_docs = []
    for url in router.shard_metrics_urls():
        with urllib.request.urlopen(url + "/snapshot", timeout=10) as resp:
            shard_docs.append(json.load(resp))
    front = router.serve_metrics()
    try:
        with urllib.request.urlopen(front.url + "/snapshot",
                                    timeout=10) as resp:
            front_doc = json.load(resp)
    finally:
        front.stop()
    expected = merge_snapshots(shard_docs)
    if json.dumps(front_doc, sort_keys=True) != \
            json.dumps(expected, sort_keys=True):
        raise AssertionError(
            "front-end merged /snapshot is not bit-identical to "
            "merge_snapshots over the per-shard documents")


def check_merged_work(tables, merged) -> None:
    """The shards' merged counters account for exactly the served work.

    ``engine.scenes`` equals the scenes the sharded tier served, and
    ``detect.windows_scored`` equals the windows those scenes yield (one
    per grid cell), so a merge that drops or double-counts fails.
    """
    served = next(row["served"] for row in tables["rows"]
                  if row["tier"] == "sharded")
    grid = tables["workload"][0]["grid"]
    counters = merged["counters"]

    def count_fp(name: str) -> int:
        return counters.get(name, {"value_fp": 0})["value_fp"]

    scenes_fp = count_fp("engine.scenes")
    assert scenes_fp == served * FP_SCALE, (
        f"merged engine.scenes {scenes_fp / FP_SCALE:g} != {served} served")
    windows_fp = count_fp("detect.windows_scored")
    assert windows_fp == grid * grid * scenes_fp, (
        f"merged detect.windows_scored {windows_fp / FP_SCALE:g} != "
        f"{grid * grid} windows x {served} scenes")


def run_experiment(smoke: bool = False, shards: int = None):
    """Both tiers through the same open-loop schedule; returns tables."""
    registry = get_registry()
    registry.reset()
    if shards is None:
        shards = 2 if smoke else 4
    duration_s = 2.0 if smoke else 8.0
    grid = 2 if smoke else 3
    factory = SessionFactory()
    scenes = SceneGenerator(SceneConfig(grid=grid),
                            seed=SEED).generate_batch(12)

    base_rate = BASE_RATE_SCENES_PER_S[grid]
    offered_rate = OVERLOAD_FACTOR * base_rate
    schedule = make_schedule(duration_s, offered_rate,
                             np.random.default_rng(SEED))

    engine_config = EngineConfig(max_batch=8, workers=1, queue_size=32)
    baseline_tier = SingleProcessTier(factory, engine_config)
    try:
        baseline = run_open_loop(baseline_tier, scenes, schedule, "baseline")
    finally:
        baseline_tier.close()

    shard_config = ShardConfig(
        num_shards=shards,
        engine=engine_config,
        max_inflight_per_tenant=None if smoke else 64,
        metrics=True,
        base_seed=SEED,
        start_method="fork",
    )
    router = ShardRouter(factory, shard_config)
    try:
        sharded = run_open_loop(router, scenes, schedule, "sharded")
        sharded["shards"] = shards
        check_merge_bit_identity(router)
        merged = router.aggregate_snapshot()
    finally:
        router.close()

    speedup = (sharded["served_per_s"] / baseline["served_per_s"]
               if baseline["served_per_s"] > 0 else float("nan"))
    rows = [baseline, sharded]
    tables = {
        "rows": rows,
        "workload": [{
            "base_rate_scenes_per_s": base_rate,
            "offered_rate_scenes_per_s": offered_rate,
            "overload_factor": OVERLOAD_FACTOR,
            "arrivals": len(schedule),
            "duration_s": duration_s,
            "grid": grid,
            "warm_tasks": len(WARM_TASKS),
            "cold_fraction": COLD_FRACTION,
            "tenants": len(TENANTS),
            "shards": shards,
            "cpus": os.cpu_count(),
            "speedup": speedup,
        }],
    }
    return tables, merged


def _print_results(tables) -> None:
    print_table("E15: open-loop workload", tables["workload"])
    print_table("E15: served throughput and latency per tier",
                tables["rows"])
    print()
    print(get_registry().report("E15 open-loop load"))


def _finalize(tables, merged) -> str:
    """Persist telemetry with the cross-shard merged snapshot as the
    ``merge`` block, so downstream SLO gates evaluate the sharded tier
    (worker registries), not this front-end process."""
    from repro.obs import build_telemetry, write_telemetry

    registry = get_registry()
    doc = build_telemetry(
        "e15_load",
        registry=registry,
        rows=tables["rows"],
        tables={"workload": tables["workload"]},
        seed=SEED,
        manifest_extra={
            "counters": {name: counter.value
                         for name, counter in registry.counters.items()},
            "dropped_spans": registry.dropped_spans,
        },
    )
    doc["merge"] = merged
    # An open-loop run records one span per arrival — tens of thousands
    # of them.  The gates read obs.timers and merge only, so keep the
    # document reviewable instead of shipping megabytes of spans.
    doc["obs"]["spans"] = []
    path = os.path.join(bench_output_dir(), "BENCH_e15_load.json")
    write_telemetry(path, doc)
    print(f"[telemetry] wrote {path}")
    return path


def test_e15_load(benchmark):
    tables, merged = benchmark.pedantic(
        run_experiment, kwargs={"smoke": True}, rounds=1, iterations=1)
    _print_results(tables)
    rows = {row["tier"]: row for row in tables["rows"]}
    assert rows["sharded"]["served"] > 0
    assert rows["baseline"]["served"] > 0
    # Open loop at 4x capacity must actually shed somewhere.
    assert rows["baseline"]["shed"] > 0
    # The baseline's live engines, plus evicted ones still draining
    # their queues — not one worker thread per cold mission (hundreds).
    assert (rows["baseline"]["added_threads_peak"]
            <= 8 * SingleProcessTier.MAX_ENGINES)
    check_merged_work(tables, merged)


def main():
    smoke = "--smoke" in sys.argv[1:]
    shards = None
    if "--shards" in sys.argv[1:]:
        shards = int(sys.argv[sys.argv.index("--shards") + 1])
    tables, merged = run_experiment(smoke=smoke, shards=shards)
    _print_results(tables)
    _finalize(tables, merged)
    check_merged_work(tables, merged)
    workload = tables["workload"][0]
    rows = {row["tier"]: row for row in tables["rows"]}
    speedup = workload["speedup"]
    failed = False
    if not speedup >= 1.0:  # NaN (nothing served) fails too
        print(f"FAIL: sharded tier served "
              f"{rows['sharded']['served_per_s']:.1f} scenes/s, below the "
              f"single-process tier's {rows['baseline']['served_per_s']:.1f}")
        failed = True
    if smoke:
        return 1 if failed else 0
    p99_ok = rows["sharded"]["p99_ms"] <= rows["baseline"]["p99_ms"]
    cpus = os.cpu_count() or 1
    if cpus < MIN_GATE_CPUS:
        print(f"NOTE: host has {cpus} CPU core(s) < {MIN_GATE_CPUS}; the "
              f">= {TARGET_SPEEDUP:.0f}x gate is reported, not enforced "
              f"(measured {speedup:.2f}x, p99 "
              f"{'<=' if p99_ok else '>'} baseline)")
        return 1 if failed else 0
    if speedup < TARGET_SPEEDUP:
        print(f"WARNING: sharded tier sustained {speedup:.2f}x baseline "
              f"scenes/sec (target >= {TARGET_SPEEDUP:.0f}x with "
              f"{workload['shards']} shards)")
        failed = True
    if not p99_ok:
        print(f"WARNING: sharded p99 {rows['sharded']['p99_ms']:.1f}ms > "
              f"baseline p99 {rows['baseline']['p99_ms']:.1f}ms")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
