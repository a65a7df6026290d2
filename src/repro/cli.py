"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tasks``
    list the mission library (name, domain, predicate summary).
``graph --task NAME``
    show the knowledge graph the simulated LLM extracts for a mission
    (ASCII tree; ``--dot`` for Graphviz source).
``detect --task NAME``
    run task-oriented detection on a generated scene with the cached
    quantized configuration; optionally export an annotated PPM.
``simulate``
    compile the quantized model to the accelerator and print the
    performance/energy report plus the GPU-baseline comparison.
``models``
    list the trained models in the artifact cache.
``artifacts {list,verify,gc}``
    inspect and maintain the checkpoint cache: per-entry integrity
    status, a full verification sweep (non-zero exit on corruption, for
    CI), and garbage collection of quarantined/temp/lock files.
``engine serve``
    sharded serving: N engine worker processes behind a routing
    front-end, with the merged cross-shard metrics endpoint.
``obs {report,export,trace,compare,serve,top,slo}``
    the telemetry family: render a ``BENCH_*.json`` (manifest + per-stage
    p50/p90/p99 + counters), run an instrumented detection workload and
    persist its telemetry, convert a telemetry file's spans to Chrome
    trace-event JSON for Perfetto, gate one run's work counters
    against a baseline's (non-zero exit on any change, for CI), serve live
    Prometheus ``/metrics`` + ``/healthz`` + ``/slo`` over stdlib HTTP
    (optionally driving demo engine traffic), watch interval rates and
    percentiles from a running server's ``/snapshot``, and evaluate SLO
    burn against telemetry files (``--gate`` for CI).
``fuzz {run,replay,corpus}``
    the differential scenario fuzzer: sweep seeded generated scenarios
    across the float/quantized/batched/engine/streaming paths (non-zero
    exit + replayable JSON case files on any oracle divergence),
    deterministically replay a recorded case, and re-check the committed
    seed corpus.
``stream run``
    incremental streaming detection: drive a delta-gated streaming
    detector over a generated multi-frame sequence (per-frame track and
    gate-hit summary).
``cascade {route,calibrate,show}``
    the adaptive dual-config cascade: route generated scenes through
    quantized-first detection with margin-triggered specialist
    escalation (per-scene decision audit), sweep the recovery/cost
    frontier to calibrate the margin threshold (optionally persisting
    it in the artifact registry), and inspect stored calibrations.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_tasks(args: argparse.Namespace) -> int:
    from repro.data import TASK_LIBRARY

    for name, task in TASK_LIBRARY.items():
        families = ", ".join(task.predicate.constrained_families)
        print(f"{name:<22} [{task.domain:<10}] constrains: {families}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.data import get_task
    from repro.kg import SimulatedLLM
    from repro.kg.visualize import render_ascii, render_dot

    task = get_task(args.task)
    kg = SimulatedLLM().generate_for_task(task)
    print(render_dot(kg) if args.dot else render_ascii(kg))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.core import ArtifactBuilder, ITaskPipeline, TaskSpec
    from repro.data import SceneConfig, SceneGenerator, get_task

    task = get_task(args.task)
    builder = ArtifactBuilder(seed=args.seed)
    pipeline = ITaskPipeline(builder.quantized())
    spec = TaskSpec.from_definition(task)
    scene = SceneGenerator(SceneConfig(), seed=args.scene_seed).generate()
    detections = pipeline.detect(spec, scene)

    relevant = sum(task.matches(obj.profile) for obj in scene.objects)
    print(f"scene: {len(scene.objects)} objects, {relevant} task-relevant")
    print(f"detections ({len(detections)}):")
    for det in detections:
        print(f"  bbox={det.bbox} score={det.score:.3f} "
              f"objectness={det.objectness:.3f} task={det.task_score:.3f}")
    if args.out:
        from repro.data.io import export_scene

        export_scene(scene, args.out, detections)
        print(f"annotated scene written to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core import ArtifactBuilder
    from repro.hw import (
        AcceleratorConfig,
        Compiler,
        GPUConfig,
        GPUModel,
        Simulator,
        estimate_area,
        streaming_comparison,
    )

    builder = ArtifactBuilder(seed=args.seed)
    quantized = builder.quantized().model
    config = AcceleratorConfig.edge_default()
    program = Compiler(config).compile(quantized, batch=args.batch)
    print(program.summary())
    report = Simulator(config).simulate(program)
    print(report.summary())
    print(estimate_area(config).summary())
    gpu = GPUModel(GPUConfig.jetson_class()).simulate(quantized.config,
                                                     batch=args.batch)
    print(gpu.summary())
    comparison = streaming_comparison(report.latency_s, gpu.latency_s)
    print(f"speedup {comparison['speedup']:.2f}x, streaming energy "
          f"reduction {comparison['energy_reduction_pct']:.1f} %")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.core import ModelRegistry, default_artifact_dir

    registry = ModelRegistry(default_artifact_dir())
    names = registry.names()
    if not names:
        print("artifact cache is empty (models train on first use)")
        return 0
    for name in names:
        try:
            meta = registry.metadata(name)
        except ValueError:  # json.JSONDecodeError subclasses ValueError
            print(f"{name:<48} (unreadable meta — run `repro artifacts verify`)")
            continue
        print(f"{name:<48} dim={meta.get('dim')} depth={meta.get('depth')} "
              f"task_head={meta.get('with_task_head', False)}")
    return 0


def _artifact_registry(args: argparse.Namespace):
    from repro.core import ModelRegistry, default_artifact_dir

    return ModelRegistry(args.dir or default_artifact_dir())


def _cmd_artifacts_list(args: argparse.Namespace) -> int:
    registry = _artifact_registry(args)
    statuses = registry.statuses()
    if not statuses:
        print(f"artifact cache at {registry.root} is empty "
              "(models train on first use)")
        return 0
    width = max(len(s.name) for s in statuses)
    for status in statuses:
        label = "ok" if status.ok else "CORRUPT"
        size = (os.path.getsize(status.weights_path)
                if os.path.exists(status.weights_path) else 0)
        print(f"{status.name.ljust(width)}  {label:<8} {size:>9d} B")
        for problem in status.problems if not status.ok else []:
            print(f"{' ' * width}  - {problem}")
    return 0


def _cmd_artifacts_verify(args: argparse.Namespace) -> int:
    registry = _artifact_registry(args)
    statuses = registry.statuses()
    bad = [s for s in statuses if not s.ok]
    for status in statuses:
        marker = "ok     " if status.ok else "CORRUPT"
        print(f"[{marker}] {status.name}")
        for problem in status.problems if not status.ok else []:
            print(f"          {problem}")
    print(f"{len(statuses)} entr{'y' if len(statuses) == 1 else 'ies'}, "
          f"{len(bad)} corrupt ({registry.root})")
    if bad and args.quarantine:
        for status in bad:
            moved = registry.quarantine(status.name)
            for path in moved:
                print(f"quarantined {path}")
    return 1 if bad else 0


def _cmd_artifacts_gc(args: argparse.Namespace) -> int:
    registry = _artifact_registry(args)
    if args.dry_run:
        from repro.core.registry import _lock_is_held

        candidates = [
            os.path.join(registry.root, fname)
            for fname in sorted(os.listdir(registry.root))
            if (fname.endswith(".tmp")
                or (fname.endswith(".lock")
                    and not _lock_is_held(os.path.join(registry.root, fname))))
        ]
        if os.path.isdir(registry.quarantine_root):
            candidates += [
                os.path.join(registry.quarantine_root, fname)
                for fname in sorted(os.listdir(registry.quarantine_root))
            ]
        for path in candidates:
            print(f"would remove {path}")
        print(f"{len(candidates)} file(s) would be removed")
        return 0
    removed = registry.gc(remove_quarantine=not args.keep_quarantine)
    for path in removed:
        print(f"removed {path}")
    print(f"{len(removed)} file(s) removed")
    return 0


# ----------------------------------------------------------------------
# obs: telemetry report / export / trace / compare
# ----------------------------------------------------------------------
def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import load_telemetry
    from repro.obs.registry import render_report

    doc = load_telemetry(args.file)
    manifest = doc.get("manifest", {})
    print(f"bench    : {doc.get('bench')}")
    print(f"recorded : {manifest.get('timestamp_utc')} on "
          f"{manifest.get('hostname')} ({manifest.get('platform')})")
    sha = manifest.get("git_sha") or "?"
    dirty = " (dirty)" if manifest.get("git_dirty") else ""
    print(f"commit   : {sha[:12]}{dirty}  branch={manifest.get('git_branch')}  "
          f"seed={manifest.get('seed')}")
    print()
    print(render_report(doc.get("obs", {}), str(doc.get("bench"))))
    spans = doc.get("obs", {}).get("spans", [])
    rows = doc.get("rows", [])
    tables = doc.get("tables", {}) or {}
    print(f"\n{len(spans)} span(s), {len(rows)} result row(s), "
          f"{len(tables)} extra table(s)")
    dropped = doc.get("obs", {}).get("dropped_spans",
                                     manifest.get("dropped_spans", 0))
    if dropped:
        print(f"WARNING: {dropped} span(s) dropped during the run — "
              f"the span list above is incomplete")
    return 0


def _cmd_engine_serve(args: argparse.Namespace) -> int:
    """Sharded serving: N engine processes behind a routing front-end.

    Workers rebuild their sessions from the artifact registry (see
    :class:`repro.serve.TaskSessionFactory`), each exposes its own
    ephemeral-port metrics endpoint, and the front-end serves the
    merged cross-shard ``/snapshot`` — point ``repro obs top`` at the
    front-end URL, or at every shard URL to merge client-side.
    """
    import time

    from repro.data import SceneConfig, SceneGenerator
    from repro.obs.context import request_context
    from repro.obs.registry import FP_SCALE
    from repro.serve import (
        EngineConfig,
        ShardConfig,
        ShardRejected,
        ShardRouter,
        TaskSessionFactory,
    )

    tasks = [name.strip() for name in args.tasks.split(",") if name.strip()]
    factory = TaskSessionFactory(seed=args.seed, cascade=args.cascade)
    config = ShardConfig(
        num_shards=args.shards,
        engine=EngineConfig(max_batch=args.max_batch, workers=args.workers),
        metrics=True,
        base_seed=args.seed,
    )
    router = ShardRouter(factory, config)
    front = router.serve_metrics(host=args.host, port=args.port)
    try:
        for info in router.shard_info():
            print(f"shard {info['shard']}: pid={info['pid']} "
                  f"metrics={info['metrics_url']} seed={info['seed']}")
        print(f"front-end (merged): {front.url}/snapshot")
        scenes = [SceneGenerator(SceneConfig(grid=args.grid),
                                 seed=seed).generate()
                  for seed in range(8)]
        served = rejected = 0
        for i in range(args.scenes):
            mission = tasks[i % len(tasks)]
            with request_context(name="serve.request", tenant="cli",
                                 mission=mission):
                try:
                    future = router.submit(scenes[i % len(scenes)], mission)
                except ShardRejected:
                    rejected += 1
                    continue
            future.result()
            served += 1
        print(f"served {served} scene(s) across {len(tasks)} mission(s), "
              f"{rejected} shed")
        merged = router.aggregate_snapshot()
        for name in ("engine.scenes", "engine.batches", "engine.rejected",
                     "session.cache.miss", "session.cache.hit"):
            state = merged.get("counters", {}).get(name)
            if state:
                print(f"  {name} = {state['value_fp'] / FP_SCALE:g}")
        if args.hold:
            print(f"holding for {args.hold:g}s — scrape away (Ctrl-C to "
                  "stop early)")
            try:
                time.sleep(args.hold)
            except KeyboardInterrupt:
                pass
    finally:
        front.stop()
        router.close()
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    import numpy as np

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
    from repro.obs import build_telemetry, get_registry, write_telemetry

    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    kg = SimulatedLLM().generate_for_task(get_task(args.task))
    detector = TaskDetector(model, matcher=GraphMatcher(kg),
                            score_threshold=0.0)
    scene = SceneGenerator(SceneConfig(grid=args.grid),
                           seed=args.scene_seed).generate()
    registry = get_registry()
    registry.reset()
    detections = 0
    for _ in range(args.repeats):
        detections = len(detector.detect(scene))
    total = registry.timer("detect.batch_total")
    rows = [{
        "task": args.task,
        "grid": args.grid,
        "repeats": args.repeats,
        "detections": detections,
        "p50_ms": total.percentile(50.0) * 1e3,
        "p99_ms": total.percentile(99.0) * 1e3,
    }]
    doc = build_telemetry("obs_export", registry=registry, rows=rows,
                          seed=args.scene_seed)
    path = write_telemetry(args.out, doc)
    print(registry.report(f"obs export ({args.task}, {args.grid}x{args.grid})"))
    print(f"telemetry written to {path}")
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import chrome_trace, load_telemetry

    doc = load_telemetry(args.file)
    spans = doc.get("obs", {}).get("spans", [])
    if not spans:
        print(f"{args.file}: no spans recorded — nothing to trace",
              file=sys.stderr)
        return 1
    trace = chrome_trace(spans, process_name=doc.get("bench") or "repro")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=2, allow_nan=False)
    print(f"{len(spans)} span(s) -> {args.out} "
          "(open in https://ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_obs_compare(args: argparse.Namespace) -> int:
    from repro.obs import compare_telemetry, load_telemetry

    comparison = compare_telemetry(load_telemetry(args.baseline),
                                   load_telemetry(args.current))
    print(comparison.summary())
    return 0 if comparison.ok else 1


def _cmd_obs_serve(args: argparse.Namespace) -> int:
    import time

    from repro.obs import get_registry
    from repro.obs.export import MetricsServer
    from repro.obs.series import SeriesRecorder
    from repro.obs.slo import default_slos, load_slos

    registry = get_registry()
    series = registry.series
    if series is None:
        series = SeriesRecorder()
        registry.attach_series(series)
    slos = load_slos(args.slo_config) if args.slo_config else default_slos()
    server = MetricsServer(registry, host=args.host, port=args.port,
                           series=series, slos=slos)
    server.start()
    print(f"metrics  : {server.url}/metrics")
    print(f"health   : {server.url}/healthz")
    print(f"slo      : {server.url}/slo")
    print(f"snapshot : {server.url}/snapshot")
    try:
        if args.demo:
            return _obs_demo_traffic(args)
        print("idle registry — scrape away (Ctrl-C to stop)")
        deadline = (time.monotonic() + args.duration
                    if args.duration else None)
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _obs_demo_traffic(args: argparse.Namespace) -> int:
    """Drive request-scoped engine traffic so ``/metrics`` shows a live
    serving path (scraping an idle registry demonstrates nothing)."""
    import time

    import numpy as np

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
    from repro.obs.context import request_context
    from repro.obs.sampler import ExemplarSampler, install_sampler
    from repro.serve.engine import DetectionEngine, EngineConfig

    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    kg = SimulatedLLM().generate_for_task(get_task(args.task))
    detector = TaskDetector(model, matcher=GraphMatcher(kg),
                            score_threshold=0.0)
    scenes = [SceneGenerator(SceneConfig(grid=args.grid),
                             seed=seed).generate() for seed in range(5)]
    previous = install_sampler(ExemplarSampler())
    engine = DetectionEngine(detector,
                             EngineConfig(max_batch=4, workers=2))
    deadline = time.monotonic() + args.duration if args.duration else None
    served = 0
    print(f"demo traffic: task={args.task} grid={args.grid} "
          "(Ctrl-C to stop)")
    try:
        while deadline is None or time.monotonic() < deadline:
            with request_context(name="demo.request", tenant="demo"):
                engine.submit(scenes[served % len(scenes)]).result()
            served += 1
    finally:
        engine.close()
        install_sampler(previous)
        print(f"served {served} demo scene(s)")
    return 0


def _fetch_merged_snapshot(urls, timeout: float = 5.0):
    """Fetch ``/snapshot`` from each base URL and merge the documents.

    One URL degenerates to that endpoint's own document re-normalized
    through :func:`repro.obs.merge_snapshots` (an exact identity on the
    accumulator state); several URLs — e.g. every shard of a
    ``repro engine serve`` deployment — merge bit-exactly, so terminal
    totals match a single-process run of the same workload.
    """
    import json
    import urllib.request

    from repro.obs.export import merge_snapshots

    docs = []
    for url in urls:
        endpoint = url.rstrip("/") + "/snapshot"
        with urllib.request.urlopen(endpoint, timeout=timeout) as resp:
            docs.append(json.load(resp))
    return merge_snapshots(docs)


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time
    import urllib.error

    from repro.obs.export import snapshot_delta, timer_state_stats
    from repro.obs.registry import FP_SCALE

    urls = args.url or ["http://127.0.0.1:9464"]
    if len(urls) > 1:
        print(f"merging {len(urls)} endpoints: {', '.join(urls)}")
    previous = None
    frames = 0
    try:
        while args.frames is None or frames < args.frames:
            try:
                snapshot = _fetch_merged_snapshot(urls)
            except (urllib.error.URLError, OSError) as exc:
                print(f"cannot reach snapshot endpoint(s): {exc}",
                      file=sys.stderr)
                return 1
            if previous is not None:
                delta = snapshot_delta(snapshot, previous)
                timers = {name: timer_state_stats(state)
                          for name, state in delta["timers"].items()
                          if state["calls"]}
                print(f"\n-- last {args.interval:g}s --")
                if not timers:
                    print("(no stage activity)")
                else:
                    width = max(len(name) for name in timers)
                    print(f"{'stage'.ljust(width)} | {'calls':>6} | "
                          f"{'rate/s':>7} | {'p50 ms':>9} | {'p99 ms':>9} | "
                          f"{'total ms':>10}")
                    for name, stats in sorted(
                            timers.items(), key=lambda kv: -kv[1]["total_s"]):
                        print(f"{name.ljust(width)} | {stats['calls']:>6} | "
                              f"{stats['calls'] / args.interval:>7.1f} | "
                              f"{stats['p50_s'] * 1e3:>9.3f} | "
                              f"{stats['p99_s'] * 1e3:>9.3f} | "
                              f"{stats['total_s'] * 1e3:>10.3f}")
                counters = {name: state["value_fp"] / FP_SCALE
                            for name, state in delta["counters"].items()
                            if state["value_fp"]}
                if counters:
                    width = max(len(name) for name in counters)
                    for name, value in sorted(counters.items()):
                        print(f"{name.ljust(width)} | +{value:g}")
                if delta.get("dropped_spans"):
                    print(f"!! dropped spans: +{delta['dropped_spans']}")
                frames += 1
            previous = snapshot
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs import load_telemetry
    from repro.obs.slo import (
        default_slos,
        evaluate_telemetry,
        format_statuses,
        load_slos,
    )

    slos = load_slos(args.config) if args.config else default_slos()
    failed = False
    for path in args.file:
        statuses = evaluate_telemetry(slos, load_telemetry(path))
        print(format_statuses(statuses, title=f"SLO: {path}"))
        if any(not status.ok for status in statuses):
            failed = True
    if failed:
        print("\nSLO objectives violated" +
              ("" if args.gate else " (advisory — pass --gate to fail)"))
    return 1 if failed and args.gate else 0


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzz import run_campaign

    report = run_campaign(
        seed=args.seed,
        budget=args.budget,
        artifacts_dir=args.artifacts_dir,
        shrink=not args.no_shrink,
        log=print,
    )
    status = "OK" if report.ok else "DIVERGENT"
    print(f"fuzz run: {report.executed} scenarios from seed {report.seed} "
          f"-> {len(report.failures)} divergent [{status}]")
    for path in report.case_paths:
        print(f"  case file: {path}")
    return 0 if report.ok else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzz import ModelCache, load_case, replay_case
    from repro.fuzz.runner import failing_oracles

    cache = ModelCache()
    exit_code = 0
    for path in args.case:
        case = load_case(path)
        result = replay_case(case, cache=cache)
        recorded = sorted({d["oracle"] for d in case.get("divergences", [])})
        if result.ok:
            print(f"{path}: no divergence"
                  + (f" (recorded: {', '.join(recorded)} — fixed)"
                     if recorded else ""))
            continue
        exit_code = 1
        print(f"{path}: DIVERGENT in {', '.join(failing_oracles(result))}")
        for divergence in result.divergences[:args.max_print]:
            print(f"  [{divergence.oracle}] {divergence.message}")
        hidden = len(result.divergences) - args.max_print
        if hidden > 0:
            print(f"  ... and {hidden} more")
    return exit_code


def _cmd_fuzz_corpus(args: argparse.Namespace) -> int:
    from repro.fuzz import ModelCache, iter_corpus, run_scenario
    from repro.fuzz.runner import failing_oracles

    cache = ModelCache()
    checked = 0
    failures = 0
    for path, spec in iter_corpus(args.dir):
        checked += 1
        result = run_scenario(spec, cache=cache)
        if result.ok:
            print(f"{path.name}: ok")
            continue
        failures += 1
        print(f"{path.name}: DIVERGENT in "
              f"{', '.join(failing_oracles(result))}")
        for divergence in result.divergences[:args.max_print]:
            print(f"  [{divergence.oracle}] {divergence.message}")
    if checked == 0:
        print("no corpus case files found")
        return 1
    print(f"corpus: {checked} cases, {failures} divergent")
    return 0 if failures == 0 else 1


def _stream_model_matcher(args: argparse.Namespace):
    """(model, matcher, task) for ``stream run``.

    ``--untrained`` builds a fresh random student (hermetic, no artifact
    cache) — score *reuse* is what the command exercises, and the delta
    gate's bit-exactness contract is weight-independent.
    """
    from repro.data import get_task
    from repro.kg import GraphMatcher, SimulatedLLM

    task = get_task(args.task)
    kg = SimulatedLLM().generate_for_task(task)
    matcher = GraphMatcher(kg)
    if args.untrained:
        import numpy as np

        from repro.data import attribute_head_spec
        from repro.data.datasets import num_classes
        from repro.nn import VisionTransformer, ViTConfig
        from repro.quant.vit import quantize_vit

        config = ViTConfig.student(num_classes(), attribute_head_spec())
        model = VisionTransformer(config, rng=np.random.default_rng(args.seed))
        model.eval()
        rng = np.random.default_rng(args.seed + 1)
        calibration = rng.uniform(
            0.0, 1.0, (16, 3, config.image_size, config.image_size),
        ).astype(np.float32)
        return quantize_vit(model, calibration), matcher, task
    from repro.core import ArtifactBuilder

    return ArtifactBuilder(seed=args.seed).quantized().model, matcher, task


def _cmd_stream_run(args: argparse.Namespace) -> int:
    from repro.data import SceneConfig
    from repro.stream import (
        SceneSequence,
        SequenceConfig,
        StreamingDetector,
        TrackerConfig,
    )

    model, matcher, task = _stream_model_matcher(args)
    scene = SceneConfig(grid=args.grid)
    sequence = SceneSequence(
        SequenceConfig(scene=scene, motion_rate=args.motion_rate),
        seed=args.scene_seed)
    config = TrackerConfig(delta_gate=not args.no_delta_gate,
                           motion_threshold=args.motion_threshold,
                           refresh_every=args.refresh_every)
    detector = StreamingDetector(model, matcher, config=config)
    print(f"stream run: task={args.task} grid={args.grid} "
          f"motion_rate={args.motion_rate:g} "
          f"delta_gate={config.delta_gate} "
          f"refresh_every={config.refresh_every}")
    for state in sequence.frames(args.frames):
        tracks = detector.update(state.scene)
        relevant = sum(task.matches(obj.profile)
                       for obj in state.scene.objects)
        cells = ", ".join(str(t.cell) for t in
                          sorted(tracks, key=lambda t: t.track_id))
        print(f"  frame {state.index:>3}: objects={len(state.scene.objects):<2} "
              f"relevant={relevant:<2} tracks={len(tracks):<2} "
              f"births={len(state.births)} deaths={len(state.deaths)}"
              + (f"  [{cells}]" if cells else ""))
    stats = detector.gate_stats
    if config.delta_gate:
        print(f"delta gate: {stats.skipped} skipped "
              f"({stats.carried} carried) / "
              f"{stats.skipped + stats.recomputed} cells "
              f"-> hit rate {stats.hit_rate:.1%}")
    return 0


def _cmd_cascade_route(args: argparse.Namespace) -> int:
    from repro.cascade import CalibrationStore, CascadeConfig
    from repro.core import ArtifactBuilder, ITaskPipeline, TaskSpec
    from repro.data import SceneConfig, SceneGenerator, get_task
    from repro.kg import SimulatedLLM
    from repro.obs import get_registry

    task = get_task(args.task)
    builder = ArtifactBuilder(seed=args.seed)
    pipeline = ITaskPipeline(builder.quantized())
    pipeline.register_specialist(args.task,
                                 builder.task_student_by_name(args.task),
                                 SimulatedLLM().generate_for_task(task))

    threshold, source = args.threshold, "--threshold"
    if threshold is None:
        store = CalibrationStore(builder.registry)
        if store.exists(args.task):
            threshold = store.load(args.task).margin_threshold
            source = "stored calibration"
        else:
            threshold = CascadeConfig().margin_threshold
            source = "default"
    config = CascadeConfig(margin_threshold=threshold,
                           max_escalation_fraction=args.max_escalation)
    session = pipeline.cascade_session(TaskSpec.from_definition(task),
                                       config=config)
    scenes = SceneGenerator(SceneConfig(), seed=args.scene_seed).generate_batch(
        args.scenes)
    results, decisions = session.route_batch(scenes)
    print(f"cascade over {len(scenes)} scenes "
          f"(threshold={threshold:.3f} from {source}, "
          f"budget={args.max_escalation:g})")
    for dets, decision in zip(results, decisions):
        print(f"  scene {decision.scene_index:>3}: {decision.route:<9} "
              f"margin={decision.margin:.3f} detections={len(dets):<3} "
              f"[{decision.reason}]")
    counts = session.route_counts()
    print("routes: " + ", ".join(f"{route}={count}"
                                 for route, count in sorted(counts.items())))
    print(f"cascade task accuracy: {session.evaluate(scenes):.4f}")
    counters = get_registry().counters
    observed = {name: int(counter.value)
                for name, counter in sorted(counters.items())
                if name.startswith("cascade.")}
    if observed:
        print("obs counters: " + ", ".join(f"{k}={v}"
                                           for k, v in observed.items()))
    return 0


def _cmd_cascade_calibrate(args: argparse.Namespace) -> int:
    from repro.cascade import CalibrationStore, calibrate_margin_threshold
    from repro.core import ArtifactBuilder
    from repro.data import SceneConfig, SceneGenerator, get_task
    from repro.detect import TaskDetector
    from repro.hw import escalation_cost
    from repro.kg import GraphMatcher, SimulatedLLM

    task = get_task(args.task)
    builder = ArtifactBuilder(seed=args.seed)
    fast_model = builder.quantized().model
    spec_model = builder.task_student_by_name(args.task).model
    ratio = args.cost_ratio or escalation_cost(
        fast_model, spec_model.config)["cost_ratio"]
    kg = SimulatedLLM().generate_for_task(task)
    fast = TaskDetector(fast_model, matcher=GraphMatcher(kg),
                        score_threshold=args.score_threshold)
    spec = TaskDetector(spec_model, matcher=GraphMatcher(kg),
                        score_threshold=args.score_threshold)
    scenes = SceneGenerator(SceneConfig(), seed=args.scene_seed).generate_batch(
        args.scenes)
    calibration = calibrate_margin_threshold(
        fast, spec, scenes, task,
        fast_cost=1.0, specialist_cost=ratio,
        target_recovery=args.target_recovery,
        max_relative_cost=args.max_cost,
    )
    print(f"calibrated {args.task} on {len(scenes)} scenes "
          f"(escalation costs {ratio:.2f}x the fast path)")
    print(f"  fast acc       : {calibration.fast_accuracy:.4f}")
    print(f"  specialist acc : {calibration.specialist_accuracy:.4f}")
    print(f"  threshold      : {calibration.margin_threshold:.4f}")
    print(f"  escalation     : {calibration.escalation_fraction:.1%}")
    print(f"  recovery       : {calibration.recovery:.1%} "
          f"(target {calibration.target_recovery:.0%})")
    print(f"  relative cost  : {calibration.relative_cost:.1%} "
          f"(cap {calibration.max_relative_cost:.0%})")
    print(f"  meets targets  : {calibration.meets_targets}")
    if args.frontier:
        print(f"\n  {'threshold':>9} | {'escalation':>10} | "
              f"{'recovery':>8} | {'rel cost':>8}")
        for point in calibration.frontier:
            print(f"  {point.margin_threshold:>9.4f} | "
                  f"{point.escalation_fraction:>10.1%} | "
                  f"{point.recovery:>8.1%} | {point.relative_cost:>8.1%}")
    if args.save:
        path = CalibrationStore(builder.registry).save(args.task, calibration)
        print(f"\nsaved to {path}")
    return 0 if calibration.meets_targets or not args.gate else 1


def _cmd_cascade_show(args: argparse.Namespace) -> int:
    from repro.cascade import CalibrationStore
    from repro.core import ModelRegistry, default_artifact_dir

    store = CalibrationStore(ModelRegistry(args.dir or default_artifact_dir()))
    names = store.names()
    if args.name is None:
        if not names:
            print(f"no calibrations stored under {store.root}")
            return 0
        width = max(len(name) for name in names)
        for name in names:
            cal = store.load(name)
            marker = "meets" if cal.meets_targets else "     "
            print(f"{name.ljust(width)}  thr={cal.margin_threshold:.4f} "
                  f"esc={cal.escalation_fraction:>5.1%} "
                  f"rec={cal.recovery:>5.1%} cost={cal.relative_cost:>5.1%} "
                  f"[{marker}] n={cal.num_scenes}")
        return 0
    import json

    print(json.dumps(store.load(args.name).to_dict(), indent=2,
                     sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iTask reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tasks", help="list the mission library").set_defaults(
        func=_cmd_tasks)

    graph = sub.add_parser("graph", help="show a mission's knowledge graph")
    graph.add_argument("--task", required=True)
    graph.add_argument("--dot", action="store_true",
                       help="emit Graphviz DOT instead of ASCII")
    graph.set_defaults(func=_cmd_graph)

    detect = sub.add_parser("detect", help="detect on a generated scene")
    detect.add_argument("--task", required=True)
    detect.add_argument("--seed", type=int, default=0,
                        help="artifact cache seed")
    detect.add_argument("--scene-seed", type=int, default=42)
    detect.add_argument("--out", default=None,
                        help="write annotated scene PPM here")
    detect.set_defaults(func=_cmd_detect)

    simulate = sub.add_parser("simulate",
                              help="accelerator + GPU performance report")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--batch", type=int, default=1)
    simulate.set_defaults(func=_cmd_simulate)

    sub.add_parser("models", help="list cached models").set_defaults(
        func=_cmd_models)

    artifacts = sub.add_parser(
        "artifacts", help="inspect and maintain the checkpoint cache")
    artifacts_sub = artifacts.add_subparsers(dest="artifacts_command",
                                             required=True)
    art_list = artifacts_sub.add_parser(
        "list", help="per-entry integrity status and size")
    art_list.add_argument("--dir", default=None,
                          help="cache directory (default: REPRO_ARTIFACT_DIR "
                               "or the repo's .artifacts/)")
    art_list.set_defaults(func=_cmd_artifacts_list)

    art_verify = artifacts_sub.add_parser(
        "verify", help="verify every entry; exit 1 if any is corrupt")
    art_verify.add_argument("--dir", default=None)
    art_verify.add_argument("--quarantine", action="store_true",
                            help="move corrupt entries to quarantine/")
    art_verify.set_defaults(func=_cmd_artifacts_verify)

    art_gc = artifacts_sub.add_parser(
        "gc", help="remove temp/lock files and quarantined checkpoints")
    art_gc.add_argument("--dir", default=None)
    art_gc.add_argument("--dry-run", action="store_true")
    art_gc.add_argument("--keep-quarantine", action="store_true",
                        help="only remove temp/lock leftovers")
    art_gc.set_defaults(func=_cmd_artifacts_gc)

    engine = sub.add_parser(
        "engine", help="serving-engine utilities (micro-batched detection)")
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    engine_serve = engine_sub.add_parser(
        "serve",
        help="sharded serving: N engine processes behind a routing "
             "front-end with merged metrics")
    engine_serve.add_argument("--shards", type=int, default=2,
                              help="worker processes")
    engine_serve.add_argument("--tasks",
                              default="roadside_hazards,cargo_audit",
                              help="comma-separated missions to serve")
    engine_serve.add_argument("--scenes", type=int, default=32,
                              help="scenes to drive through the tier")
    engine_serve.add_argument("--grid", type=int, default=3)
    engine_serve.add_argument("--seed", type=int, default=0,
                              help="artifact/base seed")
    engine_serve.add_argument("--max-batch", type=int, default=8,
                              help="per-shard engine max_batch")
    engine_serve.add_argument("--workers", type=int, default=1,
                              help="threads per shard engine")
    engine_serve.add_argument("--cascade", action="store_true",
                              help="serve each mission through the "
                                   "cascade router")
    engine_serve.add_argument("--host", default="127.0.0.1",
                              help="front-end aggregator host")
    engine_serve.add_argument("--port", type=int, default=0,
                              help="front-end aggregator port "
                                   "(0 = ephemeral)")
    engine_serve.add_argument("--hold", type=float, default=None,
                              help="seconds to keep serving metrics "
                                   "after the workload")
    engine_serve.set_defaults(func=_cmd_engine_serve)

    obs = sub.add_parser(
        "obs", help="telemetry: report, export, trace, compare, serve, "
                    "top, slo")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_sub.add_parser(
        "report", help="render a BENCH_*.json telemetry file")
    obs_report.add_argument("file", help="telemetry JSON path")
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_export = obs_sub.add_parser(
        "export",
        help="run an instrumented detection workload and persist telemetry")
    obs_export.add_argument("--task", default="roadside_hazards")
    obs_export.add_argument("--grid", type=int, default=8,
                            help="scene grid (cells per side)")
    obs_export.add_argument("--repeats", type=int, default=3)
    obs_export.add_argument("--scene-seed", type=int, default=7)
    obs_export.add_argument("--out", default="BENCH_obs_export.json")
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_trace = obs_sub.add_parser(
        "trace",
        help="convert a telemetry file's spans to Chrome trace-event JSON")
    obs_trace.add_argument("file", help="telemetry JSON path")
    obs_trace.add_argument("--out", default="trace.json")
    obs_trace.set_defaults(func=_cmd_obs_trace)

    obs_compare = obs_sub.add_parser(
        "compare",
        help="gate a telemetry file's work counters against a baseline's, "
             "exactly; exit 1 on any change or missing counter")
    obs_compare.add_argument("baseline")
    obs_compare.add_argument("current")
    obs_compare.set_defaults(func=_cmd_obs_compare)

    obs_serve = obs_sub.add_parser(
        "serve",
        help="stdlib HTTP server: /metrics (Prometheus), /healthz, /slo, "
             "/snapshot")
    obs_serve.add_argument("--host", default="127.0.0.1")
    obs_serve.add_argument("--port", type=int, default=9464,
                           help="listen port (0 = ephemeral)")
    obs_serve.add_argument("--duration", type=float, default=None,
                           help="seconds to serve (default: until Ctrl-C)")
    obs_serve.add_argument("--demo", action="store_true",
                           help="drive request-scoped engine traffic while "
                                "serving, so scrapes show a live hot path")
    obs_serve.add_argument("--task", default="roadside_hazards",
                           help="demo traffic mission")
    obs_serve.add_argument("--grid", type=int, default=6,
                           help="demo scene grid (cells per side)")
    obs_serve.add_argument("--slo-config", default=None,
                           help="SLO JSON for /slo (default: built-ins)")
    obs_serve.set_defaults(func=_cmd_obs_serve)

    obs_top = obs_sub.add_parser(
        "top",
        help="poll a serve endpoint's /snapshot; print interval rates "
             "and percentiles")
    obs_top.add_argument("--url", action="append", default=None,
                         help="base URL of a running `repro obs serve` / "
                              "shard endpoint; repeat to merge several "
                              "(default: http://127.0.0.1:9464)")
    obs_top.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls")
    obs_top.add_argument("--frames", type=int, default=None,
                         help="interval frames to print (default: forever)")
    obs_top.set_defaults(func=_cmd_obs_top)

    obs_slo = obs_sub.add_parser(
        "slo",
        help="evaluate SLO objectives against telemetry files; "
             "--gate exits 1 on violation")
    obs_slo.add_argument("file", nargs="+", help="telemetry JSON path(s)")
    obs_slo.add_argument("--config", default=None,
                         help="SLO JSON config (default: built-ins)")
    obs_slo.add_argument("--gate", action="store_true",
                         help="non-zero exit when any objective fails")
    obs_slo.set_defaults(func=_cmd_obs_slo)

    fuzz = sub.add_parser(
        "fuzz", help="differential scenario fuzzer (float vs quantized vs "
                     "batched vs streaming)")
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="sweep generated scenarios; exit 1 on any divergence")
    fuzz_run.add_argument("--seed", type=int, default=0,
                          help="first scenario seed")
    fuzz_run.add_argument("--budget", type=int, default=200,
                          help="number of scenarios to execute")
    fuzz_run.add_argument("--artifacts-dir", default=".fuzz_artifacts",
                          help="where replayable divergence case files go")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="record failures without minimizing them")
    fuzz_run.set_defaults(func=_cmd_fuzz_run)

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run recorded case files; exit 1 if any diverges")
    fuzz_replay.add_argument("case", nargs="+", help="case JSON path(s)")
    fuzz_replay.add_argument("--max-print", type=int, default=10,
                             help="divergences to print per case")
    fuzz_replay.set_defaults(func=_cmd_fuzz_replay)

    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="replay the committed seed corpus; exit 1 on "
                       "divergence or an empty corpus")
    fuzz_corpus.add_argument("--dir", default=None,
                             help="corpus directory (default: the repo's "
                                  "tests/fuzz_corpus)")
    fuzz_corpus.add_argument("--max-print", type=int, default=10)
    fuzz_corpus.set_defaults(func=_cmd_fuzz_corpus)

    stream = sub.add_parser(
        "stream", help="incremental streaming detection (frame-delta "
                       "gating, tracker-prior carryover)")
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)

    stream_run = stream_sub.add_parser(
        "run", help="drive a delta-gated streaming detector over a "
                    "generated sequence")
    stream_run.add_argument("--task", default="roadside_hazards")
    stream_run.add_argument("--seed", type=int, default=0,
                            help="artifact cache / model seed")
    stream_run.add_argument("--scene-seed", type=int, default=7)
    stream_run.add_argument("--frames", type=int, default=12)
    stream_run.add_argument("--grid", type=int, default=4)
    stream_run.add_argument("--motion-rate", type=float, default=0.1,
                            help="fraction of live objects re-rendered "
                                 "per frame (<1 freezes static cells)")
    stream_run.add_argument("--no-delta-gate", action="store_true",
                            help="full recompute every frame")
    stream_run.add_argument("--motion-threshold", type=float, default=0.0,
                            help="tracker-prior carryover threshold "
                                 "(mean abs pixel delta; 0 = exact only)")
    stream_run.add_argument("--refresh-every", type=int, default=0,
                            help="force a full re-score every N frames")
    stream_run.add_argument("--untrained", action="store_true",
                            help="random student instead of the artifact "
                                 "cache (hermetic)")
    stream_run.set_defaults(func=_cmd_stream_run)

    cascade = sub.add_parser(
        "cascade", help="adaptive dual-config cascade (quantized first, "
                        "escalate on doubt)")
    cascade_sub = cascade.add_subparsers(dest="cascade_command", required=True)

    cascade_route = cascade_sub.add_parser(
        "route", help="route generated scenes; print per-scene decisions")
    cascade_route.add_argument("--task", required=True)
    cascade_route.add_argument("--seed", type=int, default=0,
                               help="artifact cache seed")
    cascade_route.add_argument("--scene-seed", type=int, default=42)
    cascade_route.add_argument("--scenes", type=int, default=8)
    cascade_route.add_argument("--threshold", type=float, default=None,
                               help="margin threshold (default: the stored "
                                    "calibration, else the config default)")
    cascade_route.add_argument("--max-escalation", type=float, default=1.0,
                               help="escalation budget fraction "
                                    "(>= 1 disables)")
    cascade_route.set_defaults(func=_cmd_cascade_route)

    cascade_cal = cascade_sub.add_parser(
        "calibrate",
        help="sweep the recovery/cost frontier; pick the margin threshold")
    cascade_cal.add_argument("--task", required=True)
    cascade_cal.add_argument("--seed", type=int, default=0)
    cascade_cal.add_argument("--scene-seed", type=int, default=10_000)
    cascade_cal.add_argument("--scenes", type=int, default=64)
    cascade_cal.add_argument("--score-threshold", type=float, default=0.35)
    cascade_cal.add_argument("--cost-ratio", type=float, default=None,
                             help="escalation cost in fast-path units "
                                  "(default: measure via the hw simulator)")
    cascade_cal.add_argument("--target-recovery", type=float, default=0.8)
    cascade_cal.add_argument("--max-cost", type=float, default=0.4)
    cascade_cal.add_argument("--frontier", action="store_true",
                             help="print every swept operating point")
    cascade_cal.add_argument("--save", action="store_true",
                             help="persist in the artifact registry")
    cascade_cal.add_argument("--gate", action="store_true",
                             help="exit 1 when the targets are not met")
    cascade_cal.set_defaults(func=_cmd_cascade_calibrate)

    cascade_show = cascade_sub.add_parser(
        "show", help="list stored calibrations, or dump one as JSON")
    cascade_show.add_argument("name", nargs="?", default=None)
    cascade_show.add_argument("--dir", default=None,
                              help="registry directory (default: "
                                   "REPRO_ARTIFACT_DIR or .artifacts/)")
    cascade_show.set_defaults(func=_cmd_cascade_show)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
