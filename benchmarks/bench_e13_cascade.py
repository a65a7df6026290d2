"""E13 — Adaptive dual-config cascade: recovery/cost frontier.

The cascade runs the quantized generalist on every scene and escalates
only low-margin scenes to the float task specialist.  This benchmark
measures what that buys: per mission task, the calibrated operating
point on the recovery/cost frontier and the realized behaviour of that
point on held-out scenes.

Costs come from the hardware simulator, not wall clocks
(:func:`repro.hw.escalation_cost`): the fast path is the generalist's
compiled int8 program on the edge accelerator (batch 1, the streaming
case), an escalation is the float specialist, task head included,
through the calibrated Jetson-class GPU roofline — the deployment the
paper argues against running everything on.  The resulting per-scene
cost ratio (~8x) prices escalations during calibration, so "relative
cost" below means cascade cost over the all-specialist cost under
simulated hardware latencies.

**Acceptance gate** (full mode): the deployed gate task's calibrated
operating point must recover at least ``TARGET_RECOVERY`` (80%) of the
specialist's accuracy advantage at no more than ``MAX_RELATIVE_COST``
(40%) of the all-specialist cost; the run exits non-zero otherwise.
Held-out rows are reported alongside for generalization honesty but are
not gated — with tens of scenes the specialist delta is small enough
that held-out recovery is noise-dominated.

Calibrations persist through :class:`repro.cascade.CalibrationStore`
next to the telemetry, under ``BENCH_e13_cascade/calibrations/`` in the
bench output directory (``repro cascade show --dir BENCH_e13_cascade``
lists them).  A bench run never rewrites the calibrations shipped in the
artifact registry; ``repro cascade calibrate --save`` writes those.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e13_cascade.py
    PYTHONPATH=src python benchmarks/bench_e13_cascade.py --smoke

``--smoke`` shrinks scene counts and the task list (CI-friendly); CI
gates its work counters exactly against ``benchmarks/baselines/``
(``repro obs compare``) and its routing overhead with ``repro obs slo``
(``benchmarks/slo/cascade.json``).  Both modes persist telemetry to
``BENCH_e13_cascade.json``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    DECISION_THRESHOLD,
    EVAL_SEED,
    bench_output_dir,
    finalize_benchmark,
    print_table,
    quantized_configuration,
    specialist,
    task_matcher,
)
from repro.cascade import (
    CalibrationStore,
    CascadeConfig,
    CascadeRouter,
    calibrate_margin_threshold,
    scene_cell_accuracy,
)
from repro.core import ModelRegistry
from repro.data import SceneConfig, SceneGenerator, get_task
from repro.detect import TaskDetector
from repro.hw import escalation_cost
from repro.obs import get_registry

#: Missions benchmarked in full mode; the first is the acceptance gate.
GATE_TASK = "roadside_hazards"
TASKS = [GATE_TASK, "valve_inspection", "cargo_audit", "stop_control"]

CAL_SEED = EVAL_SEED          # calibration scenes
HELDOUT_SEED = EVAL_SEED * 2  # disjoint deployment scenes

TARGET_RECOVERY = 0.8
MAX_RELATIVE_COST = 0.4


def calibration_store() -> CalibrationStore:
    """E13's calibration store, in the bench output directory."""
    return CalibrationStore(ModelRegistry(
        os.path.join(bench_output_dir(), "BENCH_e13_cascade")))


def _detector(model, task_name):
    return TaskDetector(model, matcher=task_matcher(task_name),
                        score_threshold=DECISION_THRESHOLD)


def run_experiment(smoke: bool = False):
    """Calibrate + deploy the cascade per task; returns (tables, gate_row)."""
    registry = get_registry()
    registry.reset()  # isolate this run's counters for the work gate
    tasks = TASKS[:1] if smoke else TASKS
    num_cal, num_heldout = (8, 8) if smoke else (64, 64)

    quantized = quantized_configuration().model
    # Every specialist has one architecture, so one price serves all.
    cost = escalation_cost(quantized, specialist(GATE_TASK).model.config)
    ratio = cost["cost_ratio"]
    store = calibration_store()

    calibration_rows = []
    heldout_rows = []
    for name in tasks:
        task = get_task(name)
        fast = _detector(quantized, name)
        spec = _detector(specialist(name).model, name)

        cal_scenes = SceneGenerator(SceneConfig(),
                                    seed=CAL_SEED).generate_batch(num_cal)
        cal = calibrate_margin_threshold(
            fast, spec, cal_scenes, task,
            fast_cost=1.0, specialist_cost=ratio,
            target_recovery=TARGET_RECOVERY,
            max_relative_cost=MAX_RELATIVE_COST,
        )
        store.save(name, cal)
        calibration_rows.append({
            "task": name,
            "threshold": cal.margin_threshold,
            "escalation": cal.escalation_fraction,
            "fast_acc": cal.fast_accuracy,
            "spec_acc": cal.specialist_accuracy,
            "cascade_acc": cal.cascade_accuracy,
            "recovery": cal.recovery,
            "rel_cost": cal.relative_cost,
            "meets": cal.meets_targets,
        })

        # Deploy the calibrated threshold on disjoint scenes through the
        # real router (cascade.route spans + cascade.* counters).
        heldout = SceneGenerator(SceneConfig(),
                                 seed=HELDOUT_SEED).generate_batch(num_heldout)
        router = CascadeRouter(fast, spec, config=CascadeConfig(
            margin_threshold=cal.margin_threshold))
        results, decisions = router.detect_batch(heldout)
        escalated = sum(d.route == "escalated" for d in decisions)
        n = len(heldout)
        cascade_acc = sum(scene_cell_accuracy(s, r, task)
                          for s, r in zip(heldout, results)) / n
        fast_acc = sum(scene_cell_accuracy(s, r, task)
                       for s, r in zip(heldout, fast.detect_batch(heldout))) / n
        spec_acc = sum(scene_cell_accuracy(s, r, task)
                       for s, r in zip(heldout, spec.detect_batch(heldout))) / n
        delta = spec_acc - fast_acc
        recovery = 1.0 if delta <= 0 else (cascade_acc - fast_acc) / delta
        heldout_rows.append({
            "task": name,
            "escalated": escalated,
            "scenes": n,
            "fast_acc": fast_acc,
            "spec_acc": spec_acc,
            "cascade_acc": cascade_acc,
            "recovery": recovery,
            "rel_cost": (n * 1.0 + escalated * ratio) / (n * ratio),
        })

    tables = {
        "costs": [cost],
        "calibration": calibration_rows,
        "heldout": heldout_rows,
    }
    gate_row = next((row for row in calibration_rows
                     if row["task"] == GATE_TASK), None)
    return tables, gate_row


def run_overload_replay(smoke: bool = False):
    """Overload pass: shed under pressure, with every shed attributable.

    Replays the gate task through a router-only cascade session behind
    an engine with a deliberately tight escalation budget, so
    a large fraction of scenes shed.  Each scene is submitted under its
    own request context with an :class:`ExemplarSampler` installed; the
    pass then **asserts** that every SHED decision carries a trace_id
    that resolves to a retained exemplar with a span tree — the
    operator-facing contract ("this scene shed; here is the request
    that suffered it").  The induced shed storm also exercises the
    flight-recorder dump.
    """
    import tempfile

    from repro.cascade import CascadeSession
    from repro.obs.context import request_context
    from repro.obs.sampler import ExemplarSampler, install_sampler
    from repro.serve.engine import EngineConfig

    name = GATE_TASK
    num_scenes = 24 if smoke else 96
    fast = _detector(quantized_configuration().model, name)
    spec = _detector(specialist(name).model, name)
    scenes = SceneGenerator(SceneConfig(),
                            seed=HELDOUT_SEED + 1).generate_batch(num_scenes)
    # margin_threshold far above any real margin: every scene desires
    # escalation, and the tight budget sheds ~75% of them.
    router = CascadeRouter(fast, spec, config=CascadeConfig(
        margin_threshold=10.0,
        max_escalation_fraction=0.25,
        escalation_window=16,
    ))
    session = CascadeSession(None, router)
    sampler = ExemplarSampler(
        per_reason=num_scenes,
        artifact_dir=tempfile.mkdtemp(prefix="repro_obs_e13_"))
    previous = install_sampler(sampler)
    registry = get_registry()
    try:
        # One worker routes the batches in submission order, so which
        # scenes the budget escalates (and so the work CI counts) does
        # not depend on how two workers' batches interleave.
        with session.engine(EngineConfig(max_batch=4, workers=1,
                                         queue_size=32)) as engine:
            futures = []
            for scene in scenes:
                with request_context(name="overload.request",
                                     tenant="bench-e13") as ctx:
                    futures.append((ctx.trace_id, engine.submit(scene)))
            for _, future in futures:
                future.result()
        decisions = session.drain_decisions()
        sampler.resolve(registry)
    finally:
        install_sampler(previous)

    shed = [d for d in decisions if d.route == "shed"]
    missing_trace = [d for d in shed if d.trace_id is None]
    unresolved = [
        d for d in shed
        if d.trace_id is not None
        and not (sampler.lookup(d.trace_id) is not None
                 and sampler.lookup(d.trace_id).spans)
    ]
    assert decisions and shed, (
        f"overload replay produced no shed decisions "
        f"({len(decisions)} decisions) — the budget is not binding")
    assert not missing_trace and not unresolved, (
        f"{len(missing_trace)} shed decision(s) without a trace_id, "
        f"{len(unresolved)} whose trace_id does not resolve to a sampled "
        f"span tree — shed traffic must stay attributable")
    rows = [{
        "scenes": num_scenes,
        "fast_path": sum(d.route == "fast_path" for d in decisions),
        "escalated": sum(d.route == "escalated" for d in decisions),
        "shed": len(shed),
        "shed_resolvable": len(shed) - len(missing_trace) - len(unresolved),
        "storm_dumps": len(sampler.flight.dumps),
    }]
    # A bounded sample of the shed exemplars rides into the telemetry so
    # `repro obs report` readers can see real trace_id -> span trees.
    exemplar_rows = [e.as_dict() for e in sampler.exemplars("shed")[:8]]
    return rows, exemplar_rows


def _print_results(tables) -> None:
    print_table("E13: simulated per-scene costs (fast=accel, escalation=GPU)",
                tables["costs"])
    print_table("E13: calibrated operating points (gate table)",
                tables["calibration"])
    print_table("E13: held-out deployment of the calibrated threshold",
                tables["heldout"])
    if "overload" in tables:
        print_table("E13: overload replay (tight budget, traced sheds)",
                    tables["overload"])
    print()
    print(get_registry().report("E13 cascade routing"))


def test_e13_cascade(benchmark):
    tables, gate_row = benchmark.pedantic(
        run_experiment, kwargs={"smoke": True}, rounds=1, iterations=1)
    _print_results(tables)
    assert tables["costs"][0]["cost_ratio"] > 1.0
    assert gate_row is not None
    # Smoke scenes are too few to gate recovery; check the sweep is sane.
    assert 0.0 <= gate_row["escalation"] <= 1.0
    assert gate_row["rel_cost"] <= 1.0 + 1.0 / tables["costs"][0]["cost_ratio"]
    # The calibration must have persisted in the bench output directory.
    assert calibration_store().exists(GATE_TASK)


def test_e13_overload_tracing(benchmark):
    rows, exemplars = benchmark.pedantic(
        run_overload_replay, kwargs={"smoke": True}, rounds=1, iterations=1)
    row = rows[0]
    # run_overload_replay itself asserts full attributability; re-check
    # the reported numbers agree and the exemplars carry span trees.
    assert row["shed"] > 0 and row["shed_resolvable"] == row["shed"]
    assert exemplars and all(e["spans"] for e in exemplars)


def main():
    smoke = "--smoke" in sys.argv[1:]
    tables, gate_row = run_experiment(smoke=smoke)
    overload_rows, shed_exemplars = run_overload_replay(smoke=smoke)
    tables["overload"] = overload_rows
    tables["shed_exemplars"] = shed_exemplars
    _print_results(tables)
    finalize_benchmark("e13_cascade", keep_spans=False, **tables)
    failed = False
    if not smoke and gate_row is not None and not gate_row["meets"]:
        print(f"WARNING: {GATE_TASK} calibrated cascade recovers "
              f"{gate_row['recovery']:.0%} of the specialist advantage at "
              f"{gate_row['rel_cost']:.0%} relative cost (targets: "
              f">={TARGET_RECOVERY:.0%} at <={MAX_RELATIVE_COST:.0%})")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
