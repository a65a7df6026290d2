"""Differential agreement oracles.

Each oracle runs one scenario through two or more independent
implementations of the same detection math and asserts agreement:

* ``static_paths`` — per-scene ``detect`` vs fused ``detect_batch`` vs
  the micro-batching ``DetectionEngine``, for the float and the
  quantized configuration, plus production vs
  :func:`repro.reference.detect_reference` (loop extraction and NMS),
  and the quantized forward vs
  :func:`repro.reference.forward_full_sequence` (every token through
  the last block, not the CLS row only).
  Both configurations must agree **bit for bit**: the exact integer
  kernels and the fixed-shape float GEMM tiles are batch-invariant by
  construction.
* ``stream_fused`` — ``StreamingDetector.update`` frame by frame vs one
  fused ``update_many`` chunk, bit-exact on both models.
* ``stream_invariants`` — temporal safety properties of the tracker
  under arbitrary (including degenerate and shrinking) grid schedules:
  no immortal tracks on unobserved cells, missed counters bounded,
  scores in range, ids unique.
* ``stream_metrics`` — ``evaluate_stream`` vs an independent clean-room
  reimplementation of the documented metric semantics, driven by the
  same deterministic detector outputs.
* ``incremental_stream`` — delta-gated streaming (per-frame ``update``
  and chunked ``update_many``) vs full recompute on every camera of
  the scenario, bit-exact on both models, plus the ``refresh_every=1``
  degeneracy check for tracker-prior carryover.

Every disagreement is reported as a :class:`Divergence` — a JSON-able
record the runner attaches to the replayable case file.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.data.tasks import TaskDefinition
from repro.detect.pipeline import Detection, TaskDetector
from repro.fuzz.scenario import ScenarioSpec
from repro.reference import detect_reference, forward_full_sequence, windows_loop
from repro.stream.bench import TRACK_FIELDS, frame_mismatch
from repro.stream.sequence import FrameState, ScriptedSequence
from repro.stream.tracker import Track

if TYPE_CHECKING:
    from repro.fuzz.runner import ExecutionContext

#: Frames per gated ``update_many`` chunk in ``incremental_stream``.
_GATED_CHUNK = 3


@dataclasses.dataclass
class Divergence:
    """One oracle disagreement, serializable into a replay case."""

    oracle: str
    message: str
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "message": self.message,
                "details": self.details}


# ----------------------------------------------------------------------
# detection-list comparison
# ----------------------------------------------------------------------
def _det_key(det: Detection) -> Tuple[int, int, int, int]:
    return tuple(int(v) for v in det.bbox)


def compare_detections(
    oracle: str,
    label: str,
    reference: Sequence[Sequence[Detection]],
    candidate: Sequence[Sequence[Detection]],
) -> List[Divergence]:
    """Compare two per-scene detection lists: identical order and boxes,
    bit-equal scores."""
    divergences: List[Divergence] = []
    if len(reference) != len(candidate):
        return [Divergence(oracle, f"{label}: scene count "
                           f"{len(reference)} != {len(candidate)}")]
    for index, (ref, cand) in enumerate(zip(reference, candidate)):
        same = (len(ref) == len(cand) and all(
            _det_key(r) == _det_key(c)
            and r.score == c.score
            and r.objectness == c.objectness
            and r.task_score == c.task_score
            and r.class_id == c.class_id
            for r, c in zip(ref, cand)))
        if not same:
            divergences.append(Divergence(
                oracle, f"{label}: scene {index} not bit-identical",
                {"scene": index,
                 "reference": [_describe(d) for d in ref],
                 "candidate": [_describe(d) for d in cand]}))
    return divergences


def _describe(det: Detection) -> Dict[str, Any]:
    return {"bbox": list(det.bbox), "score": float(det.score),
            "objectness": float(det.objectness),
            "task_score": float(det.task_score),
            "class_id": int(det.class_id)}


# ----------------------------------------------------------------------
# track comparison
# ----------------------------------------------------------------------
def compare_track_snapshots(
    oracle: str,
    label: str,
    reference: Sequence[Sequence[Track]],
    candidate: Sequence[Sequence[Track]],
) -> List[Divergence]:
    """Frame-by-frame track equality: one divergence per frame that
    :func:`repro.stream.bench.frame_mismatch` rejects."""
    if len(reference) != len(candidate):
        return [Divergence(oracle, f"{label}: frame count "
                           f"{len(reference)} != {len(candidate)}")]
    divergences: List[Divergence] = []
    for frame, (ref, cand) in enumerate(zip(reference, candidate)):
        mismatch = frame_mismatch(ref, cand)
        if mismatch is not None:
            divergences.append(Divergence(
                oracle, f"{label}: frame {frame}{mismatch}",
                {"frame": frame,
                 "reference": [_track_dict(t) for t in
                               sorted(ref, key=lambda t: t.track_id)],
                 "candidate": [_track_dict(t) for t in
                               sorted(cand, key=lambda t: t.track_id)]}))
    return divergences


def _track_dict(track: Track) -> Dict[str, Any]:
    data = {f: getattr(track, f) for f in TRACK_FIELDS}
    data["cell"] = list(data["cell"])
    data["score"] = float(track.score)
    return data


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def oracle_static_paths(spec: ScenarioSpec,
                        ctx: "ExecutionContext") -> List[Divergence]:
    """detect == detect_batch == engine, and detect == detect_reference."""
    divergences: List[Divergence] = []
    scenes = ctx.scenes
    float_sequential = None
    for kind in ("float", "quantized"):
        detector = ctx.make_detector(kind)
        sequential = [detector.detect(scene) for scene in scenes]
        if kind == "float":
            float_sequential = sequential
        fused = detector.detect_batch(scenes)
        divergences += compare_detections(
            "static_paths", f"{kind}:batch_vs_sequential", sequential, fused)
        engine_results = ctx.run_engine(detector, scenes)
        divergences += compare_detections(
            "static_paths", f"{kind}:engine_vs_sequential",
            sequential, engine_results)
    float_detector = ctx.make_detector("float")
    reference = [detect_reference(float_detector, scene) for scene in scenes]
    divergences += compare_detections(
        "static_paths", "float:production_vs_reference",
        float_sequential, reference)
    return divergences + _compare_full_sequence(ctx)


def _compare_full_sequence(ctx: "ExecutionContext") -> List[Divergence]:
    """The CLS-only quantized forward == the full-sequence oracle, bit
    for bit, on every window of the scenario in one batch (a BLAS whose
    row 0 of an attention product depended on the other rows would
    show up here)."""
    windows = [windows_loop(scene)[0] for scene in ctx.scenes]
    windows = [w for w in windows if len(w)]
    if not windows:
        return []
    images = np.concatenate(windows).astype(np.float32)
    model = ctx.model_for("quantized")
    actual, expected = model(images), forward_full_sequence(model, images)
    pairs = [(key, actual[key], expected[key]) for key in expected
             if key != "attributes"]
    pairs += [(f"attributes.{name}", actual["attributes"][name], value)
              for name, value in expected["attributes"].items()]
    return [Divergence(
        "static_paths",
        f"quantized:forward_vs_full_sequence: {key} not bit-identical",
        {"output": key, "rows": int(images.shape[0]),
         "max_abs_diff": float(np.abs(got - want).max())})
        for key, got, want in pairs if not np.array_equal(got, want)]


def oracle_stream_fused(spec: ScenarioSpec,
                        ctx: "ExecutionContext") -> List[Divergence]:
    """Frame-by-frame ``update`` == one fused ``update_many`` chunk."""
    divergences: List[Divergence] = []
    frames = [state.scene for state in ctx.frames]
    for kind in ("quantized", "float"):
        snapshots = _update_snapshots(ctx.make_stream(kind), frames)
        fused = ctx.make_stream(kind).update_many(frames)
        divergences += compare_track_snapshots(
            "stream_fused", f"{kind}:update_many_vs_update",
            snapshots, fused)
    return divergences


def oracle_stream_invariants(spec: ScenarioSpec,
                             ctx: "ExecutionContext") -> List[Divergence]:
    """Temporal safety properties under arbitrary grid schedules."""
    divergences: List[Divergence] = []
    detector = ctx.make_stream("quantized")
    grids = spec.frame_grids
    last_observed: Dict[Tuple[int, int], int] = {}
    for frame_index, state in enumerate(ctx.frames):
        grid = grids[frame_index]
        for row in range(grid):
            for col in range(grid):
                last_observed[(row, col)] = frame_index
        tracks = detector.update(state.scene)
        ids = [t.track_id for t in tracks]
        if len(set(ids)) != len(ids):
            divergences.append(Divergence(
                "stream_invariants",
                f"frame {frame_index}: duplicate active track ids",
                {"frame": frame_index, "ids": ids}))
        for track in tracks:
            if track.missed > spec.max_missed_frames:
                divergences.append(Divergence(
                    "stream_invariants",
                    f"frame {frame_index}: track {track.track_id} active "
                    f"with missed={track.missed} > "
                    f"max_missed_frames={spec.max_missed_frames}",
                    {"frame": frame_index, "track": _track_dict(track)}))
            if not (track.first_frame <= track.last_frame <= frame_index):
                divergences.append(Divergence(
                    "stream_invariants",
                    f"frame {frame_index}: track {track.track_id} has "
                    f"inconsistent lifecycle frames",
                    {"frame": frame_index, "track": _track_dict(track)}))
            if not (0.0 <= float(track.score) <= 1.0 + 1e-9):
                divergences.append(Divergence(
                    "stream_invariants",
                    f"frame {frame_index}: track {track.track_id} score "
                    f"{track.score!r} out of [0, 1]",
                    {"frame": frame_index, "track": _track_dict(track)}))
            observed_at = last_observed.get(track.cell)
            # A track whose cell was never observed within the missed
            # budget must be dead: unobserved frames count as missed.
            # (Pre-fix, stale EMA kept refreshing last_frame/missed and
            # such tracks survived forever.)
            if (observed_at is None
                    or frame_index - observed_at > spec.max_missed_frames):
                divergences.append(Divergence(
                    "stream_invariants",
                    f"frame {frame_index}: track {track.track_id} on cell "
                    f"{track.cell} survives though the cell was last "
                    f"observed at frame {observed_at}",
                    {"frame": frame_index, "track": _track_dict(track),
                     "last_observed": observed_at}))
    return divergences


def reference_stream_metrics(detector, states: Sequence[FrameState],
                             task: TaskDefinition) -> Dict[str, float]:
    """Clean-room implementation of the documented streaming metrics.

    Independent of :func:`repro.stream.metrics.evaluate_stream`: drives
    its own detector pass and recomputes frame accuracy, detection
    latency (first track on a *live* relevant object's cell, strictly
    before its recorded death), detected fraction, and flicker rate from
    first principles.
    """
    correct = 0
    total = 0
    flips = 0
    previous: Dict[Tuple[int, int], bool] = {}
    birth_frame: Dict[int, int] = {}
    detect_frame: Dict[int, int] = {}
    dead: set = set()
    relevant_ids: set = set()
    for state in states:
        fired = {t.cell for t in detector.update(state.scene)}
        dead.update(state.deaths)
        alive_relevant: Dict[Tuple[int, int], int] = {}
        for obj, obj_id in zip(state.scene.objects, state.object_ids):
            if task.matches(obj.profile):
                relevant_ids.add(obj_id)
                birth_frame.setdefault(obj_id, state.index)
                alive_relevant[obj.cell] = obj_id
        grid = state.scene.grid
        for row in range(grid):
            for col in range(grid):
                cell = (row, col)
                decision = cell in fired
                truth = cell in alive_relevant
                correct += int(decision == truth)
                total += 1
                if cell in previous and previous[cell] != decision:
                    flips += 1
                previous[cell] = decision
        for cell, obj_id in alive_relevant.items():
            if (cell in fired and obj_id not in dead
                    and obj_id not in detect_frame):
                detect_frame[obj_id] = state.index
    latencies = [detect_frame[i] - birth_frame[i] for i in detect_frame]
    return {
        "frame_accuracy": correct / max(total, 1),
        "mean_detection_latency": (float(np.mean(latencies)) if latencies
                                   else float("nan")),
        "detected_fraction": len(detect_frame) / max(len(relevant_ids), 1),
        "flicker_rate": flips / max(total, 1),
    }


def oracle_stream_metrics(spec: ScenarioSpec,
                          ctx: "ExecutionContext") -> List[Divergence]:
    """``evaluate_stream`` vs the clean-room metric reimplementation.

    Both passes drive identical fresh detectors over identical frames,
    so every per-frame track set is bit-identical and any metric
    disagreement is a semantics bug, not noise.
    """
    task = ctx.task
    states = ctx.frames
    metrics = ctx.evaluate_fn(ctx.make_stream("float"),
                              ScriptedSequence(states), task,
                              num_frames=len(states))
    reference = reference_stream_metrics(ctx.make_stream("float"),
                                         states, task)
    divergences: List[Divergence] = []
    for name, expected in reference.items():
        actual = getattr(metrics, name)
        agree = (math.isnan(expected) and math.isnan(actual)) or \
            (not math.isnan(expected) and not math.isnan(actual)
             and abs(actual - expected) <= 1e-12)
        if not agree:
            divergences.append(Divergence(
                "stream_metrics",
                f"{name}: evaluate_stream={actual!r} reference={expected!r}",
                {"metric": name, "evaluate_stream": float(actual),
                 "reference": float(expected)}))
    return divergences


def _update_snapshots(detector, frames, chunk: int = 0) -> List[List[Track]]:
    """Per-frame deep-copied active-track snapshots from ``update``, or
    from ``update_many`` in ``chunk``-frame chunks."""
    if chunk:
        return [snapshot for start in range(0, len(frames), chunk)
                for snapshot in detector.update_many(frames[start:start + chunk])]
    return [[dataclasses.replace(t) for t in detector.update(scene)]
            for scene in frames]


def oracle_incremental_stream(spec: ScenarioSpec,
                              ctx: "ExecutionContext") -> List[Divergence]:
    """Delta-gated streaming == full recompute, on every camera.

    The delta gate's contract is that reusing a cached score for an
    unchanged cell is *unobservable* in the track state: per camera and
    per model kind, a gated detector (exact gating, the spec's
    ``refresh_every``) must produce track snapshots bit-equal to an
    ungated detector over the same frames — regardless of whether the
    spec itself enables the gate, frame by frame and through
    ``update_many`` in ``_GATED_CHUNK``-frame chunks (so chunk
    boundaries fall mid-scenario).  When the spec uses
    tracker-prior carryover (``motion_threshold > 0``), the approximate
    path is additionally pinned at its degenerate point:
    ``refresh_every=1`` forces a full re-score every frame, so carryover
    must then reproduce full recompute exactly.
    """
    divergences: List[Divergence] = []
    for camera in range(spec.num_cameras):
        states = ctx.frames if camera == 0 else spec.build_camera_frames(camera)
        frames = [state.scene for state in states]
        for kind in ("quantized", "float"):
            full = _update_snapshots(ctx.make_stream(kind, gated=False),
                                     frames)
            for label, chunk in (("gated", 0),
                                 ("gated_update_many", _GATED_CHUNK)):
                gated = _update_snapshots(
                    ctx.make_stream(kind, gated=True, motion_threshold=0.0),
                    frames, chunk)
                divergences += compare_track_snapshots(
                    "incremental_stream",
                    f"camera{camera}:{kind}:{label}_vs_full",
                    full, gated)
            if kind == "quantized" and spec.motion_threshold > 0.0:
                degenerate = _update_snapshots(
                    ctx.make_stream(kind, gated=True,
                                    motion_threshold=spec.motion_threshold,
                                    refresh_every=1),
                    frames)
                divergences += compare_track_snapshots(
                    "incremental_stream",
                    f"camera{camera}:{kind}:carryover_refresh1_vs_full",
                    full, degenerate)
    return divergences


def oracle_pipeline_session(spec: ScenarioSpec,
                            ctx: "ExecutionContext") -> List[Divergence]:
    """The full ``ITaskPipeline.prepare()`` + session-cache path.

    Three checks:

    * the pipeline's quantized serving path (LLM extraction, matcher
      construction, session cache, fused batch detect) is bit-identical
      to the directly-constructed quantized detector the other oracles
      use — a fresh noisy LLM's *first* graph is deterministic, so this
      holds under extraction noise too;
    * a second request for the same mission (a session-cache hit) is
      bit-identical to the first;
    * (noise-free scenarios) replacing a registered specialist's graph
      through ``selector.register_specialist`` must behave as if the
      pipeline had been built with the replacement graph — the
      session-invalidation check that caught the stale mission
      fingerprint (graph replaced, version coincides, old session
      served).
    """
    divergences: List[Divergence] = []
    pipeline = ctx.make_pipeline()
    task_spec = ctx.task_spec()

    reference = [ctx.make_detector("quantized").detect(scene)
                 for scene in ctx.scenes]
    first = pipeline.detect_batch(task_spec, ctx.scenes)
    divergences += compare_detections(
        "pipeline_session", "quantized:pipeline_vs_direct",
        reference, first)
    second = pipeline.detect_batch(task_spec, ctx.scenes)
    divergences += compare_detections(
        "pipeline_session", "quantized:cached_session_stability",
        first, second)

    noise_free = (spec.kg_omission == 0.0 and spec.kg_hallucination == 0.0
                  and spec.kg_weight_jitter == 0.0)
    if noise_free:
        # Serve through a pipeline whose specialist graph is replaced
        # mid-flight, vs a fresh pipeline built with the replacement
        # graph from the start.  Any disagreement is a stale session.
        served = ctx.make_pipeline()
        mission_kg = served.build_kg(task_spec)
        replacement_kg = ctx.replacement_graph(mission_kg)
        served.register_specialist(
            spec.task, ctx.specialist_configuration(), mission_kg)
        served.detect_batch(task_spec, ctx.scenes)  # warm the session
        served.selector.register_specialist(spec.task, replacement_kg)
        after_replacement = served.detect_batch(task_spec, ctx.scenes)

        fresh = ctx.make_pipeline()
        fresh.register_specialist(
            spec.task, ctx.specialist_configuration(), replacement_kg)
        expected = fresh.detect_batch(task_spec, ctx.scenes)
        divergences += compare_detections(
            "pipeline_session", "graph_replacement_invalidation",
            expected, after_replacement)
    return divergences


def oracle_cascade_routing(spec: ScenarioSpec,
                           ctx: "ExecutionContext") -> List[Divergence]:
    """Cascade output == whichever single config the scene routed to.

    * With a non-binding budget, routing decisions are identical across
      per-scene ``detect``, fused ``detect_batch``, and the
      micro-batching engine (routing is a pure per-scene function of the
      batch-invariant quantized outputs).
    * Every scene's cascade output equals the routed-to configuration's
      own output bit for bit, on the fast/shed (quantized) and the
      escalated (float) path alike.
    * Under the spec's (possibly binding) budget, escalations never
      exceed the budget's window bound, shed scenes still return the
      quantized result bit for bit, and a fraction-zero budget escalates
      nothing.
    """
    from repro.cascade.router import (
        ESCALATED, FAST_PATH, SHED, CascadeConfig, CascadeRouter,
    )

    divergences: List[Divergence] = []
    scenes = ctx.scenes

    def make_router(fraction: float) -> CascadeRouter:
        return CascadeRouter(
            ctx.make_detector("quantized"),
            ctx.make_detector("float"),
            config=CascadeConfig(margin_threshold=spec.cascade_margin,
                                 max_escalation_fraction=fraction),
            pinned=spec.cascade_pinned)

    # -- path determinism (non-binding budget) -------------------------
    batch_results, batch_decisions = make_router(1.0).detect_batch(scenes)
    per_scene = [make_router(1.0).detect(scene) for scene in scenes]
    for index, (detections, decision) in enumerate(per_scene):
        if decision.route != batch_decisions[index].route:
            divergences.append(Divergence(
                "cascade_routing",
                f"scene {index}: detect route {decision.route!r} != "
                f"detect_batch route {batch_decisions[index].route!r}",
                {"scene": index, "detect": decision.route,
                 "detect_batch": batch_decisions[index].route,
                 "margin": decision.margin}))
    engine_results, engine_routes = ctx.run_cascade_engine(
        make_router(1.0), scenes)
    if sorted(engine_routes) != sorted(d.route for d in batch_decisions):
        divergences.append(Divergence(
            "cascade_routing",
            "engine route multiset differs from detect_batch",
            {"engine": sorted(engine_routes),
             "detect_batch": sorted(d.route for d in batch_decisions)}))

    # -- routed-output equivalence -------------------------------------
    quantized = [ctx.make_detector("quantized").detect(scene)
                 for scene in scenes]
    specialist = [ctx.make_detector("float").detect(scene)
                  for scene in scenes]
    for label, results in (("detect_batch", batch_results),
                           ("engine", engine_results)):
        for index, decision in enumerate(batch_decisions):
            expected = (specialist[index] if decision.route == ESCALATED
                        else quantized[index])
            divergences += compare_detections(
                "cascade_routing",
                f"{label}:scene{index}:{decision.route}",
                [expected], [results[index]])

    # -- budget behavior -----------------------------------------------
    budget_results, budget_decisions = (
        make_router(spec.cascade_fraction).detect_batch(scenes))
    escalated_count = sum(d.route == ESCALATED for d in budget_decisions)
    if spec.cascade_fraction < 1.0:
        router = make_router(spec.cascade_fraction)
        bound = math.ceil(spec.cascade_fraction
                          * router.config.escalation_window)
        if escalated_count > max(bound, 0):
            divergences.append(Divergence(
                "cascade_routing",
                f"budget violated: {escalated_count} escalations > "
                f"bound {bound}",
                {"escalated": escalated_count, "bound": bound,
                 "fraction": spec.cascade_fraction}))
    if spec.cascade_fraction == 0.0 and escalated_count:
        divergences.append(Divergence(
            "cascade_routing",
            f"fraction-zero budget still escalated {escalated_count}",
            {"escalated": escalated_count}))
    for index, decision in enumerate(budget_decisions):
        if decision.route in (FAST_PATH, SHED):
            divergences += compare_detections(
                "cascade_routing",
                f"budgeted:scene{index}:{decision.route}",
                [quantized[index]], [budget_results[index]])
    return divergences


def oracle_sharded_engine(spec: ScenarioSpec,
                          ctx: "ExecutionContext") -> List[Divergence]:
    """Sharded results == single-process results, bit for bit.

    Routes the scenario's scenes through a real 2-process
    :class:`~repro.serve.shard.ShardRouter` (forked workers, pickled
    scenes, wire-format contexts) and compares against sequential
    per-scene detection on the same detector, float and quantized.  Both
    configurations are exactly batch-invariant, so any divergence is a
    transport or routing bug — scene corruption in pickling, result
    misassociation across the pipe, reroute double-serving — not model
    noise.

    Skipped on platforms without the ``fork`` start method (closure
    factories require it).
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return []
    kinds = ("float", "quantized")
    detectors = [ctx.make_detector(kind) for kind in kinds]
    sharded = ctx.run_sharded_engine(detectors, ctx.scenes)
    divergences: List[Divergence] = []
    for kind, detector, results in zip(kinds, detectors, sharded):
        reference = [detector.detect(scene) for scene in ctx.scenes]
        divergences += compare_detections(
            "sharded_engine", f"{kind}:fork-2-shards", reference, results)
    return divergences


#: Ordered oracle registry: (name, callable).
ORACLES = (
    ("static_paths", oracle_static_paths),
    ("stream_fused", oracle_stream_fused),
    ("stream_invariants", oracle_stream_invariants),
    ("stream_metrics", oracle_stream_metrics),
    ("incremental_stream", oracle_incremental_stream),
    ("pipeline_session", oracle_pipeline_session),
    ("cascade_routing", oracle_cascade_routing),
    ("sharded_engine", oracle_sharded_engine),
)
