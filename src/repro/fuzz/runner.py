"""Scenario execution: materialize a spec, drive every oracle, record cases.

The runner owns the expensive part of fuzzing — building the model pair,
the knowledge-graph matcher, and the workloads a :class:`ScenarioSpec`
describes — and exposes three entry points:

* :func:`run_scenario` — one spec through every oracle, returning a
  :class:`CaseResult` (crashes inside an oracle become ``crash``
  divergences rather than aborting the campaign);
* :func:`run_campaign` — a seeded sweep of generated scenarios, shrink
  loop on failure, replayable JSON case files for every divergence;
* :func:`replay_case` — re-run a recorded case file deterministically.

Model/matcher construction is deterministic in the spec (seeded rngs
only), so caching pairs across scenarios — most scenarios share the
default architecture — changes throughput, never results.
"""

from __future__ import annotations

import dataclasses
import traceback
from collections import OrderedDict
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.data import attribute_head_spec
from repro.data.datasets import num_classes
from repro.data.scenes import Scene
from repro.data.tasks import TaskDefinition, get_task
from repro.detect.pipeline import Detection, TaskDetector
from repro.fuzz.operators import generate_scenario
from repro.fuzz.oracles import ORACLES, Divergence
from repro.fuzz.scenario import CASE_SCHEMA, ModelSpec, ScenarioSpec
from repro.kg.llm import LLMNoiseConfig, SimulatedLLM
from repro.kg.matcher import GraphMatcher
from repro.nn import VisionTransformer, ViTConfig
from repro.quant.vit import QuantizedVisionTransformer, quantize_vit
from repro.stream.metrics import evaluate_stream
from repro.stream.sequence import FrameState
from repro.stream.tracker import StreamingDetector, TrackerConfig


# ----------------------------------------------------------------------
# deterministic model / matcher construction (cached)
# ----------------------------------------------------------------------
def build_model_pair(
    model_spec: ModelSpec,
) -> Tuple[VisionTransformer, QuantizedVisionTransformer]:
    """The float/quantized pair under test, derived only from the spec."""
    config = ViTConfig(
        image_size=model_spec.window,
        patch_size=model_spec.patch_size,
        dim=model_spec.dim,
        depth=model_spec.depth,
        num_heads=model_spec.num_heads,
        mlp_ratio=model_spec.mlp_ratio,
        num_classes=num_classes(),
        attribute_heads=tuple(attribute_head_spec()),
        with_task_head=model_spec.with_task_head,
    )
    model = VisionTransformer(
        config, rng=np.random.default_rng(model_spec.seed * 7333 + 5))
    model.eval()
    rng = np.random.default_rng(model_spec.seed * 9973 + 29)
    calibration = rng.uniform(
        0.0, 1.0,
        (16, 3, model_spec.window, model_spec.window)).astype(np.float32)
    return model, quantize_vit(model, calibration)


class ModelCache:
    """Small LRU over :func:`build_model_pair` keyed by the model spec."""

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[ModelSpec, Tuple]" = OrderedDict()

    def get(self, model_spec: ModelSpec):
        pair = self._entries.get(model_spec)
        if pair is None:
            pair = build_model_pair(model_spec)
            self._entries[model_spec] = pair
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(model_spec)
        return pair


def build_matcher(spec: ScenarioSpec) -> Optional[GraphMatcher]:
    """The task's KG matcher under the spec's extraction-noise model."""
    if not spec.use_kg:
        return None
    noise = LLMNoiseConfig(
        omission_rate=spec.kg_omission,
        hallucination_rate=spec.kg_hallucination,
        weight_jitter=spec.kg_weight_jitter,
        seed=spec.kg_seed,
    )
    kg = SimulatedLLM(noise).generate_for_task(get_task(spec.task))
    return GraphMatcher(kg)


# ----------------------------------------------------------------------
# execution context
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ExecutionContext:
    """Everything the oracles need, materialized once per scenario.

    ``stream_cls`` and ``evaluate_fn`` are injection points: the
    regression tests swap in *legacy* (pre-fix) implementations to prove
    each corpus scenario trips its reverted bug.
    """

    spec: ScenarioSpec
    task: TaskDefinition
    scenes: List[Scene]
    frames: List[FrameState]
    float_model: VisionTransformer
    quantized_model: QuantizedVisionTransformer
    matcher: Optional[GraphMatcher]
    stream_cls: type = StreamingDetector
    evaluate_fn: Callable = staticmethod(evaluate_stream)

    def model_for(self, kind: str):
        if kind == "float":
            return self.float_model
        if kind == "quantized":
            return self.quantized_model
        raise ValueError(f"unknown model kind {kind!r}")

    def make_detector(self, kind: str) -> TaskDetector:
        return TaskDetector(
            self.model_for(kind), matcher=self.matcher,
            score_threshold=self.spec.score_threshold)

    def make_stream(self, kind: str, gated: Optional[bool] = None,
                    motion_threshold: Optional[float] = None,
                    refresh_every: Optional[int] = None) -> StreamingDetector:
        """A streaming detector for ``kind``; gating keywords override
        the spec's own ``delta_gate``/``motion_threshold``/``refresh_every``
        (the incremental_stream oracle forces both gated and ungated
        variants regardless of what the spec enables)."""
        spec = self.spec
        config = TrackerConfig(
            smoothing=spec.smoothing,
            on_threshold=spec.on_threshold,
            off_threshold=spec.off_threshold,
            max_missed_frames=spec.max_missed_frames,
            delta_gate=spec.delta_gate if gated is None else gated,
            motion_threshold=(spec.motion_threshold
                              if motion_threshold is None
                              else motion_threshold),
            refresh_every=(spec.refresh_every if refresh_every is None
                           else refresh_every))
        return self.stream_cls(self.model_for(kind), self.matcher,
                               config=config)

    def run_engine(self, detector: TaskDetector,
                   scenes: Sequence[Scene]) -> List[List[Detection]]:
        """Scenes through a real micro-batching engine over ``detector``
        (the engine calls only ``detect_batch(scenes)``, which the
        detector serves itself)."""
        from repro.serve.engine import DetectionEngine, EngineConfig

        config = EngineConfig(max_batch=self.spec.engine_max_batch,
                              workers=self.spec.engine_workers)
        with DetectionEngine(detector, config=config) as engine:
            return engine.detect_many(scenes)

    def run_sharded_engine(self, detectors: Sequence[TaskDetector],
                           scenes: Sequence[Scene],
                           num_shards: int = 2
                           ) -> List[List[List[Detection]]]:
        """Scenes through one real multi-process :class:`ShardRouter`,
        once per detector; one result list per detector.

        Every shard serves every detector (the factory closes over
        them; the ``fork`` start method copies them into each worker).
        Each detector gets ``num_shards`` synthetic mission keys chosen
        to land on distinct shards, and its scenes alternate between
        them — so every detector's run genuinely crosses the process
        boundary on every shard, not just one.  Results are gathered in
        submission order.  A worker wraps each detector in a
        :class:`DetectionEngine`, as it does any factory result without
        an ``engine`` method.
        """
        from repro.serve.engine import EngineConfig
        from repro.serve.shard import (
            ShardConfig, ShardRouter, shard_for_mission,
        )

        def mission_for_shard(detector_index: int, target: int) -> str:
            index = 0
            while True:
                name = f"fuzz-mission-{detector_index}-{index}"
                if shard_for_mission(name, num_shards) == target:
                    return name
                index += 1

        missions = [[mission_for_shard(d, i) for i in range(num_shards)]
                    for d in range(len(detectors))]
        by_mission = {mission: detector
                      for detector, keys in zip(detectors, missions)
                      for mission in keys}
        config = ShardConfig(
            num_shards=num_shards,
            engine=EngineConfig(max_batch=self.spec.engine_max_batch,
                                workers=self.spec.engine_workers),
            start_method="fork",
        )
        with ShardRouter(lambda mission: by_mission[mission],
                         config) as router:
            futures = [
                [router.submit(scene, keys[index % num_shards])
                 for index, scene in enumerate(scenes)]
                for keys in missions
            ]
            return [[future.result() for future in run] for run in futures]

    # -- pipeline / cascade construction --------------------------------
    def llm_noise(self) -> "LLMNoiseConfig":
        return LLMNoiseConfig(
            omission_rate=self.spec.kg_omission,
            hallucination_rate=self.spec.kg_hallucination,
            weight_jitter=self.spec.kg_weight_jitter,
            seed=self.spec.kg_seed,
        )

    def task_spec(self):
        from repro.core.taskspec import TaskSpec

        return TaskSpec.from_definition(self.task)

    def make_pipeline(self):
        """A real ``ITaskPipeline`` serving the spec's quantized model.

        Built exactly like :func:`build_matcher` builds the direct
        matcher — same task text, same (fresh) noisy LLM — so the
        pipeline path and the direct detector path must agree bit for
        bit on the quantized configuration.
        """
        from repro.core.configurations import QuantizedConfiguration
        from repro.core.pipeline import ITaskPipeline

        configuration = QuantizedConfiguration(
            name="fuzz-quantized", kind="quantized",
            quantized=self.quantized_model)
        return ITaskPipeline(
            configuration,
            llm=SimulatedLLM(self.llm_noise()),
            score_threshold=self.spec.score_threshold,
            use_kg=self.spec.use_kg,
        )

    def specialist_configuration(self):
        """The float model packaged as this mission's specialist."""
        from repro.core.configurations import TaskSpecificConfiguration

        return TaskSpecificConfiguration(
            name=f"fuzz-specialist-{self.spec.task}", kind="task_specific",
            student=self.float_model, task_name=self.spec.task)

    def replacement_graph(self, reference) -> "KnowledgeGraph":
        """A different-content graph whose ``version`` EQUALS the reference's.

        The graph-replacement session-invalidation check needs the
        adversarial case a version-only mission fingerprint cannot see:
        the registered graph is swapped for one with *identical edit
        count* but different content.  Content comes from the next
        task's noise-free graph (dissimilar enough to flip specialist
        selection); the version is matched by truncating to at most
        ``reference.version`` constraints and then re-adding an existing
        constraint — a merge that changes nothing but bumps the counter.
        """
        from repro.data.tasks import TASK_LIBRARY
        from repro.kg.schema import KnowledgeGraph

        names = sorted(TASK_LIBRARY)
        other = names[(names.index(self.spec.task) + 1) % len(names)]
        payload = SimulatedLLM().generate_for_task(get_task(other)).to_dict()
        payload["constraints"] = payload["constraints"][:reference.version]
        replacement = KnowledgeGraph.from_dict(payload)
        while (replacement.version < reference.version
               and replacement.constraints):
            replacement.add_constraint(replacement.constraints[0])
        return replacement

    def run_cascade_engine(self, router, scenes: Sequence[Scene]):
        """Scenes through the engine over a cascade router.

        Returns ``(results, routes)``: per-scene detections in
        submission order plus the multiset of routes the engine's
        workers recorded (batch composition — hence decision *order* —
        depends on worker interleaving; the routes themselves do not).
        """
        from repro.cascade.session import CascadeSession
        from repro.serve.engine import DetectionEngine, EngineConfig

        session = CascadeSession(None, router)
        config = EngineConfig(max_batch=self.spec.engine_max_batch,
                              workers=self.spec.engine_workers)
        with DetectionEngine(session, config=config) as engine:
            results = engine.detect_many(scenes)
        return results, [decision.route
                         for decision in session.drain_decisions()]


def build_context(spec: ScenarioSpec,
                  cache: Optional[ModelCache] = None) -> ExecutionContext:
    float_model, quantized_model = (
        cache.get(spec.model) if cache is not None
        else build_model_pair(spec.model))
    return ExecutionContext(
        spec=spec,
        task=get_task(spec.task),
        scenes=spec.build_scenes(),
        frames=spec.build_frames(),
        float_model=float_model,
        quantized_model=quantized_model,
        matcher=build_matcher(spec),
    )


# ----------------------------------------------------------------------
# scenario execution
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CaseResult:
    """Outcome of one scenario across all oracles."""

    spec: ScenarioSpec
    divergences: List[Divergence]
    oracles_run: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": CASE_SCHEMA,
            "spec": self.spec.to_json_dict(),
            "oracles": list(self.oracles_run),
            "divergences": [d.as_dict() for d in self.divergences],
        }


def run_scenario(
    spec: ScenarioSpec,
    context: Optional[ExecutionContext] = None,
    oracle_names: Optional[Iterable[str]] = None,
    cache: Optional[ModelCache] = None,
) -> CaseResult:
    """One spec through the selected oracles (default: all of them).

    An exception inside workload construction or an oracle is itself a
    finding — the kind of crash the zero-cell batch bug produced — so it
    is recorded as a ``crash`` divergence instead of propagating.
    """
    selected = [(name, fn) for name, fn in ORACLES
                if oracle_names is None or name in set(oracle_names)]
    names = tuple(name for name, _ in selected)
    try:
        ctx = context if context is not None else build_context(spec, cache)
    except Exception as error:  # noqa: BLE001 — any crash is a finding
        return CaseResult(spec, [Divergence(
            "build", f"crash: {type(error).__name__}: {error}",
            {"traceback": traceback.format_exc()})], names)
    divergences: List[Divergence] = []
    for name, oracle in selected:
        try:
            divergences.extend(oracle(spec, ctx))
        except Exception as error:  # noqa: BLE001
            divergences.append(Divergence(
                name, f"crash: {type(error).__name__}: {error}",
                {"traceback": traceback.format_exc()}))
    return CaseResult(spec, divergences, names)


def failing_oracles(result: CaseResult) -> Tuple[str, ...]:
    return tuple(sorted({d.oracle for d in result.divergences}))


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CampaignReport:
    """Summary of one ``repro fuzz run`` sweep."""

    seed: int
    budget: int
    executed: int
    failures: List[CaseResult]
    case_paths: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_campaign(
    seed: int,
    budget: int,
    artifacts_dir: Optional[str] = None,
    shrink: bool = True,
    log: Callable[[str], None] = lambda message: None,
) -> CampaignReport:
    """Generate and execute ``budget`` scenarios from ``seed`` upward.

    Every failing scenario is (optionally) shrunk to a minimal spec that
    still fails the same oracles, then written to ``artifacts_dir`` as a
    replayable JSON case file.
    """
    from repro.fuzz.corpus import save_case
    from repro.fuzz.shrinker import shrink_spec

    cache = ModelCache()
    failures: List[CaseResult] = []
    case_paths: List[str] = []
    for offset in range(budget):
        scenario_seed = seed + offset
        spec = generate_scenario(scenario_seed)
        result = run_scenario(spec, cache=cache)
        if result.ok:
            if (offset + 1) % 50 == 0:
                log(f"[fuzz] {offset + 1}/{budget} scenarios, "
                    f"{len(failures)} divergent")
            continue
        oracles = failing_oracles(result)
        log(f"[fuzz] seed {scenario_seed}: divergence in {', '.join(oracles)}")
        if shrink:
            def still_fails(candidate: ScenarioSpec) -> bool:
                candidate_result = run_scenario(candidate, cache=cache)
                return bool(set(failing_oracles(candidate_result)) & set(oracles))

            shrunk = shrink_spec(spec, still_fails)
            if shrunk != spec:
                log(f"[fuzz] seed {scenario_seed}: shrunk "
                    f"{_spec_size(spec)} -> {_spec_size(shrunk)}")
                result = run_scenario(shrunk, cache=cache)
                if result.ok:  # flaky shrink target: keep the original
                    result = run_scenario(spec, cache=cache)
        failures.append(result)
        if artifacts_dir is not None:
            path = save_case(artifacts_dir, result,
                             name=f"case_seed{scenario_seed}")
            case_paths.append(str(path))
            log(f"[fuzz] wrote {path}")
    return CampaignReport(seed=seed, budget=budget, executed=budget,
                          failures=failures, case_paths=case_paths)


def _spec_size(spec: ScenarioSpec) -> int:
    """Rough workload size used only for shrink-progress logging."""
    grids = spec.frame_grids
    return (spec.num_scenes * max(spec.grid, 1) ** 2
            + sum(max(g, 1) ** 2 for g in grids))


def replay_case(case: Dict[str, Any],
                cache: Optional[ModelCache] = None) -> CaseResult:
    """Re-run a recorded case file's spec through its recorded oracles."""
    spec = ScenarioSpec.from_json_dict(case["spec"])
    oracle_names = case.get("oracles")
    return run_scenario(spec, oracle_names=oracle_names, cache=cache)
