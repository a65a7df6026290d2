"""Mission sessions: cached ``prepare()`` results keyed by fingerprint.

``ITaskPipeline.prepare`` is expensive relative to a single small-scene
detect — LLM graph extraction, few-shot refinement, similarity-based
configuration selection, matcher plan construction — and is pure given
the mission spec plus the pipeline's configuration.  A
:class:`MissionSession` pins one prepared mission; a
:class:`SessionCache` holds sessions in an LRU keyed by
:func:`mission_fingerprint` so repeated requests for the same mission
reuse everything.

Cache-key semantics: the fingerprint covers every input ``prepare()``
reads — the spec's text and support profiles, the ablation switches
(``use_kg``/``refine_kg``), the score threshold, the LLM noise
configuration, the selection arguments (``multi_task``, latency
budget), and the selector's registered specialists *including each
specialist graph's* ``KnowledgeGraph.version`` and a content digest of
its constraint set — so editing a registered graph in place, or
replacing it outright with a fresh graph whose version number happens
to coincide, changes the key and naturally misses.  With a
*noisy* LLM the first prepared sample is pinned for the session's
lifetime (one deployed graph per mission, rather than re-rolling the
extraction-noise dice on every request); invalidate explicitly to
resample.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
)

from repro.detect.metrics import task_accuracy
from repro.obs import get_registry

if TYPE_CHECKING:  # circular-import guard: core.pipeline imports us
    from repro.core.pipeline import PipelineResult
    from repro.core.selector import ConfigurationSelector
    from repro.core.taskspec import TaskSpec
    from repro.data.scenes import Scene
    from repro.detect.pipeline import Detection
    from repro.kg.llm import LLMNoiseConfig
    from repro.serve.engine import DetectionEngine, EngineConfig


def _graph_digest(kg) -> str:
    """Content hash of a knowledge graph's constraint set."""
    return hashlib.sha256(
        json.dumps(kg.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()


def mission_fingerprint(
    spec: "TaskSpec",
    *,
    multi_task: bool = False,
    latency_budget_ms: Optional[float] = None,
    use_kg: bool = True,
    refine_kg: bool = True,
    score_threshold: float = 0.35,
    llm_noise: Optional["LLMNoiseConfig"] = None,
    selector: Optional["ConfigurationSelector"] = None,
) -> str:
    """Stable hash of everything ``prepare()`` depends on."""

    def as_profile(profile) -> Optional[Dict[str, str]]:
        return None if profile is None else profile.as_dict()

    payload = {
        "name": spec.name,
        "mission_text": spec.mission_text,
        "support_positives": [as_profile(p) for p in spec.support_positives],
        "support_negatives": [as_profile(p) for p in spec.support_negatives],
        "multi_task": bool(multi_task),
        "latency_budget_ms": latency_budget_ms,
        "use_kg": bool(use_kg),
        "refine_kg": bool(refine_kg),
        "score_threshold": score_threshold,
        "llm_noise": (dataclasses.asdict(llm_noise)
                      if llm_noise is not None else None),
        "selector": None if selector is None else {
            "similarity_threshold": selector.similarity_threshold,
            "accelerator_latency_ms": selector.accelerator_latency_ms,
            "specialist_latency_ms": selector.specialist_latency_ms,
            # A graph edited in place bumps its version -> new key; the
            # content digest additionally covers a graph *replaced* via
            # register_specialist, whose fresh version number can
            # coincide with the old graph's (found by the pipeline
            # session fuzz oracle: the stale fingerprint kept serving
            # the previous graph's cached session).
            "specialists": sorted(
                (name, kg.version, _graph_digest(kg))
                for name, kg in selector.specialist_graphs.items()
            ),
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


class MissionSession:
    """One prepared mission, ready to serve many scenes.

    Wraps a :class:`repro.core.PipelineResult` (knowledge graph,
    selection decision, configuration, detector) and exposes the serving
    surface: single-scene :meth:`detect`, fused :meth:`detect_batch`,
    :meth:`evaluate`, and an :meth:`engine` factory for queued
    micro-batched serving.
    """

    def __init__(self, key: str, result: "PipelineResult") -> None:
        self.key = key
        self.result = result
        self._created_kg_version = result.kg.version

    # -- convenience views ---------------------------------------------
    @property
    def spec(self) -> "TaskSpec":
        return self.result.spec

    @property
    def kg(self):
        return self.result.kg

    @property
    def decision(self):
        return self.result.decision

    @property
    def configuration(self):
        return self.result.configuration

    @property
    def detector(self):
        return self.result.detector

    @property
    def stale(self) -> bool:
        """True when the session's graph was edited after preparation.

        The matcher rebuilds its constraint plans automatically on
        version bumps, so a stale session still scores correctly against
        the *edited* graph — but its cache key no longer describes it.
        Callers that edit graphs should invalidate and re-prepare.
        """
        return self.result.kg.version != self._created_kg_version

    # -- serving -------------------------------------------------------
    def detect(self, scene: "Scene") -> List["Detection"]:
        return self.detector.detect(scene)

    def detect_batch(self, scenes: Sequence["Scene"]) -> List[List["Detection"]]:
        """Fused multi-scene detection (see ``TaskDetector.detect_batch``)."""
        return self.detector.detect_batch(scenes)

    def evaluate(self, scenes: Sequence["Scene"],
                 object_cells_only: bool = False) -> float:
        """Task accuracy over scenes, via the batch-first path."""
        if self.spec.definition is None:
            raise ValueError("evaluation requires spec.definition ground truth")
        return task_accuracy(self.detector, scenes, self.spec.definition,
                             object_cells_only=object_cells_only)

    def engine(self, config: Optional["EngineConfig"] = None) -> "DetectionEngine":
        """A micro-batching engine serving this session."""
        from repro.serve.engine import DetectionEngine

        return DetectionEngine(self, config=config)

    def stream(self, config=None):
        """A streaming detector over this session's model + matcher.

        Returns a fresh :class:`repro.stream.StreamingDetector`; pass a
        ``TrackerConfig`` with ``delta_gate=True`` for incremental
        per-frame cost on mostly-static camera feeds.
        """
        from repro.stream.tracker import StreamingDetector, TrackerConfig

        return StreamingDetector.from_session(
            self, config=config if config is not None else TrackerConfig())

    def request_scope(self, tenant: Optional[str] = None,
                      deadline_ms: Optional[float] = None, **attrs):
        """A traced request scope bound to this mission.

        Context manager minting a :class:`repro.obs.RequestContext`
        whose ``mission`` is this session's fingerprint, so spans and
        cascade decisions recorded for the request — including on
        engine worker threads — attribute back to both the request and
        the mission:

            with session.request_scope(tenant="acme") as ctx:
                future = engine.submit(scene)
        """
        from repro.obs.context import request_context

        return request_context(tenant=tenant, mission=self.key,
                               deadline_ms=deadline_ms, **attrs)

    def __repr__(self) -> str:
        return (f"MissionSession(task={self.spec.name!r}, "
                f"configuration={self.decision.kind!r}, "
                f"key={self.key[:12]}...)")


class SessionCache:
    """LRU cache of :class:`MissionSession` by mission fingerprint.

    Thread-safe; a ``get_or_create`` miss builds the session *inside*
    the lock, so concurrent first requests for one mission prepare it
    exactly once (the same generate-once guarantee the regression tests
    assert for repeated sequential detects).  Traffic is recorded in the
    global obs registry as ``session.cache.{hit,miss,evict}``.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("session cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, MissionSession]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[MissionSession]:
        with self._lock:
            session = self._entries.get(key)
            if session is not None:
                self._entries.move_to_end(key)
            return session

    def get_or_create(
        self, key: str, factory: Callable[[], "PipelineResult"],
    ) -> MissionSession:
        obs = get_registry()
        with self._lock:
            session = self._entries.get(key)
            if session is not None:
                self._entries.move_to_end(key)
                obs.count("session.cache.hit")
                return session
            obs.count("session.cache.miss")
            session = MissionSession(key, factory())
            self._entries[key] = session
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                obs.count("session.cache.evict")
            return session

    def invalidate(self, key: str) -> bool:
        """Drop one session; True if it was cached."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> int:
        """Drop every session (e.g. after registering a specialist)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
