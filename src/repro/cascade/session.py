"""Cascade serving surface: sessions, specialist pinning, engine wiring.

A :class:`CascadeSession` pairs one prepared mission
(:class:`repro.serve.MissionSession`) with a :class:`CascadeRouter`
and mirrors the session serving surface (``detect`` / ``detect_batch``
/ ``evaluate`` / ``engine``), so the micro-batching
:class:`~repro.serve.DetectionEngine` can serve a cascade unchanged —
it only ever calls ``detect_batch``.  :meth:`CascadeSession.engine`
additionally wires the engine's live queue depth into the router, which
is what makes the shedding policy load-aware.

:class:`SpecialistRegistry` keys specialists by mission fingerprint
(:func:`repro.serve.mission_fingerprint`): a pinned fingerprint routes
every scene of that mission toward its specialist regardless of margin,
subject to the same budget and load shedding as margin escalations.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cascade.router import CascadeRouter, RouteDecision
from repro.detect.metrics import task_accuracy

if TYPE_CHECKING:
    from repro.data.scenes import Scene
    from repro.detect.pipeline import Detection
    from repro.serve.engine import DetectionEngine, EngineConfig
    from repro.serve.session import MissionSession


class SpecialistRegistry:
    """Mission-fingerprint -> specialist-task pins, thread-safe."""

    def __init__(self) -> None:
        self._pins: Dict[str, str] = {}
        self._lock = threading.Lock()

    def pin(self, fingerprint: str, task_name: str) -> None:
        with self._lock:
            self._pins[fingerprint] = task_name

    def unpin(self, fingerprint: str) -> bool:
        with self._lock:
            return self._pins.pop(fingerprint, None) is not None

    def lookup(self, fingerprint: str) -> Optional[str]:
        with self._lock:
            return self._pins.get(fingerprint)

    def pins(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._pins)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pins)


class CascadeSession:
    """One prepared mission served through a cascade router.

    Mirrors :class:`~repro.serve.MissionSession`'s serving surface;
    ``detect``/``detect_batch`` return plain detections (what the engine
    expects), while :meth:`route` / :meth:`route_batch` additionally
    return the per-scene :class:`RouteDecision`.  Every decision is also
    appended to an internal log — :meth:`route_counts` /
    :meth:`drain_decisions` — so tests and the CLI can audit routing
    after the fact, including across engine workers.
    """

    def __init__(self, session: Optional["MissionSession"],
                 router: CascadeRouter) -> None:
        # ``session=None`` builds a router-only session: the serving
        # surface (detect/detect_batch/engine + the decision log) over
        # pre-built detectors, with the mission-bound conveniences
        # (spec/kg/evaluate) unavailable.  Benchmarks replaying traffic
        # through a raw router use this.
        self.session = session
        self.router = router
        self._decisions: List[RouteDecision] = []
        self._lock = threading.Lock()

    def _require_session(self) -> "MissionSession":
        if self.session is None:
            raise ValueError("router-only CascadeSession has no prepared "
                             "mission (built with session=None)")
        return self.session

    # -- convenience views ---------------------------------------------
    @property
    def key(self) -> str:
        return self._require_session().key

    @property
    def spec(self):
        return self._require_session().spec

    @property
    def kg(self):
        return self._require_session().kg

    @property
    def decision(self):
        return self._require_session().decision

    @property
    def has_specialist(self) -> bool:
        return self.router.specialist is not None

    # -- serving -------------------------------------------------------
    def route(self, scene: "Scene") -> Tuple[List["Detection"], RouteDecision]:
        detections, decision = self.router.detect(scene)
        self._log([decision])
        return detections, decision

    def route_batch(
        self, scenes: Sequence["Scene"],
        contexts: Optional[Sequence] = None,
    ) -> Tuple[List[List["Detection"]], List[RouteDecision]]:
        results, decisions = self.router.detect_batch(scenes, contexts=contexts)
        self._log(decisions)
        return results, decisions

    def detect(self, scene: "Scene") -> List["Detection"]:
        return self.route(scene)[0]

    def detect_batch(self, scenes: Sequence["Scene"],
                     contexts: Optional[Sequence] = None,
                     ) -> List[List["Detection"]]:
        # ``contexts`` (one RequestContext or None per scene) arrives
        # from the engine's captured submitter contexts; the router
        # stamps each RouteDecision with its request's trace_id.
        return self.route_batch(scenes, contexts=contexts)[0]

    def evaluate(self, scenes: Sequence["Scene"],
                 object_cells_only: bool = False) -> float:
        """Cascade task accuracy over scenes (batch-first routing)."""
        if self.spec.definition is None:
            raise ValueError("evaluation requires spec.definition ground truth")
        return task_accuracy(self, scenes, self.spec.definition,
                             object_cells_only=object_cells_only)

    def engine(self, config: Optional["EngineConfig"] = None) -> "DetectionEngine":
        """A micro-batching engine serving this cascade.

        The router's queue-depth provider is pointed at the new engine's
        queue, so escalations shed when this engine backs up.  One
        engine per cascade session: a second call repoints the provider.
        """
        from repro.serve.engine import DetectionEngine

        engine = DetectionEngine(self, config=config)
        self.router.queue_depth_fn = lambda: engine.queue_depth
        return engine

    # -- decision audit ------------------------------------------------
    def _log(self, decisions: Sequence[RouteDecision]) -> None:
        with self._lock:
            self._decisions.extend(decisions)

    def route_counts(self) -> Dict[str, int]:
        """Decisions so far, keyed by route name."""
        with self._lock:
            counts: Dict[str, int] = {}
            for decision in self._decisions:
                counts[decision.route] = counts.get(decision.route, 0) + 1
            return counts

    def drain_decisions(self) -> List[RouteDecision]:
        """Snapshot and clear the decision log."""
        with self._lock:
            decisions = list(self._decisions)
            self._decisions.clear()
            return decisions

    def decision_summary(self) -> List[Dict]:
        """JSON-able view of the decision log, *without* clearing it.

        This is what a shard worker returns for the front-end's
        ``decisions`` probe: route/margin/reason/trace_id per scene, so
        shed decisions made in a worker process can be audited — and
        compared bit-for-bit against an in-process run — from the
        router side.
        """
        with self._lock:
            return [
                {
                    "scene_index": d.scene_index,
                    "route": d.route,
                    "margin": d.margin,
                    "reason": d.reason,
                    "trace_id": d.trace_id,
                }
                for d in self._decisions
            ]

    def __repr__(self) -> str:
        pin = "pinned" if self.router.pinned else "margin"
        if self.session is None:
            return (f"CascadeSession(router-only, mode={pin}, "
                    f"specialist={self.has_specialist})")
        return (f"CascadeSession(task={self.spec.name!r}, mode={pin}, "
                f"specialist={self.has_specialist}, key={self.key[:12]}...)")
