"""Dual-configuration cascade routing.

The paper's central tradeoff — the task-specific distilled specialist
wins on its own mission while the quantized generalist is cheap and
robust — becomes operational here: every scene runs the quantized
configuration first, and only scenes whose confidence margin
(:func:`repro.detect.confidence_margin`) falls below a calibrated
threshold escalate to the specialist.  Escalation happens under a
deterministic sliding-window budget and a load-shedding check against
the serving engine's queue, so a traffic spike degrades to fast-path
quality instead of unbounded queueing.

Routing is a pure function of one scene's quantized outputs plus the
budget/load state: with a non-binding budget the decisions are
identical across :meth:`CascadeRouter.detect`,
:meth:`CascadeRouter.detect_batch`, and the multi-worker engine,
because the quantized forward itself is exactly batch- and
order-invariant.  A shed or fast-path scene returns the quantized
result bit for bit — escalation can only replace it with the
specialist's answer, never with a third hybrid.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.data.scenes import Scene
from repro.detect.pipeline import Detection, SceneSignals, TaskDetector
from repro.obs import get_registry
from repro.obs.context import RequestContext, current_context
from repro.obs.sampler import get_sampler

# Routes a scene can take through the cascade, in the order they are
# considered: confident scenes stay on the fast path, uncertain ones
# escalate unless load or budget sheds them back.
FAST_PATH = "fast_path"
ESCALATED = "escalated"
SHED = "shed"


@dataclasses.dataclass(frozen=True)
class CascadeConfig:
    """Tunable policy for the cascade router.

    margin_threshold:
        Scenes with confidence margin strictly below this escalate.
        Calibrate with :func:`repro.cascade.calibrate_margin_threshold`;
        the default matches the shipped artifact sweep (E13).
    max_escalation_fraction:
        Budget: at most this fraction of the last ``escalation_window``
        routing decisions may escalate.  ``>= 1.0`` disables the budget.
    escalation_window:
        Sliding window (in scenes) the fraction is measured over.
    shed_queue_depth:
        When a queue-depth provider reports more than this many waiting
        jobs, escalations shed regardless of budget.  ``None`` disables
        load shedding (no provider attached, e.g. outside the engine).
    """

    margin_threshold: float = 0.15
    max_escalation_fraction: float = 1.0
    escalation_window: int = 64
    shed_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.margin_threshold:
            raise ValueError("margin_threshold must be >= 0")
        if not 0.0 <= self.max_escalation_fraction:
            raise ValueError("max_escalation_fraction must be >= 0")
        if self.escalation_window < 1:
            raise ValueError("escalation_window must be >= 1")
        if self.shed_queue_depth is not None and self.shed_queue_depth < 0:
            raise ValueError("shed_queue_depth must be >= 0")


@dataclasses.dataclass(frozen=True)
class RouteDecision:
    """Why one scene took the route it did.

    ``trace_id`` ties the decision to the request that submitted the
    scene (when routing ran under a request context, e.g. through the
    engine), so an operator can go from "this scene shed" to the full
    sampled span tree of the request that suffered it.
    """

    scene_index: int
    route: str  # FAST_PATH | ESCALATED | SHED
    margin: float
    reason: str
    trace_id: Optional[str] = None


class EscalationBudget:
    """Sliding-window escalation-rate limiter.

    Tracks the last ``window`` routing decisions as escalated/not flags
    and grants a new escalation iff the escalations already in the
    window stay strictly below ``fraction * window``.  Deterministic —
    no clocks — and thread-safe: the engine's workers share one budget.

    ``fraction >= 1.0`` is explicitly unlimited: with the window full of
    escalations, ``count < fraction * window`` would deny the next one
    even though every grant is within policy.
    """

    def __init__(self, fraction: float, window: int = 64) -> None:
        if fraction < 0.0:
            raise ValueError("fraction must be >= 0")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.fraction = fraction
        self.window = window
        self._decisions: deque = deque(maxlen=window)
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        """Record one routing decision; True iff escalation is granted."""
        with self._lock:
            if self.fraction >= 1.0:
                self._decisions.append(True)
                return True
            granted = sum(self._decisions) < self.fraction * self.window
            self._decisions.append(granted)
            return granted

    def record_fast_path(self) -> None:
        """A scene that never wanted escalation still ages the window."""
        with self._lock:
            self._decisions.append(False)

    @property
    def escalated_in_window(self) -> int:
        with self._lock:
            return sum(self._decisions)


class CascadeRouter:
    """Route scenes between a fast detector and a specialist.

    Parameters
    ----------
    fast:
        First-pass detector (the quantized configuration).  Every scene
        runs through it; its outputs provide the margin signal.
    specialist:
        Escalation target (the task-specific distilled configuration),
        or ``None`` — with no specialist registered for the mission the
        cascade is the fast path, margins are still observed.
    config:
        Routing policy (:class:`CascadeConfig`).
    pinned:
        Mission-fingerprint pin: the mission matched a registered
        specialist exactly, so every scene desires escalation regardless
        of margin (budget and load shedding still apply).
    queue_depth_fn:
        Optional provider of the serving queue depth, consulted per
        scene when ``config.shed_queue_depth`` is set.
    budget:
        Optional shared :class:`EscalationBudget`; built from the config
        when omitted.  The engine path passes one budget shared across
        workers.
    """

    def __init__(
        self,
        fast: TaskDetector,
        specialist: Optional[TaskDetector] = None,
        config: Optional[CascadeConfig] = None,
        pinned: bool = False,
        queue_depth_fn: Optional[Callable[[], int]] = None,
        budget: Optional[EscalationBudget] = None,
    ) -> None:
        self.fast = fast
        self.specialist = specialist
        self.config = config or CascadeConfig()
        self.pinned = pinned
        self.queue_depth_fn = queue_depth_fn
        self.budget = budget or EscalationBudget(
            self.config.max_escalation_fraction,
            self.config.escalation_window)

    # ------------------------------------------------------------------
    def _route_one(self, scene_index: int, signals: SceneSignals,
                   trace_id: Optional[str] = None) -> RouteDecision:
        """One scene's routing decision, recorded against the budget."""
        margin = signals.margin
        if self.specialist is None:
            self.budget.record_fast_path()
            return RouteDecision(scene_index, FAST_PATH, margin,
                                 "no specialist registered", trace_id)
        if self.pinned:
            reason = "mission fingerprint pinned to specialist"
        elif margin < self.config.margin_threshold:
            reason = (f"margin {margin:.4f} < "
                      f"threshold {self.config.margin_threshold:.4f}")
        else:
            self.budget.record_fast_path()
            return RouteDecision(scene_index, FAST_PATH, margin,
                                 f"margin {margin:.4f} >= threshold", trace_id)
        if (self.config.shed_queue_depth is not None
                and self.queue_depth_fn is not None
                and self.queue_depth_fn() > self.config.shed_queue_depth):
            self.budget.record_fast_path()
            return RouteDecision(scene_index, SHED, margin,
                                 "engine queue above shed depth", trace_id)
        if not self.budget.try_acquire():
            return RouteDecision(scene_index, SHED, margin,
                                 "escalation budget exhausted", trace_id)
        return RouteDecision(scene_index, ESCALATED, margin, reason, trace_id)

    def _observe(self, decisions: Sequence[RouteDecision]) -> None:
        obs = get_registry()
        for decision in decisions:
            obs.count(f"cascade.{decision.route}")
            if math.isfinite(decision.margin):
                obs.observe("cascade.margin", decision.margin)
                if decision.route == ESCALATED:
                    obs.observe("cascade.margin.escalated", decision.margin)
        sampler = get_sampler()
        if sampler is not None:
            # Tail sampling + flight recorder: shed/escalated traces are
            # retained as exemplars, and a shed storm dumps the ring.
            sampler.observe_route(decisions, registry=obs)

    # ------------------------------------------------------------------
    def detect(self, scene: Scene) -> Tuple[List[Detection], RouteDecision]:
        """Route one scene; returns the final detections + the decision."""
        results, decisions = self.detect_batch([scene])
        return results[0], decisions[0]

    def detect_batch(
        self, scenes: Sequence[Scene],
        contexts: Optional[Sequence[Optional[RequestContext]]] = None,
    ) -> Tuple[List[List[Detection]], List[RouteDecision]]:
        """Route a batch: fused fast pass, then one fused specialist pass
        over the escalated subset.  Results stay in input order; fast and
        shed scenes keep the quantized output bit for bit.

        ``contexts`` carries one :class:`RequestContext` (or None) per
        scene — the engine passes the submitters' captured contexts so
        each decision's ``trace_id`` names the request it belongs to.
        Without it, the caller's own request context (if any) covers the
        whole batch.
        """
        scenes = list(scenes)
        if not scenes:
            return [], []
        if contexts is None:
            ctx = current_context()
            contexts = [ctx] * len(scenes)
        with get_registry().span("cascade.route", scenes=len(scenes)) as span:
            results, signal_list = self.fast.detect_batch_with_signals(scenes)
            decisions = [
                self._route_one(
                    i, signals,
                    contexts[i].trace_id if contexts[i] is not None else None)
                for i, signals in enumerate(signal_list)]
            escalated = [d.scene_index for d in decisions
                         if d.route == ESCALATED]
            if escalated and self.specialist is not None:
                refined = self.specialist.detect_batch(
                    [scenes[i] for i in escalated])
                for i, detections in zip(escalated, refined):
                    results[i] = detections
            self._observe(decisions)
            span.set_attr(escalated=len(escalated),
                          shed=sum(d.route == SHED for d in decisions))
            return results, decisions
