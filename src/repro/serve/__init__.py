"""Session-oriented, batch-first serving for the detect path.

The ROADMAP's north star is a system serving heavy traffic, and this
package is its execution engine, in three layers:

* :class:`MissionSession` — one *prepared* mission (knowledge graph,
  refinement, matcher plans, selected configuration, detector) reused
  across requests, held in an LRU :class:`SessionCache` so repeated
  missions never re-run LLM extraction or configuration selection;
* batch-first dataflow — sessions expose
  :meth:`MissionSession.detect_batch`, which fuses many scenes' windows
  into one model forward and one knowledge-graph match
  (:meth:`repro.detect.TaskDetector.detect_batch`);
* :class:`DetectionEngine` — a bounded-queue worker pool that
  micro-batches individually submitted scenes (each flush takes what is
  queued, up to ``max_batch`` scenes, with no timed wait), applies
  backpressure when the queue is full, shuts down gracefully, and
  returns results in submission order;
* :class:`ShardRouter` — a multi-process tier over N such engines:
  mission-fingerprint affinity routing, per-shard scene-slot
  backpressure with shedding and per-tenant fairness, graceful drain on SIGTERM, and
  bit-exact cross-shard metrics aggregation (see :mod:`repro.serve
  .shard`).

:class:`repro.core.ITaskPipeline` stays the friendly facade: it now
routes ``prepare``/``detect``/``evaluate`` through this cache and hands
out sessions via ``pipeline.session(spec)``.
"""

from repro.serve.session import MissionSession, SessionCache, mission_fingerprint
from repro.serve.engine import (
    DetectionEngine,
    EngineClosed,
    EngineConfig,
    EngineRejected,
)
from repro.serve.shard import (
    ShardClosed,
    ShardConfig,
    ShardRejected,
    ShardRouter,
    TaskSessionFactory,
    shard_for_mission,
    worker_seed,
)

__all__ = [
    "MissionSession",
    "SessionCache",
    "mission_fingerprint",
    "DetectionEngine",
    "EngineClosed",
    "EngineConfig",
    "EngineRejected",
    "ShardClosed",
    "ShardConfig",
    "ShardRejected",
    "ShardRouter",
    "TaskSessionFactory",
    "shard_for_mission",
    "worker_seed",
]
