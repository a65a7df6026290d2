"""Micro-batching detection engine: queue, workers, backpressure.

Serving traffic arrives one scene at a time, but the batch-first
dataflow (``TaskDetector.detect_batch``) is cheapest when many scenes
share one model forward.  The :class:`DetectionEngine` bridges the two:

* :meth:`DetectionEngine.submit` enqueues a scene on a **bounded** queue
  and returns a future — when the queue is full the call blocks, which
  is the backpressure signal (producers slow to the engine's pace
  instead of growing an unbounded backlog); ``block=False`` turns the
  same condition into an immediate :class:`EngineRejected` (counted as
  ``engine.rejected``) for callers that would rather drop than wait;
* worker threads drain the queue into micro-batches, flushing when
  ``max_batch`` scenes are pending or ``flush_ms`` after the first
  scene of a batch arrived — the classic latency/throughput knob pair;
* :meth:`DetectionEngine.detect_many` submits a whole scene list and
  gathers results **in submission order**, independent of how workers
  interleave, so callers see deterministic ordering;
* :meth:`DetectionEngine.close` (or the context manager) drains
  outstanding work, then stops the workers.

Observability: every flush records the ``engine.batch_size`` and
``engine.queue_depth`` distributions, the ``engine.{scenes,batches}``
counters, and — per job — two separate spans, so backpressure is
distinguishable from slow inference in traces and ``/metrics``:

* ``engine.queue_wait`` — submit to flush start (time spent queued);
* ``engine.execute`` — the batched forward interval the request rode
  (its perceived inference time; batch peers share the interval).

Request tracing: ``submit`` captures the caller's
:class:`repro.obs.context.RequestContext`, so the per-job spans carry
the submitter's trace id and re-parent under its request span even
though they are recorded on a worker thread, and the contexts ride
down to ``session.detect_batch(..., contexts=...)`` when the session
accepts them (the cascade session does — every routing decision
becomes attributable to a trace).  An installed
:class:`repro.obs.sampler.ExemplarSampler` sees per-request durations
(tail sampling) and dumps its flight recorder when a batch raises.

Determinism: batch *composition* depends on arrival timing, so only a
batch-invariant model makes concurrent results bit-identical to
sequential ones.  The quantized (integer) configuration is exactly
batch-invariant; float models agree on boxes/order with scores equal to
within an ulp or two (see ``TaskDetector.detect_batch``).
"""

from __future__ import annotations

import dataclasses
import inspect
import queue
import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.obs import get_registry
from repro.obs.context import RequestContext, current_context
from repro.obs.sampler import get_sampler

if TYPE_CHECKING:
    from repro.data.scenes import Scene
    from repro.detect.pipeline import Detection
    from repro.serve.session import MissionSession


class EngineClosed(RuntimeError):
    """Raised by ``submit`` after the engine has been closed."""


class EngineRejected(RuntimeError):
    """Raised by non-blocking ``submit`` when the queue is full."""


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """Micro-batching knobs.

    ``max_batch``
        Flush as soon as this many scenes are pending in one batch.
    ``flush_ms``
        Flush a partial batch this many milliseconds after its first
        scene arrived (tail-latency bound for sparse traffic).
    ``workers``
        Worker threads.  More workers overlap batches; on a single core
        they trade latency for fairness rather than adding throughput.
    ``queue_size``
        Bound of the submit queue — the backpressure depth.
    """

    max_batch: int = 8
    flush_ms: float = 2.0
    workers: int = 1
    queue_size: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.flush_ms < 0.0:
            raise ValueError("flush_ms must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")


class _Job:
    __slots__ = ("scene", "stride", "future", "enqueued_s", "ctx")

    def __init__(self, scene: "Scene", stride: Optional[int],
                 ctx: Optional[RequestContext]) -> None:
        self.scene = scene
        self.stride = stride
        self.future: "Future[List[Detection]]" = Future()
        self.enqueued_s = time.perf_counter()
        self.ctx = ctx


_SENTINEL = object()


class DetectionEngine:
    """Bounded-queue micro-batching worker pool over one session."""

    def __init__(self, session: "MissionSession",
                 config: Optional[EngineConfig] = None) -> None:
        self.session = session
        self.config = config or EngineConfig()
        # Sessions that accept per-scene request contexts (the cascade
        # session does) get them; plain sessions keep their signature.
        self._pass_contexts = self._accepts_contexts(session.detect_batch)
        self._queue: "queue.Queue[object]" = queue.Queue(
            maxsize=self.config.queue_size)
        self._closed = False
        self._close_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-engine-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    @staticmethod
    def _accepts_contexts(detect_batch) -> bool:
        try:
            return "contexts" in inspect.signature(detect_batch).parameters
        except (TypeError, ValueError):  # builtins / C callables
            return False

    # -- submission ----------------------------------------------------
    def submit(self, scene: "Scene", stride: Optional[int] = None, *,
               block: bool = True,
               timeout: Optional[float] = None,
               ctx: Optional[RequestContext] = None,
               ) -> "Future[List[Detection]]":
        """Enqueue one scene; blocks when the queue is full (backpressure).

        With ``block=False`` (or a ``timeout``), a full queue raises
        :class:`EngineRejected` instead — the load-shedding flavor of
        backpressure — and bumps the ``engine.rejected`` counter so
        rejected traffic is visible next to served traffic.

        ``ctx`` overrides the implicit :func:`current_context` capture;
        a shard worker submitting on behalf of a remote caller passes
        the deserialized wire context here, since the caller's
        ContextVar never crossed the process boundary.
        """
        if self._closed:
            raise EngineClosed("engine is closed")
        get_registry().observe("engine.queue_depth", self._queue.qsize())
        job = _Job(scene, stride, ctx if ctx is not None else current_context())
        try:
            self._queue.put(job, block=block, timeout=timeout)
        except queue.Full:
            get_registry().count("engine.rejected")
            sampler = get_sampler()
            if sampler is not None:
                sampler.flight.record(
                    "rejected",
                    trace_id=job.ctx.trace_id if job.ctx else None,
                    queue_depth=self._queue.qsize())
            raise EngineRejected(
                f"queue full ({self.config.queue_size} scenes)") from None
        return job.future

    def detect_many(self, scenes: Sequence["Scene"],
                    stride: Optional[int] = None) -> List[List["Detection"]]:
        """Submit scenes and gather results in submission order.

        Ordering is deterministic regardless of worker interleaving:
        results are collected from the submission-ordered futures, not
        from completion order.
        """
        futures = [self.submit(scene, stride=stride) for scene in scenes]
        return [future.result() for future in futures]

    # -- lifecycle -----------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting work; drain the queue, then stop the workers.

        Jobs already queued are still executed (graceful shutdown) —
        their futures complete before the workers exit.
        """
        with self._close_lock:
            if self._closed:
                if wait:
                    for worker in self._workers:
                        worker.join()
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        if wait:
            for worker in self._workers:
                worker.join()
            # A submit() racing close() can slip a job in behind the
            # sentinels; fail it rather than leaving its future hanging.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SENTINEL and not item.future.done():
                    item.future.set_exception(
                        EngineClosed("engine closed before scene was served"))

    def __enter__(self) -> "DetectionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Scenes currently waiting in the submit queue (approximate).

        This is the load signal the cascade router's shedding policy
        reads: a growing depth means producers are outpacing the
        workers, so escalations shed to keep the fast path flowing.
        """
        return self._queue.qsize()

    # -- workers -------------------------------------------------------
    def _worker_loop(self) -> None:
        cfg = self.config
        while True:
            head = self._queue.get()
            if head is _SENTINEL:
                return
            batch: List[_Job] = [head]
            deadline = time.perf_counter() + cfg.flush_ms / 1e3
            saw_sentinel = False
            while len(batch) < cfg.max_batch:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _SENTINEL:
                    saw_sentinel = True
                    break
                batch.append(item)
            self._flush(batch)
            if saw_sentinel:
                return

    def _flush(self, batch: List[_Job]) -> None:
        obs = get_registry()
        flush_start = time.perf_counter()
        if obs.enabled:
            obs.observe("engine.batch_size", len(batch))
            obs.count("engine.batches")
            obs.count("engine.scenes", len(batch))
            for job in batch:
                # Queued interval, attributed to the submitter's trace
                # and parented under its request span even though this
                # runs on a worker thread.
                obs.record_span(
                    "engine.queue_wait", job.enqueued_s, flush_start,
                    trace_id=job.ctx.trace_id if job.ctx else None,
                    parent_id=job.ctx.parent_span_id if job.ctx else None)
        # Futures resolve only after the batch span has closed, so a
        # caller woken by its result already sees this batch's
        # ``engine.batch`` timer.  A stride group that succeeded keeps
        # its results even when a later group raises.
        served: List["tuple[_Job, List[Detection]]"] = []
        error: Optional[BaseException] = None
        try:
            with obs.span("engine.batch", scenes=len(batch)) as batch_span:
                # Jobs may carry different strides; group per stride so
                # each group still shares one fused forward.
                by_stride: "dict[Optional[int], List[_Job]]" = {}
                for job in batch:
                    by_stride.setdefault(job.stride, []).append(job)
                for stride, jobs in by_stride.items():
                    exec_start = time.perf_counter()
                    try:
                        scenes = [job.scene for job in jobs]
                        if self._pass_contexts:
                            results = self.session.detect_batch(
                                scenes, stride=stride,
                                contexts=[job.ctx for job in jobs])
                        else:
                            results = self.session.detect_batch(
                                scenes, stride=stride)
                    finally:
                        self._record_execute(
                            obs, jobs, exec_start, time.perf_counter(),
                            batch_span)
                    served.extend(zip(jobs, results))
        except BaseException as exc:  # fail the rest of the batch, keep serving
            error = exc
        for job, detections in served:
            job.future.set_result(detections)
        if error is not None:
            for job in batch:
                if not job.future.done():
                    job.future.set_exception(error)
            sampler = get_sampler()
            if sampler is not None:
                sampler.record_engine_error(
                    error, scenes=len(batch), registry=obs,
                    trace_ids=[job.ctx.trace_id if job.ctx else None
                               for job in batch])

    @staticmethod
    def _record_execute(obs, jobs: List[_Job], exec_start: float,
                        exec_end: float, batch_span) -> None:
        if not obs.enabled:
            return
        sampler = get_sampler()
        batch_span_id = getattr(batch_span, "span_id", None)
        for job in jobs:
            # The request's perceived inference time is the whole fused
            # interval it rode, not an amortized slice.
            obs.record_span(
                "engine.execute", exec_start, exec_end,
                trace_id=job.ctx.trace_id if job.ctx else None,
                parent_id=(job.ctx.parent_span_id
                           if job.ctx and job.ctx.parent_span_id is not None
                           else batch_span_id))
            if sampler is not None and job.ctx is not None:
                sampler.observe_request(
                    job.ctx.trace_id, exec_end - job.enqueued_s,
                    meta={"tenant": job.ctx.tenant,
                          "mission": job.ctx.mission})
