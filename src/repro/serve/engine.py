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
* worker threads drain the queue into micro-batches: a worker takes
  the head job plus whatever is already queued, up to ``max_batch``
  scenes, and flushes at once — there is no timer.  Sparse traffic
  never waits for peers that are not coming; under load, batches form
  on their own because jobs queue while a batch runs;
* :meth:`DetectionEngine.detect_many` submits a whole scene list and
  gathers results **in submission order**, independent of how workers
  interleave, so callers see deterministic ordering;
* :meth:`DetectionEngine.close` (or the context manager) drains
  outstanding work, then stops the workers;
* a future its caller cancels while the scene is queued is dropped
  when a worker claims the batch, so it never reaches the session;
  once claimed, ``cancel()`` returns ``False``.

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
sequential ones.  Both configurations are exactly batch-invariant (see
``TaskDetector.detect_batch``).
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
        Most scenes one flush takes from the queue.
    ``flush_ms``
        Not read by the engine, which flushes what is queued without a
        timed wait.  Still validated; kept until its deletion.
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
    __slots__ = ("scene", "future", "enqueued_s", "ctx")

    def __init__(self, scene: "Scene",
                 ctx: Optional[RequestContext]) -> None:
        self.scene = scene
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
    def submit(self, scene: "Scene", *,
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
        job = _Job(scene, ctx if ctx is not None else current_context())
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

    def detect_many(self, scenes: Sequence["Scene"]) -> List[List["Detection"]]:
        """Submit scenes and gather results in submission order.

        Ordering is deterministic regardless of worker interleaving:
        results are collected from the submission-ordered futures, not
        from completion order.
        """
        futures = [self.submit(scene) for scene in scenes]
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
                if (item is not _SENTINEL
                        and item.future.set_running_or_notify_cancel()):
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
            # Batch the head with whatever is already queued and flush
            # at once: under load, peers queue while a batch runs.
            batch: List[_Job] = [head]
            saw_sentinel = False
            while len(batch) < cfg.max_batch:
                try:
                    item = self._queue.get_nowait()
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
        # Claim each job before the batch is built: a job whose caller
        # cancelled it while queued is dropped, and a claimed future can
        # no longer be cancelled, so resolving it below cannot raise.
        batch = [job for job in batch
                 if job.future.set_running_or_notify_cancel()]
        if not batch:
            return
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
        # ``engine.batch`` timer.
        try:
            with obs.span("engine.batch", scenes=len(batch)) as batch_span:
                exec_start = time.perf_counter()
                try:
                    scenes = [job.scene for job in batch]
                    if self._pass_contexts:
                        results = self.session.detect_batch(
                            scenes, contexts=[job.ctx for job in batch])
                    else:
                        results = self.session.detect_batch(scenes)
                finally:
                    self._record_execute(obs, batch, exec_start,
                                         time.perf_counter(), batch_span)
        except BaseException as exc:  # fail the batch, keep serving
            for job in batch:
                job.future.set_exception(exc)
            sampler = get_sampler()
            if sampler is not None:
                sampler.record_engine_error(
                    exc, scenes=len(batch), registry=obs,
                    trace_ids=[job.ctx.trace_id if job.ctx else None
                               for job in batch])
            return
        for job, detections in zip(batch, results):
            job.future.set_result(detections)

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
