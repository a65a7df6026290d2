"""Sharded serving: a routing front-end over N engine processes.

The thread-pool :class:`repro.serve.engine.DetectionEngine` tops out at
roughly one core of python glue — the GIL serializes the numpy call
sites' bookkeeping no matter how many worker threads it runs.  This
module shards the tier across **processes**:

    pipeline → session → ShardRouter → N worker processes,
                                        each: sessions + DetectionEngine

* :class:`ShardRouter` is the front-end.  ``submit(scene, mission)``
  hashes the mission fingerprint to a shard (:func:`shard_for_mission`),
  enqueues the scene on that shard's **bounded** queue (backpressure;
  ``block=False`` sheds with :class:`ShardRejected`), and returns a
  future completed from the worker's reply.  Mission affinity means each
  shard warms only its slice of the session cache — two shards never
  both pay ``prepare()`` for the same mission.
* Each worker process (:func:`_shard_worker_main`) rebuilds sessions
  through a caller-supplied ``factory(mission)`` — models are
  reconstructed from the artifact registry / deterministic builders in
  the child, **never pickled across** — and serves them through an
  ordinary per-mission :class:`DetectionEngine`, so the micro-batching,
  tracing, and shedding semantics inside a shard are exactly PR 4's.
* Transport is a pair of one-way :func:`multiprocessing.Pipe`\\ s per
  shard carrying pickled scene batches; request identity crosses as the
  :func:`repro.obs.context.context_to_wire` wire format, so spans
  recorded in the worker join the submitter's trace tree by trace id.
* Each worker installs a **fresh** :class:`repro.obs.Registry` (a forked
  registry would double-count the parent's history) and can expose its
  own :class:`repro.obs.MetricsServer` on an ephemeral port; the
  front-end aggregates the per-shard ``/snapshot`` documents with
  :func:`repro.obs.merge_snapshots` — bit-exactly, by construction —
  and can re-serve the merged document via
  :meth:`ShardRouter.serve_metrics`.
* Each worker sizes every mapped OpenBLAS pool to its CPU share,
  ``max(1, cpus // num_shards)`` over the process's affinity set, before
  any model is built, and reports the applied counts as ``blas_threads``
  in the ready handshake (:meth:`ShardRouter.shard_info`).

Failure and drain semantics: SIGTERM to a worker finishes its in-flight
jobs (their futures complete normally), rejects everything later with
``engine.rejected``, and announces ``draining`` so the front-end
redistributes that shard's queued-but-undispatched jobs to live shards
— no future is ever dropped.  A worker that dies uncleanly has its
pending and queued jobs rerouted the same way; only when no live shard
remains do futures fail with :class:`ShardClosed`.

Determinism: routing is a pure hash of the mission fingerprint, shards
serve disjoint missions, and per-shard results come from the same
engine/session code path as single-process serving — so with a
batch-invariant (quantized) model, sharded results are bit-for-bit the
single-process results (the ``sharded_engine`` fuzz oracle pins this).

Start methods: ``fork`` (the default where available) lets tests and
benchmarks pass closure factories and inherits nothing mutable that
matters (registries are re-installed, process tags re-minted via
``os.register_at_fork``); ``spawn`` requires a picklable factory such
as :class:`TaskSessionFactory`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import queue
import signal
import threading
import time
from concurrent.futures import Future
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence,
)

from repro.obs import get_registry
from repro.obs.context import (
    RequestContext, context_from_wire, context_to_wire, current_context,
)
from repro.serve.engine import EngineConfig

if TYPE_CHECKING:
    from repro.data.scenes import Scene
    from repro.detect.pipeline import Detection
    from repro.obs.export import MetricsServer

__all__ = [
    "ShardConfig",
    "ShardClosed",
    "ShardRejected",
    "ShardRouter",
    "TaskSessionFactory",
    "shard_for_mission",
    "worker_seed",
]


class ShardClosed(RuntimeError):
    """Raised by ``submit`` after close; set on futures orphaned by a
    worker death with no live shard left to reroute to."""


class ShardRejected(RuntimeError):
    """Raised by non-blocking ``submit`` when the target shard's queue
    is full, or when the per-tenant inflight cap is hit."""


def shard_for_mission(mission: str, num_shards: int) -> int:
    """Affinity hash: mission fingerprint -> shard index.

    Stable across processes and runs (sha256, not ``hash()`` which is
    salted per process), so every front-end instance routes a mission
    to the same shard and each shard's session cache warms exactly its
    own slice of the mission population.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    digest = hashlib.sha256(mission.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def worker_seed(base_seed: int, shard_index: int, pid: int) -> int:
    """Process-unique ``np.random`` seed for one shard worker.

    Forked children inherit the parent's global RNG state; without
    reseeding, N shards would draw *identical* "random" streams.  The
    seed mixes the deployment's base seed, the shard index, and the
    worker pid through sha256 so restarted workers reseed too.
    """
    payload = f"{base_seed}:{shard_index}:{pid}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "big")


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """Knobs for the sharded tier.

    ``num_shards``
        Worker processes.
    ``engine``
        Per-mission :class:`EngineConfig` inside each worker.
    ``queue_size``
        Bound of each shard's front-end queue — the cross-process
        backpressure depth (the worker additionally has the engine's
        own bounded queue).
    ``max_inflight_per_tenant``
        Fairness cap: a tenant with this many uncompleted submits is
        shed (:class:`ShardRejected`) so one hot tenant cannot occupy
        every queue slot.  ``None`` disables the cap.
    ``metrics``
        Start a :class:`repro.obs.MetricsServer` on an ephemeral port
        in every worker; the bound URL comes back in the ready
        handshake and ``ShardRouter.shard_metrics_urls()``.
    ``base_seed``
        Mixed into each worker's :func:`worker_seed`.
    ``start_method``
        ``multiprocessing`` start method; ``None`` picks ``fork`` when
        available (closure factories work) else the platform default.
    ``ready_timeout_s``
        How long to wait for every worker's ready handshake (workers
        may be building models from the artifact registry).
    """

    num_shards: int = 2
    engine: EngineConfig = dataclasses.field(default_factory=EngineConfig)
    queue_size: int = 64
    max_inflight_per_tenant: Optional[int] = None
    metrics: bool = False
    base_seed: int = 0
    start_method: Optional[str] = None
    ready_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if (self.max_inflight_per_tenant is not None
                and self.max_inflight_per_tenant < 1):
            raise ValueError("max_inflight_per_tenant must be >= 1")


class TaskSessionFactory:
    """Picklable worker factory: mission = task name -> prepared session.

    Rebuilds the pipeline from the artifact registry in the worker
    process (``ArtifactBuilder(seed).quantized()``), then prepares one
    session per mission on first request — the "never pickle models"
    bootstrap used by ``repro engine serve``.  The pipeline is built
    lazily once per process and cached on the instance.

    ``cascade=True`` serves each mission through a
    :class:`repro.cascade.CascadeSession` instead of the plain session.
    """

    def __init__(self, seed: int = 0, cascade: bool = False,
                 multi_task: bool = False) -> None:
        self.seed = seed
        self.cascade = cascade
        self.multi_task = multi_task
        self._pipeline = None

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_pipeline"] = None  # never pickle models across
        return state

    def _build_pipeline(self):
        from repro.core import ArtifactBuilder, ITaskPipeline

        builder = ArtifactBuilder(seed=self.seed, verbose=False)
        return ITaskPipeline(builder.quantized())

    def __call__(self, mission: str):
        from repro.core import TaskSpec
        from repro.data import get_task

        if self._pipeline is None:
            self._pipeline = self._build_pipeline()
        spec = TaskSpec.from_definition(get_task(mission))
        if self.cascade:
            return self._pipeline.cascade_session(
                spec, multi_task=self.multi_task)
        return self._pipeline.session(spec, multi_task=self.multi_task)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _json_roundtrip(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a snapshot through JSON so a document probed over the
    pipe is byte-for-byte what the worker's HTTP ``/snapshot`` serves
    (tuples become lists, keys become strings) — the bit-identical
    merge property must not depend on which transport fetched it."""
    import json

    return json.loads(json.dumps(doc))


def _picklable_exc(exc: BaseException) -> BaseException:
    import pickle

    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _cpu_share(num_shards: int) -> int:
    """BLAS threads one of ``num_shards`` workers may run: its share of
    the CPUs this process may be scheduled on, never less than one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux hosts
        cpus = os.cpu_count() or 1
    return max(1, cpus // num_shards)


def _openblas_call(lib, verb: str):
    """The library's ``{set,get}_num_threads`` entry point, whichever
    symbol prefix (numpy/scipy wheels rename theirs) and integer-width
    suffix it was built with; ``None`` if it exports none."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def _limit_blas_threads(threads: int) -> Dict[str, int]:
    """Size every OpenBLAS pool mapped into this process to ``threads``.

    Returns each library's file name with the count read back through
    its getter; empty where ``/proc/self/maps`` is missing or no
    OpenBLAS is mapped.  Every copy is set because numpy's and scipy's
    wheels each bundle one; the pools were sized when the libraries
    loaded, so an ``OPENBLAS_NUM_THREADS`` set now would do nothing.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(
                line.split(None, 5)[5].strip() for line in maps
                if "/" in line and "openblas" in line.rsplit("/", 1)[1])
    except OSError:
        return {}
    applied: Dict[str, int] = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        setter = _openblas_call(lib, "set")
        getter = _openblas_call(lib, "get")
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(threads)
        applied[os.path.basename(path)] = getter()
    return applied


def _shard_worker_main(conn_recv, conn_send, shard_index: int,
                       config: ShardConfig,
                       factory: Callable[[str], Any]) -> None:
    """Entry point of one shard worker process.

    Bootstrap order matters: install a fresh registry (the forked one
    carries the parent's accumulated metrics, which would double-count
    in merged snapshots, and locks whose fork-time state is not
    guaranteed clean), reseed ``np.random`` process-uniquely, size the
    BLAS pools to this worker's CPU share before any model is built,
    then announce readiness with the metrics endpoint, and serve.

    Every forked worker would otherwise inherit OpenBLAS's
    one-thread-per-core default, so N shards on N cores would run N²
    compute threads that contend instead of overlapping.
    """
    import numpy as np

    from repro.obs import Registry, install_registry
    from repro.obs.export import MetricsServer, mergeable_snapshot

    drain_flag = threading.Event()
    # The handler only sets a flag: sending on the pipe from signal
    # context could re-enter a send already in progress on this thread.
    signal.signal(signal.SIGTERM, lambda *_: drain_flag.set())

    install_registry(Registry("repro"))
    registry = get_registry()
    # Pre-register the reject counter: merged shard snapshots (and the
    # SLO gates reading them) should see an explicit zero from a worker
    # that never drained, not an absent counter that falls back to
    # whatever the front-end process happened to record.
    registry.counter("engine.rejected")
    seed = worker_seed(config.base_seed, shard_index, os.getpid())
    np.random.seed(seed)
    blas_threads = _limit_blas_threads(_cpu_share(config.num_shards))

    metrics: Optional[MetricsServer] = None
    if config.metrics:
        metrics = MetricsServer(registry, port=0).start()

    send_lock = threading.Lock()

    def send(msg) -> None:
        # Results are sent from engine-worker done-callbacks while the
        # main thread answers probes: one pipe, one lock.
        with send_lock:
            try:
                conn_send.send(msg)
            except (OSError, BrokenPipeError, ValueError):
                pass  # front-end went away; nothing left to tell

    send(("ready", {
        "shard": shard_index,
        "pid": os.getpid(),
        "seed": seed,
        "blas_threads": blas_threads,
        "metrics_url": metrics.url if metrics is not None else None,
        "metrics_port": metrics.port if metrics is not None else None,
    }))

    engines: Dict[str, Any] = {}
    sessions: Dict[str, Any] = {}
    draining = False

    def engine_for(mission: str):
        engine = engines.get(mission)
        if engine is None:
            session = factory(mission)
            sessions[mission] = session
            if hasattr(session, "engine"):
                engine = session.engine(config.engine)
            else:
                from repro.serve.engine import DetectionEngine

                engine = DetectionEngine(session, config.engine)
            engines[mission] = engine
        return engine

    def close_engines() -> None:
        for engine in engines.values():
            engine.close(wait=True)

    def begin_drain() -> None:
        nonlocal draining
        if draining:
            return
        # Announce first so the front-end stops dispatching and starts
        # redistributing its queue while we finish the in-flight work.
        send(("draining", shard_index))
        close_engines()
        draining = True

    def reject(job_id: int) -> None:
        registry.count("engine.rejected")
        send(("rejected", job_id))

    def final_snapshot() -> Dict[str, Any]:
        return _json_roundtrip(mergeable_snapshot(registry))

    def handle_probe(probe_id: int, name: str) -> None:
        try:
            if name == "snapshot":
                payload: Any = final_snapshot()
            elif name == "rng":
                payload = {"seed": seed, "pid": os.getpid(),
                           "samples": np.random.random(4).tolist()}
            elif name == "queue_depth":
                payload = {mission: engine.queue_depth
                           for mission, engine in engines.items()}
            elif name == "decisions":
                payload = {
                    mission: session.decision_summary()
                    for mission, session in sessions.items()
                    if hasattr(session, "decision_summary")
                }
            else:
                raise ValueError(f"unknown probe {name!r}")
        except Exception as exc:
            send(("probe_error", probe_id, _picklable_exc(exc)))
        else:
            send(("probe_result", probe_id, payload))

    def handle_job(job_id: int, mission: str, scene, stride,
                   ctx_wire) -> None:
        if draining:
            reject(job_id)
            return
        try:
            engine = engine_for(mission)
            future = engine.submit(
                scene, stride=stride, block=True,
                ctx=context_from_wire(ctx_wire))
        except Exception as exc:
            send(("error", job_id, _picklable_exc(exc)))
            return

        def on_done(fut, job_id=job_id) -> None:
            try:
                result = fut.result()
            except BaseException as exc:
                send(("error", job_id, _picklable_exc(exc)))
            else:
                send(("result", job_id, result))

        future.add_done_callback(on_done)

    try:
        while True:
            if drain_flag.is_set() and not draining:
                begin_drain()
            if not conn_recv.poll(0.05):
                continue
            try:
                msg = conn_recv.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "job":
                handle_job(*msg[1:])
            elif kind == "probe":
                handle_probe(*msg[1:])
            elif kind == "close":
                break
    finally:
        close_engines()
        send(("closed", final_snapshot()))
        if metrics is not None:
            metrics.stop()
        try:
            conn_send.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Front-end
# ----------------------------------------------------------------------
class _ShardJob:
    __slots__ = ("job_id", "mission", "scene", "stride", "ctx_wire",
                 "future", "primary", "tenant")

    def __init__(self, job_id: int, mission: str, scene: "Scene",
                 stride: Optional[int], ctx_wire: Optional[dict],
                 primary: int, tenant: Optional[str]) -> None:
        self.job_id = job_id
        self.mission = mission
        self.scene = scene
        self.stride = stride
        self.ctx_wire = ctx_wire
        self.future: "Future[List[Detection]]" = Future()
        self.primary = primary
        self.tenant = tenant


_STOP = object()


class _WorkerHandle:
    """Front-end bookkeeping for one shard worker."""

    def __init__(self, index: int, queue_size: int) -> None:
        self.index = index
        self.queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self.pending: Dict[int, _ShardJob] = {}
        self.probes: Dict[int, Future] = {}
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.draining = False
        self.dead = False
        self.info: Dict[str, Any] = {}
        self.final_snapshot: Optional[Dict[str, Any]] = None
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn_send: Any = None  # parent -> worker
        self.conn_recv: Any = None  # worker -> parent
        self.dispatcher: Optional[threading.Thread] = None
        self.reader: Optional[threading.Thread] = None

    @property
    def live(self) -> bool:
        return not (self.draining or self.dead)

    def send(self, msg) -> bool:
        with self.send_lock:
            try:
                self.conn_send.send(msg)
                return True
            except (OSError, BrokenPipeError, ValueError):
                return False


class ShardRouter:
    """Mission-affinity front-end over N shard worker processes.

    ``factory(mission)`` runs **in the worker** and must return a
    session-like object (``detect_batch`` at minimum; an ``engine``
    method is used when present, so :class:`MissionSession` and
    :class:`CascadeSession` both work).  Under the default ``fork``
    start method any callable works; under ``spawn`` it must pickle
    (see :class:`TaskSessionFactory`).
    """

    def __init__(self, factory: Callable[[str], Any],
                 config: Optional[ShardConfig] = None) -> None:
        self.config = config or ShardConfig()
        self.factory = factory
        self._closed = False
        self._close_lock = threading.Lock()
        self._job_ids = itertools.count(1)
        self._probe_ids = itertools.count(1)
        self._tenant_lock = threading.Lock()
        self._tenant_inflight: Dict[str, int] = {}

        method = self.config.start_method
        if method is None:
            method = ("fork" if "fork" in
                      multiprocessing.get_all_start_methods() else None)
        mp_ctx = multiprocessing.get_context(method)

        self._handles = [_WorkerHandle(i, self.config.queue_size)
                         for i in range(self.config.num_shards)]
        # Spawn EVERY process before starting ANY parent thread: forking
        # while a parent thread holds the registry (or a pipe) lock
        # would hand the child a lock that is never released.
        for handle in self._handles:
            to_worker_r, to_worker_w = mp_ctx.Pipe(duplex=False)
            to_parent_r, to_parent_w = mp_ctx.Pipe(duplex=False)
            process = mp_ctx.Process(
                target=_shard_worker_main,
                args=(to_worker_r, to_parent_w, handle.index,
                      self.config, factory),
                name=f"repro-shard-{handle.index}",
                daemon=True,
            )
            process.start()
            # Close the worker's ends in the parent so worker death
            # surfaces as EOF on conn_recv instead of a silent hang.
            to_worker_r.close()
            to_parent_w.close()
            handle.process = process
            handle.conn_send = to_worker_w
            handle.conn_recv = to_parent_r

        self._await_ready()

        for handle in self._handles:
            handle.dispatcher = threading.Thread(
                target=self._dispatch_loop, args=(handle,),
                name=f"repro-shard-dispatch-{handle.index}", daemon=True)
            handle.reader = threading.Thread(
                target=self._read_loop, args=(handle,),
                name=f"repro-shard-read-{handle.index}", daemon=True)
            handle.dispatcher.start()
            handle.reader.start()

    # -- bootstrap -----------------------------------------------------
    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.config.ready_timeout_s
        try:
            for handle in self._handles:
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise TimeoutError(
                            f"shard {handle.index} not ready within "
                            f"{self.config.ready_timeout_s:.0f}s")
                    if handle.conn_recv.poll(min(remaining, 0.2)):
                        msg = handle.conn_recv.recv()
                        if msg[0] != "ready":
                            raise RuntimeError(
                                f"shard {handle.index} sent {msg[0]!r} "
                                "before ready")
                        handle.info = msg[1]
                        break
                    if not handle.process.is_alive():
                        raise RuntimeError(
                            f"shard {handle.index} died during bootstrap "
                            f"(exitcode {handle.process.exitcode})")
        except BaseException:
            for handle in self._handles:
                if handle.process is not None and handle.process.is_alive():
                    handle.process.terminate()
            raise

    # -- routing -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    def shard_for(self, mission: str) -> int:
        """The primary shard for a mission (ignores liveness)."""
        return shard_for_mission(mission, self.config.num_shards)

    def _pick_handle(self, mission: str) -> _WorkerHandle:
        primary = self.shard_for(mission)
        n = self.config.num_shards
        for k in range(n):
            handle = self._handles[(primary + k) % n]
            if handle.live:
                return handle
        raise ShardClosed("no live shards")

    def shard_info(self) -> List[Dict[str, Any]]:
        """Ready-handshake info per shard (pid, seed, BLAS threads per
        OpenBLAS library, metrics url)."""
        return [dict(handle.info) for handle in self._handles]

    def shard_metrics_urls(self) -> List[str]:
        """Metrics endpoints of shards that exposed one."""
        return [handle.info.get("metrics_url")
                for handle in self._handles
                if handle.info.get("metrics_url")]

    # -- submission ----------------------------------------------------
    def submit(self, scene: "Scene", mission: str, *,
               stride: Optional[int] = None,
               tenant: Optional[str] = None,
               block: bool = True,
               timeout: Optional[float] = None,
               ctx: Optional[RequestContext] = None,
               ) -> "Future[List[Detection]]":
        """Route one scene to its mission's shard; returns a future.

        Backpressure mirrors :meth:`DetectionEngine.submit`: a full
        shard queue blocks, or — with ``block=False`` / ``timeout`` —
        sheds with :class:`ShardRejected` and a ``shard.rejected``
        count.  The request context (explicit ``ctx`` or the ambient
        :func:`current_context`) crosses the process boundary as its
        wire form, so worker-side spans join the caller's trace.
        """
        if self._closed:
            raise ShardClosed("router is closed")
        if ctx is None:
            ctx = current_context()
        if tenant is None and ctx is not None:
            tenant = ctx.tenant
        registry = get_registry()
        handle = self._pick_handle(mission)

        cap = self.config.max_inflight_per_tenant
        if cap is not None and tenant is not None:
            with self._tenant_lock:
                if self._tenant_inflight.get(tenant, 0) >= cap:
                    registry.count("shard.rejected")
                    registry.count("shard.shed.tenant")
                    raise ShardRejected(
                        f"tenant {tenant!r} at inflight cap ({cap})")
                self._tenant_inflight[tenant] = \
                    self._tenant_inflight.get(tenant, 0) + 1

        job = _ShardJob(next(self._job_ids), mission, scene, stride,
                        context_to_wire(ctx), self.shard_for(mission),
                        tenant)
        if cap is not None and tenant is not None:
            job.future.add_done_callback(
                lambda _fut, tenant=tenant: self._release_tenant(tenant))
        registry.observe("shard.queue_depth", handle.queue.qsize())
        try:
            handle.queue.put(job, block=block, timeout=timeout)
        except queue.Full:
            self._complete_tenant_slot_on_reject(job)
            registry.count("shard.rejected")
            raise ShardRejected(
                f"shard {handle.index} queue full "
                f"({self.config.queue_size} scenes)") from None
        registry.count("shard.submitted")
        return job.future

    def _release_tenant(self, tenant: str) -> None:
        with self._tenant_lock:
            count = self._tenant_inflight.get(tenant, 0) - 1
            if count > 0:
                self._tenant_inflight[tenant] = count
            else:
                self._tenant_inflight.pop(tenant, None)

    def _complete_tenant_slot_on_reject(self, job: _ShardJob) -> None:
        # The future never completes (we raise instead of returning
        # it), so the done-callback can't release the slot — fail the
        # future to fire the callback, then swallow it.
        if not job.future.done():
            job.future.set_exception(
                ShardRejected("rejected before dispatch"))
            job.future.exception()  # mark retrieved

    def detect_many(self, scenes: Sequence["Scene"], mission: str,
                    stride: Optional[int] = None,
                    ) -> List[List["Detection"]]:
        """Submit scenes for one mission; gather in submission order."""
        futures = [self.submit(scene, mission, stride=stride)
                   for scene in scenes]
        return [future.result() for future in futures]

    @property
    def queue_depths(self) -> List[int]:
        return [handle.queue.qsize() for handle in self._handles]

    # -- dispatcher / reader threads -----------------------------------
    def _dispatch_loop(self, handle: _WorkerHandle) -> None:
        while True:
            item = handle.queue.get()
            if item is _STOP:
                return
            if not handle.live:
                self._reroute(item, exclude=handle.index)
                continue
            with handle.lock:
                handle.pending[item.job_id] = item
            sent = handle.send(("job", item.job_id, item.mission,
                                item.scene, item.stride, item.ctx_wire))
            if not sent:
                handle.dead = True
                with handle.lock:
                    handle.pending.pop(item.job_id, None)
                self._reroute(item, exclude=handle.index)

    def _read_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                msg = handle.conn_recv.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "result":
                job = self._take_pending(handle, msg[1])
                if job is not None and not job.future.done():
                    job.future.set_result(msg[2])
            elif kind == "error":
                job = self._take_pending(handle, msg[1])
                if job is not None and not job.future.done():
                    job.future.set_exception(msg[2])
            elif kind == "rejected":
                # The worker is draining: this job never entered an
                # engine there, so another shard may serve it.
                job = self._take_pending(handle, msg[1])
                if job is not None:
                    self._reroute(job, exclude=handle.index)
            elif kind == "draining":
                handle.draining = True
                self._redistribute_queue(handle)
            elif kind == "probe_result":
                self._take_probe(handle, msg[1], result=msg[2])
            elif kind == "probe_error":
                self._take_probe(handle, msg[1], error=msg[2])
            elif kind == "closed":
                handle.final_snapshot = msg[1]
        # EOF: the worker is gone.  Reroute everything it still owed.
        handle.dead = True
        with handle.lock:
            orphans = list(handle.pending.values())
            handle.pending.clear()
            probes = list(handle.probes.values())
            handle.probes.clear()
        for probe in probes:
            if not probe.done():
                probe.set_exception(ShardClosed(
                    f"shard {handle.index} exited mid-probe"))
        for job in orphans:
            self._reroute(job, exclude=handle.index)
        self._redistribute_queue(handle)

    def _take_pending(self, handle: _WorkerHandle,
                      job_id: int) -> Optional[_ShardJob]:
        with handle.lock:
            return handle.pending.pop(job_id, None)

    def _take_probe(self, handle: _WorkerHandle, probe_id: int,
                    result: Any = None, error: Any = None) -> None:
        with handle.lock:
            future = handle.probes.pop(probe_id, None)
        if future is None or future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)

    def _redistribute_queue(self, handle: _WorkerHandle) -> None:
        # Drain the front-end queue of a draining/dead shard onto live
        # peers.  The dispatcher may concurrently pull items; it checks
        # ``handle.live`` itself and reroutes what it wins.
        while True:
            try:
                item = handle.queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                handle.queue.put(_STOP)  # keep the dispatcher's poison
                return
            self._reroute(item, exclude=handle.index)

    def _reroute(self, job: _ShardJob, exclude: int) -> None:
        """Requeue a job on the next live shard; never drop the future."""
        if job.future.done():
            return
        n = self.config.num_shards
        candidates = []
        for k in range(n):
            index = (job.primary + k) % n
            handle = self._handles[index]
            if index != exclude and handle.live:
                candidates.append(handle)
        if not candidates:
            job.future.set_exception(
                ShardClosed("no live shard to reroute to"))
            return
        get_registry().count("shard.rerouted")
        for handle in candidates[:-1]:
            try:
                handle.queue.put_nowait(job)
                return
            except queue.Full:
                continue
        # Last resort blocks: backpressure, not loss.  This runs on a
        # reader/dispatcher thread of a *different* shard, whose own
        # queue drains independently, so no self-deadlock.
        candidates[-1].queue.put(job)

    # -- probes & aggregation ------------------------------------------
    def probe(self, name: str, shard: int,
              timeout: Optional[float] = 30.0) -> Any:
        """Ask one live worker a question over the pipe.

        Known probes: ``snapshot`` (mergeable metrics document),
        ``rng`` (seed + next samples), ``queue_depth`` (per-mission
        engine depth), ``decisions`` (cascade routing audit).
        """
        handle = self._handles[shard]
        if handle.dead:
            raise ShardClosed(f"shard {shard} is dead")
        probe_id = next(self._probe_ids)
        future: Future = Future()
        with handle.lock:
            handle.probes[probe_id] = future
        if not handle.send(("probe", probe_id, name)):
            with handle.lock:
                handle.probes.pop(probe_id, None)
            raise ShardClosed(f"shard {shard} pipe is closed")
        return future.result(timeout=timeout)

    def shard_snapshots(self) -> List[Dict[str, Any]]:
        """One mergeable snapshot document per shard.

        Live shards are probed over the pipe (the same JSON-normalized
        document their own ``/snapshot`` serves); exited shards
        contribute the final snapshot they sent while closing, so
        merged totals never lose a drained worker's history.
        """
        docs: List[Dict[str, Any]] = []
        for handle in self._handles:
            if handle.final_snapshot is not None:
                docs.append(handle.final_snapshot)
            elif not handle.dead:
                try:
                    docs.append(self.probe("snapshot", handle.index))
                except (ShardClosed, TimeoutError):
                    if handle.final_snapshot is not None:
                        docs.append(handle.final_snapshot)
        return docs

    def aggregate_snapshot(self) -> Dict[str, Any]:
        """Merged view of every shard: exactly
        ``merge_snapshots(shard_snapshots())`` — the front-end adds
        nothing of its own, so the merged document is bit-identical to
        merging the per-shard documents out of band."""
        from repro.obs.export import merge_snapshots

        return merge_snapshots(self.shard_snapshots())

    def serve_metrics(self, host: str = "127.0.0.1",
                      port: int = 0) -> "MetricsServer":
        """An aggregation endpoint: ``/snapshot`` and ``/metrics``
        serve the merged cross-shard document (started; caller stops)."""
        from repro.obs.export import MetricsServer

        return MetricsServer(host=host, port=port,
                             snapshot_fn=self.aggregate_snapshot).start()

    # -- lifecycle -----------------------------------------------------
    def drain_shard(self, shard: int) -> None:
        """SIGTERM one worker: finish in-flight, reject new, keep the
        process around until ``close()`` collects its final snapshot."""
        handle = self._handles[shard]
        if handle.process is not None and handle.process.is_alive():
            os.kill(handle.process.pid, signal.SIGTERM)

    def close(self, wait: bool = True) -> None:
        """Drain queues, stop workers, collect final snapshots.

        With ``wait=True`` every already-submitted future completes
        (normally or exceptionally) before the workers are told to
        exit; the per-shard final snapshots keep
        :meth:`aggregate_snapshot` meaningful after close.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if wait:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                with_work = False
                for handle in self._handles:
                    with handle.lock:
                        pending = bool(handle.pending)
                    if (not handle.dead
                            and (pending or handle.queue.qsize() > 0)):
                        with_work = True
                        break
                if not with_work:
                    break
                time.sleep(0.01)
        for handle in self._handles:
            handle.send(("close",))
        for handle in self._handles:
            if handle.process is not None:
                handle.process.join(timeout=30.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
        for handle in self._handles:
            handle.queue.put(_STOP)
        for handle in self._handles:
            if handle.dispatcher is not None:
                handle.dispatcher.join(timeout=5.0)
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
        # Anything still queued or pending has no worker left.
        for handle in self._handles:
            with handle.lock:
                orphans = list(handle.pending.values())
                handle.pending.clear()
            for job in orphans:
                if not job.future.done():
                    job.future.set_exception(
                        ShardClosed("router closed before scene was served"))
            while True:
                try:
                    item = handle.queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP and not item.future.done():
                    item.future.set_exception(
                        ShardClosed("router closed before scene was served"))

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        states = "".join(
            "D" if h.dead else ("d" if h.draining else "·")
            for h in self._handles)
        return (f"ShardRouter(shards={self.config.num_shards}, "
                f"states=[{states}], closed={self._closed})")
