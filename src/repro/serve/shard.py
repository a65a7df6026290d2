"""Sharded serving: a routing front-end over N engine processes.

The thread-pool :class:`repro.serve.engine.DetectionEngine` tops out at
roughly one core of python glue — the GIL serializes the numpy call
sites' bookkeeping no matter how many worker threads it runs.  This
module shards the tier across **processes**:

    pipeline → session → ShardRouter → N worker processes,
                                        each: sessions + DetectionEngine

* :class:`ShardRouter` is the front-end.  ``submit(scene, mission)``
  hashes the mission fingerprint to a shard (:func:`shard_for_mission`)
  and sends the scene to it on the caller's own thread, then returns a
  future completed from the worker's reply.  Backpressure is the
  shard's slot count (below): a submit with no free slot waits for one
  in the caller's thread, or — ``block=False`` / ``timeout`` — sheds
  with :class:`ShardRejected`.  Mission affinity means each shard warms
  only its slice of the session cache — two shards never both pay
  ``prepare()`` for the same mission.
* Each worker process (:func:`_shard_worker_main`) rebuilds sessions
  through a caller-supplied ``factory(mission)`` — models are
  reconstructed from the artifact registry / deterministic builders in
  the child, **never pickled across** — and serves them through an
  ordinary per-mission :class:`DetectionEngine`, so the micro-batching,
  tracing, and shedding semantics inside a shard are exactly PR 4's.
* Scene images cross through shared memory, not the pipe.  Each shard
  owns one :class:`_SlotArena`: fixed-size slots in an unlinked
  ``memfd`` that the worker inherits, one slot per scene a worker can
  hold (``engine.queue_size + engine.max_batch * engine.workers``).
  ``submit`` copies ``scene.image`` into a free slot and sends
  ``(slot, shape, dtype)`` plus the small pickled rest of the
  scene down a one-way :func:`multiprocessing.Pipe`; the worker builds
  its scene around a read-only view of the slot.  Ground truth stays
  with the caller: the shell crosses with ``objects`` emptied, since
  no serving path reads it.  The slot is free again when the job's
  reply arrives or the worker dies.  Results, probes and snapshots
  travel the reverse pipe pickled.  Request identity crosses as the
  :func:`repro.obs.context.context_to_wire` wire format, so spans
  recorded in the worker join the submitter's trace tree by trace id;
  ``shard.slot_wait``, ``shard.dispatch`` and ``shard.receive`` split a
  request's transport into named parts.
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
``engine.rejected``, and announces ``draining``; the front-end then
sends those rejected jobs, and every submit still waiting on that
shard's slots, to the next live shard — no future is ever dropped.  A
worker that dies uncleanly has its pending jobs rerouted the same way;
only when no live shard remains do futures fail with
:class:`ShardClosed`.  ``close()`` never leaves a process behind: a
worker that does not exit within its grace period is sent SIGTERM, then
SIGKILL, and joined.

Cancellation: ``submit`` claims each job's future
(:meth:`~concurrent.futures.Future.set_running_or_notify_cancel`)
before it returns it, so ``cancel()`` returns ``False`` and the
worker's reply always resolves the future.  A caller that no longer
wants a result ignores it.

Determinism: routing is a pure hash of the mission fingerprint, shards
serve disjoint missions, and per-shard results come from the same
engine/session code path as single-process serving.  Both
configurations, float and quantized, are exactly batch-invariant, so
sharded results are bit-for-bit the single-process results (the
``sharded_engine`` fuzz oracle pins this for both).

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
import mmap
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future
from multiprocessing import reduction
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

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
    """Raised by ``submit`` after close, or by one still waiting for a
    slot when close stops the workers; set on futures orphaned by a
    worker death with no live shard left to reroute to."""


class ShardRejected(RuntimeError):
    """Raised by ``submit`` when no slot of the target shard frees in
    time (at once with ``block=False``, within ``timeout`` otherwise),
    or when the per-tenant inflight cap is hit."""


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
        Per-mission :class:`EngineConfig` inside each worker.  It also
        sets each shard's admission bound: one scene slot per scene the
        worker can hold, ``queue_size + max_batch * workers``.  A
        submit with no free slot waits in the caller's thread or sheds.
    ``max_inflight_per_tenant``
        Fairness cap: a tenant with this many uncompleted submits is
        shed (:class:`ShardRejected`) so one hot tenant cannot occupy
        every scene slot.  ``None`` disables the cap.
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
    max_inflight_per_tenant: Optional[int] = None
    metrics: bool = False
    base_seed: int = 0
    start_method: Optional[str] = None
    ready_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
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
# Scene slots
# ----------------------------------------------------------------------
class _SlotArena:
    """One shard's scene slots: ``count`` equal slots in one unlinked
    ``memfd`` file.

    The front-end creates the arena before the shard's worker starts;
    ``fork`` inherits the descriptor, and under ``spawn`` pickling hands
    it over with :class:`multiprocessing.reduction.DupFd`, as
    :class:`multiprocessing.heap.Arena` does.  Nothing is named, so no
    helper process tracks it and the kernel frees the memory when the
    last descriptor and mapping close, crash or not.

    Front-end side: :meth:`acquire` pops a free slot, most recently
    freed first, so warm pages are reused and resident memory follows
    the scenes in flight; :meth:`write` copies an image in and
    :meth:`release` frees the slot.  The slot size grows to fit the
    largest image seen — ``ftruncate`` plus a remap — only while no slot
    is held, so no live view ever spans a remap.  While an acquire waits
    to grow, the others wait behind it, so a stream of small scenes
    cannot keep one slot held forever and starve it.  Worker side:
    :meth:`view` maps the file read-only and returns a slot as an array.
    """

    def __init__(self, count: int, fd: Optional[int] = None) -> None:
        self.count = count
        self.fd = (os.memfd_create("repro-shard-slots", os.MFD_CLOEXEC)
                   if fd is None else fd)
        self.slot_bytes = 0
        self._map: Optional[mmap.mmap] = None
        self._free = list(range(count - 1, -1, -1))
        self._cond = threading.Condition()
        self._interrupted = False
        self._growers = 0  # acquires waiting until every slot is free

    def __reduce__(self):
        return _attach_arena, (self.count, reduction.DupFd(self.fd))

    # -- front-end -----------------------------------------------------
    @property
    def held(self) -> int:
        """Slots currently holding a scene."""
        with self._cond:
            return self.count - len(self._free)

    def acquire(self, nbytes: int, block: bool = True,
                timeout: Optional[float] = None) -> Optional[int]:
        """A free slot of at least ``nbytes``, growing the slots first
        if they are smaller.  Waits until one is free (to grow, until
        all are) — not at all with ``block=False``, at most ``timeout``
        seconds otherwise — and raises :class:`ShardRejected` when none
        frees in time; ``None`` once :meth:`interrupt` was called."""
        nbytes = max(1, nbytes)  # even an empty image needs a mapping
        deadline = None if timeout is None else time.monotonic() + timeout
        growing = False
        with self._cond:
            try:
                while not self._interrupted:
                    if nbytes > self.slot_bytes:
                        if len(self._free) == self.count:
                            self._grow(nbytes)
                            return self._free.pop()
                    elif self._free and (growing or not self._growers):
                        return self._free.pop()
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if not block or (remaining is not None
                                     and remaining <= 0.0):
                        raise ShardRejected(
                            f"all {self.count} scene slots held")
                    if nbytes > self.slot_bytes and not growing:
                        growing = True
                        self._growers += 1
                    self._cond.wait(remaining)
                return None
            finally:
                if growing:
                    self._growers -= 1
                    self._cond.notify_all()

    def _grow(self, nbytes: int) -> None:
        slot_bytes = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        if self._map is not None:
            self._map.close()
        os.ftruncate(self.fd, slot_bytes * self.count)
        self._map = mmap.mmap(self.fd, slot_bytes * self.count)
        self.slot_bytes = slot_bytes

    def write(self, slot: int, image: np.ndarray) -> None:
        target = np.frombuffer(self._map, dtype=image.dtype, count=image.size,
                               offset=slot * self.slot_bytes)
        np.copyto(target.reshape(image.shape), image)

    def release(self, slot: int) -> None:
        with self._cond:
            self._free.append(slot)
            self._cond.notify_all()

    def interrupt(self) -> None:
        """Wake every :meth:`acquire` for good: the shard stopped
        taking jobs (it drains, died or the router closes)."""
        with self._cond:
            self._interrupted = True
            self._cond.notify_all()

    def close(self) -> None:
        self.interrupt()
        if self._map is not None:
            self._map.close()
            self._map = None
        os.close(self.fd)

    # -- worker --------------------------------------------------------
    def view(self, slot: int, slot_bytes: int, shape: Tuple[int, ...],
             dtype: str) -> np.ndarray:
        """Read-only array over one slot, remapping first when the
        front-end grew the slots since the last job."""
        if slot_bytes != self.slot_bytes:
            # The old mapping is unmapped once its last view is gone.
            self._map = mmap.mmap(self.fd, 0, prot=mmap.PROT_READ)
            self.slot_bytes = slot_bytes
        return np.frombuffer(self._map, dtype=dtype,
                             count=int(np.prod(shape)),
                             offset=slot * slot_bytes).reshape(shape)


def _attach_arena(count: int, dup_fd: Any) -> _SlotArena:
    return _SlotArena(count, dup_fd.detach())


# ----------------------------------------------------------------------
# Worker shutdown
# ----------------------------------------------------------------------
#: Seconds ``close()`` lets the workers finish before SIGTERM, and the
#: seconds SIGTERM gets before SIGKILL.
_EXIT_GRACE_S = 30.0
_TERM_GRACE_S = 5.0


def _stop_processes(processes: Sequence[Any], grace_s: float) -> None:
    """Join every process within ``grace_s``; SIGTERM the ones still
    running, then SIGKILL and join the ones SIGTERM did not end.  A
    worker turns SIGTERM into a drain request, so a worker stuck in a
    batch only ends on SIGKILL."""
    deadline = time.monotonic() + grace_s
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [process for process in processes if process.is_alive()]
    for process in alive:
        process.terminate()
    deadline = time.monotonic() + _TERM_GRACE_S
    for process in alive:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in alive:
        if process.is_alive():
            process.kill()
            process.join()


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
                       factory: Callable[[str], Any], arena: _SlotArena,
                       foreign_fds: Sequence[int]) -> None:
    """Entry point of one shard worker process.

    Bootstrap order matters: close the other shards' arenas a fork
    inherited (``foreign_fds``), install a fresh registry (the forked
    one carries the parent's accumulated metrics, which would
    double-count in merged snapshots, and locks whose fork-time state is
    not guaranteed clean), reseed ``np.random`` process-uniquely, size
    the BLAS pools to this worker's CPU share before any model is built,
    then announce readiness with the metrics endpoint, and serve.

    Every forked worker would otherwise inherit OpenBLAS's
    one-thread-per-core default, so N shards on N cores would run N²
    compute threads that contend instead of overlapping.
    """
    from repro.obs import Registry, install_registry
    from repro.obs.export import MetricsServer, mergeable_snapshot

    for fd in foreign_fds:
        os.close(fd)
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
        # Announce first so the front-end stops sending here and moves
        # its waiting submits to live shards while we finish the
        # in-flight work.
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

    def handle_job(received_s: float, job_id: int, mission: str,
                   where: Tuple[int, int, Tuple[int, ...], str], shell,
                   ctx_wire) -> None:
        if draining:
            reject(job_id)
            return
        try:
            ctx = context_from_wire(ctx_wire)
            scene = dataclasses.replace(shell, image=arena.view(*where))
            if registry.enabled:
                registry.record_span(
                    "shard.receive", received_s, time.perf_counter(),
                    trace_id=ctx.trace_id if ctx is not None else None)
            engine = engine_for(mission)
            future = engine.submit(scene, block=True, ctx=ctx)
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
            received_s = time.perf_counter()
            try:
                msg = conn_recv.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "job":
                handle_job(received_s, *msg[1:])
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
    __slots__ = ("job_id", "mission", "scene", "ctx_wire",
                 "future", "primary", "tenant", "slot")

    def __init__(self, job_id: int, mission: str, scene: "Scene",
                 ctx_wire: Optional[dict],
                 primary: int, tenant: Optional[str]) -> None:
        self.job_id = job_id
        self.mission = mission
        self.scene = scene
        self.ctx_wire = ctx_wire
        self.future: "Future[List[Detection]]" = Future()
        self.primary = primary
        self.tenant = tenant
        self.slot: Optional[int] = None  # held in its shard's arena

    @property
    def trace_id(self) -> Optional[str]:
        return self.ctx_wire["trace_id"] if self.ctx_wire else None


class _WorkerHandle:
    """Front-end bookkeeping for one shard worker."""

    def __init__(self, index: int, slots: int) -> None:
        self.index = index
        self.arena = _SlotArena(slots)
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

    def take_pending(self, job_id: int) -> Optional[_ShardJob]:
        """Pop a sent job and free its slot."""
        with self.lock:
            job = self.pending.pop(job_id, None)
        if job is not None and job.slot is not None:
            self.arena.release(job.slot)
            job.slot = None
        return job

    def take_all_pending(self) -> List[_ShardJob]:
        with self.lock:
            ids = list(self.pending)
        return [job for job in map(self.take_pending, ids) if job is not None]


class ShardRouter:
    """Mission-affinity front-end over N shard worker processes.

    ``factory(mission)`` runs **in the worker** and must return a
    session-like object (``detect_batch`` at minimum; an ``engine``
    method is used when present, so :class:`MissionSession` and
    :class:`CascadeSession` both work).  Under the default ``fork``
    start method any callable works; under ``spawn`` it must pickle
    (see :class:`TaskSessionFactory`).

    Each shard admits at most its slot count of scenes
    (:class:`ShardConfig`); :meth:`submit` sends on the caller's
    thread, and the front-end's one thread per shard is the reader that
    resolves futures and reroutes what a draining or dead worker gives
    back.
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

        # One slot per scene a worker can hold: its engine's queue plus
        # a full batch on every engine thread.
        engine = self.config.engine
        slots = engine.queue_size + engine.max_batch * engine.workers
        self._handles: List[_WorkerHandle] = []
        # Spawn EVERY process before starting ANY parent thread: forking
        # while a parent thread holds the registry (or a pipe) lock
        # would hand the child a lock that is never released.
        try:
            for index in range(self.config.num_shards):
                # A forked worker inherits the arenas made before its
                # own; it closes them first thing.
                foreign = ([h.arena.fd for h in self._handles]
                           if mp_ctx.get_start_method() == "fork" else [])
                handle = _WorkerHandle(index, slots)
                self._handles.append(handle)
                to_worker_r, to_worker_w = mp_ctx.Pipe(duplex=False)
                to_parent_r, to_parent_w = mp_ctx.Pipe(duplex=False)
                handle.conn_send = to_worker_w
                handle.conn_recv = to_parent_r
                process = mp_ctx.Process(
                    target=_shard_worker_main,
                    args=(to_worker_r, to_parent_w, handle.index,
                          self.config, factory, handle.arena, foreign),
                    name=f"repro-shard-{handle.index}",
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    # Close the worker's ends in the parent so worker
                    # death surfaces as EOF on conn_recv, not a hang.
                    to_worker_r.close()
                    to_parent_w.close()
                handle.process = process
            self._await_ready()
        except BaseException:
            _stop_processes(self._processes(), grace_s=0.0)
            self._release_handles()
            raise

        for handle in self._handles:
            handle.reader = threading.Thread(
                target=self._read_loop, args=(handle,),
                name=f"repro-shard-read-{handle.index}", daemon=True)
            handle.reader.start()

    # -- bootstrap -----------------------------------------------------
    def _await_ready(self) -> None:
        deadline = time.monotonic() + self.config.ready_timeout_s
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

    def _processes(self) -> List[Any]:
        return [handle.process for handle in self._handles
                if handle.process is not None]

    def _release_handles(self) -> None:
        """Close every arena and pipe end the front-end holds."""
        for handle in self._handles:
            handle.arena.close()
            for conn in (handle.conn_send, handle.conn_recv):
                if conn is not None:
                    conn.close()

    # -- routing -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.config.num_shards

    def shard_for(self, mission: str) -> int:
        """The primary shard for a mission (ignores liveness)."""
        return shard_for_mission(mission, self.config.num_shards)

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
               tenant: Optional[str] = None,
               block: bool = True,
               timeout: Optional[float] = None,
               ctx: Optional[RequestContext] = None,
               ) -> "Future[List[Detection]]":
        """Send one scene to its mission's shard; returns a future.

        The scene goes out on the caller's thread: ``submit`` takes a
        slot in the first live shard's arena, copies the image in and
        sends the job.  Backpressure is that shard's slot count, and it
        mirrors :meth:`DetectionEngine.submit`: with every slot held,
        the caller waits for one, or — with ``block=False`` /
        ``timeout`` — sheds with :class:`ShardRejected` and a
        ``shard.rejected`` count.  A submit waiting on a shard that
        drains or dies moves on to the next live shard; one still
        waiting when :meth:`close` stops the workers raises
        :class:`ShardClosed`.  The
        request context (explicit ``ctx`` or the ambient
        :func:`current_context`) crosses the process boundary as its
        wire form, so worker-side spans join the caller's trace.

        The returned future is already claimed: ``cancel()`` returns
        ``False`` and the worker's reply always resolves it.

        Hazard: a future's done-callbacks run on the reader thread of
        the shard that replied, which is the thread that frees that
        shard's slots.  A blocking ``submit`` from a done-callback can
        wait on a slot only that same thread would free, and hang; pass
        ``block=False`` there, or submit from another thread.
        """
        if self._closed:
            raise ShardClosed("router is closed")
        if not (dataclasses.is_dataclass(scene)
                and isinstance(getattr(scene, "image", None), np.ndarray)):
            raise TypeError("a scene must be a dataclass with an ndarray "
                            f"image, got {type(scene).__name__}")
        if ctx is None:
            ctx = current_context()
        if tenant is None and ctx is not None:
            tenant = ctx.tenant
        registry = get_registry()

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

        job = _ShardJob(next(self._job_ids), mission, scene,
                        context_to_wire(ctx), self.shard_for(mission),
                        tenant)
        job.future.set_running_or_notify_cancel()
        if cap is not None and tenant is not None:
            job.future.add_done_callback(
                lambda _fut, tenant=tenant: self._release_tenant(tenant))
        try:
            self._send(job, block=block, timeout=timeout)
        except (ShardRejected, ShardClosed) as exc:
            # The future never reaches the caller: fail it so the
            # tenant slot's done-callback fires, then raise instead.
            job.future.set_exception(exc)
            if isinstance(exc, ShardRejected):
                registry.count("shard.rejected")
            raise
        registry.count("shard.submitted")
        return job.future

    def _release_tenant(self, tenant: str) -> None:
        with self._tenant_lock:
            count = self._tenant_inflight.get(tenant, 0) - 1
            if count > 0:
                self._tenant_inflight[tenant] = count
            else:
                self._tenant_inflight.pop(tenant, None)

    def detect_many(self, scenes: Sequence["Scene"], mission: str,
                    ) -> List[List["Detection"]]:
        """Submit scenes for one mission; gather in submission order."""
        futures = [self.submit(scene, mission) for scene in scenes]
        return [future.result() for future in futures]

    def _send(self, job: _ShardJob, block: bool = True,
              timeout: Optional[float] = None) -> None:
        """Send a job to the first live shard from its primary on:
        take a slot, copy the image, record the job in ``pending`` and
        send it.  A shard that drains, dies or closes while the job
        waits for its slot, or whose pipe is broken, passes the job on
        to the next live shard.  Raises :class:`ShardRejected` when no
        slot frees in time and :class:`ShardClosed` when no live shard
        is left; a job whose image cannot be written fails its future.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        image = job.scene.image
        n = self.config.num_shards
        for k in range(n):
            handle = self._handles[(job.primary + k) % n]
            if not handle.live:
                continue
            arena = handle.arena
            waited_s = time.perf_counter()
            slot = arena.acquire(
                image.nbytes, block=block,
                timeout=(None if deadline is None
                         else max(0.0, deadline - time.monotonic())))
            if slot is None:  # the shard drains, died or closes
                continue
            copied_s = time.perf_counter()
            try:
                arena.write(slot, image)
                message = (
                    "job", job.job_id, job.mission,
                    (slot, arena.slot_bytes, image.shape, image.dtype.str),
                    dataclasses.replace(job.scene, image=None, objects=[]),
                    job.ctx_wire)
            except Exception as exc:
                arena.release(slot)
                job.future.set_exception(exc)
                return
            job.slot = slot
            with handle.lock:
                handle.pending[job.job_id] = job
            sent = handle.send(message)
            registry = get_registry()
            if registry.enabled:
                registry.record_span("shard.slot_wait", waited_s, copied_s,
                                     trace_id=job.trace_id)
                registry.record_span("shard.dispatch", copied_s,
                                     time.perf_counter(),
                                     trace_id=job.trace_id)
            if sent:
                return
            handle.dead = True
            arena.interrupt()
            if handle.take_pending(job.job_id) is None:
                return  # the shard's reader took the job and reroutes it
        raise ShardClosed("router is closed" if self._closed
                          else "no live shards")

    def _read_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                msg = handle.conn_recv.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "result":
                job = handle.take_pending(msg[1])
                if job is not None and not job.future.done():
                    job.future.set_result(msg[2])
            elif kind == "error":
                job = handle.take_pending(msg[1])
                if job is not None and not job.future.done():
                    job.future.set_exception(msg[2])
            elif kind == "rejected":
                # The worker is draining: this job never entered an
                # engine there, so another shard may serve it.
                job = handle.take_pending(msg[1])
                if job is not None:
                    self._reroute(job)
            elif kind == "draining":
                handle.draining = True
                handle.arena.interrupt()
            elif kind == "probe_result":
                self._take_probe(handle, msg[1], result=msg[2])
            elif kind == "probe_error":
                self._take_probe(handle, msg[1], error=msg[2])
            elif kind == "closed":
                handle.final_snapshot = msg[1]
        # EOF: the worker is gone.  Free its slots and reroute
        # everything it still owed.
        handle.dead = True
        handle.arena.interrupt()
        orphans = handle.take_all_pending()
        with handle.lock:
            probes = list(handle.probes.values())
            handle.probes.clear()
        for probe in probes:
            if not probe.done():
                probe.set_exception(ShardClosed(
                    f"shard {handle.index} exited mid-probe"))
        for job in orphans:
            self._reroute(job)

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

    def _reroute(self, job: _ShardJob) -> None:
        """Send a job its shard gave back to the next live shard; never
        drop the future.  Runs on the giving shard's reader thread, which
        is not live any more, so it waits on another shard's slots, never
        on the ones it frees itself."""
        get_registry().count("shard.rerouted")
        try:
            self._send(job)
        except ShardClosed as exc:
            job.future.set_exception(exc)

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
        """Stop taking submits, stop workers, collect final snapshots.

        With ``wait=True`` it first waits until no shard holds a slot,
        so every future already returned completes (normally or
        exceptionally) and submits waiting on a slot are sent first;
        with ``wait=False`` it does not wait.  A submit still waiting
        for a slot then raises :class:`ShardClosed`.  The per-shard
        final snapshots keep :meth:`aggregate_snapshot` meaningful
        after close.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if wait:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and any(
                    handle.pending or handle.arena.held
                    for handle in self._handles if not handle.dead):
                time.sleep(0.01)
        for handle in self._handles:
            handle.arena.interrupt()
            handle.send(("close",))
        _stop_processes(self._processes(), grace_s=_EXIT_GRACE_S)
        for handle in self._handles:
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
        self._release_handles()
        # Anything still pending has no worker left.
        for handle in self._handles:
            for job in handle.take_all_pending():
                if not job.future.done():
                    job.future.set_exception(
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
