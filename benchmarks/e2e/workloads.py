"""The four workloads of the end-to-end benchmark.

``serve_small`` and ``scan_large`` drive the sharded serving tier
(:class:`repro.serve.ShardRouter`, 2 shard processes) from this process;
``stream_static`` and ``stream_moving`` drive the in-process
:class:`repro.stream.StreamingDetector`.  Every input is generated from
the run's seed; offered rates and latency limits are the fixed constants
below, never recalibrated during a run.  Each run is cut into
``harness.SLOTS`` slots and every slot runs each phase of the workload
once, so every gated timing can be taken from the least disturbed slot.
See README.md for why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import math
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ArtifactBuilder, ITaskPipeline, TaskSpec
from repro.data import SceneConfig, SceneGenerator, get_task, sample_profile
from repro.detect.metrics import task_accuracy
from repro.obs import get_registry, merge_snapshots, mergeable_snapshot, request_context
from repro.obs.export import snapshot_delta
from repro.serve import EngineConfig, ShardConfig, ShardRejected, ShardRouter
from repro.stream.bench import compare_snapshots, materialize_cameras
from repro.stream.metrics import evaluate_stream
from repro.stream.tracker import TrackerConfig

from . import harness, layers

# -- fixed load, derived once on a 2-vCPU host (README: "Fixed rates") --
#: Open-loop arrivals per second on serve_small: about half of what the
#: 2-shard tier serves closed loop in its slow stretches (100-130/s) and
#: a quarter of its fast ones (200-250/s), measured once on the parent.
SERVE_RATE_SPS = 50.0
#: Latency limit of a served request, and its deadline.
SERVE_SLO_MS = 100.0
#: Live camera rate; the stream SLO is one frame period.
STREAM_FPS = 15.0
STREAM_CAMERAS = 4

# -- shape of each workload --
WARM_MISSIONS = ("roadside_hazards", "cargo_audit", "valve_inspection", "biohazard_sweep")
#: One mission per shard (affinity hashes 1 and 0), one client each.
SCAN_MISSIONS = ("roadside_hazards", "valve_inspection")
STREAM_MISSION = "roadside_hazards"
TENANTS = tuple(f"tenant-{i}" for i in range(6))
TENANT_P = np.array([1.0 / (i + 1) for i in range(len(TENANTS))]) / sum(1.0 / (i + 1) for i in range(len(TENANTS)))
#: Every 100th open-loop request goes to a new cold mission (1%).  The
#: closed loop sends warm missions only: a shard keeps every mission's
#: engine, so cold missions there would make memory follow throughput.
COLD_EVERY = 100
CLOSED_OUTSTANDING = 32
SERVE_CLOSED_SHARE = 0.5        # of each slot; the rest is the open loop
STREAM_LIVE_SHARE = 0.4         # of each slot; the rest is replay
SMALL_POOL, LARGE_POOL = 128, 8  # distinct scenes per serving workload
CLIP_FRAMES = 32                # pre-rendered frames per camera
REPLAY_CHUNK = 8
SETUPS = 4                      # tier set-ups per run; setup_s is their median
STREAM_WARM_FRAMES = 4          # gated frames a stream set-up runs before ready
WARMUP_REQUESTS = 64
REFERENCE_SAMPLE = 200          # served requests re-checked per run
DRAIN_TIMEOUT_S = 30.0


@dataclasses.dataclass(frozen=True)
class Settings:
    seed: int
    seconds: float
    traced: bool
    corrupt: bool = False


def build_pipeline() -> ITaskPipeline:
    """The deployed system: the quantized configuration from the shipped
    artifact cache (loaded, never trained or downloaded)."""
    return ITaskPipeline(ArtifactBuilder(seed=0, verbose=False).quantized())


def mission_spec(mission: str) -> TaskSpec:
    """``<task>`` is a warm mission; ``<task>#<tag>`` a cold one: a
    unique few-shot spec with 4 positive and 4 negative support profiles
    drawn from the tag, so it pays LLM, refine, select and matcher set-up
    on first use."""
    task_name, _, tag = mission.partition("#")
    task = get_task(task_name)
    if not tag:
        return TaskSpec.from_definition(task)
    rng = np.random.default_rng(int.from_bytes(hashlib.sha256(mission.encode()).digest()[:8], "big"))
    positives: List[Any] = []
    negatives: List[Any] = []
    while len(positives) < 4 or len(negatives) < 4:
        profile = sample_profile(rng)
        (positives if task.matches(profile) else negatives).append(profile)
    return TaskSpec.from_definition(task, positives[:4], negatives[:4])


def proc_status_kb(pid: Any, key: str) -> int:
    """One numeric field of ``/proc/<pid>/status`` (kB for memory fields)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def first_mismatch(reference: Sequence[Any], served: Sequence[Any]) -> Optional[str]:
    """Served detections must equal the reference bit for bit, in order."""
    if len(reference) != len(served):
        return f"{len(served)} detections, reference has {len(reference)}"
    for rank, (ref, got) in enumerate(zip(reference, served)):
        for field in ("bbox", "score", "class_id"):
            if getattr(ref, field) != getattr(got, field):
                return f"detection {rank}: {field} {getattr(got, field)!r} != {getattr(ref, field)!r}"
    return None


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival times of a Poisson process at ``rate`` over ``seconds``."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 10))
    return offsets[offsets < seconds]


class _Served:
    """Stands in for a detector in ``task_accuracy``: returns the
    outputs that were actually served for those scenes."""

    def __init__(self, outputs: Sequence[Any]) -> None:
        self.outputs = list(outputs)

    def detect_batch(self, scenes):
        return self.outputs


# ----------------------------------------------------------------------
# Serving tier
# ----------------------------------------------------------------------
class ShardSessions:
    """Shard-worker factory: mission -> prepared session.

    Runs in the forked worker, which builds its own pipeline from the
    artifact cache on first use and turns its registry on only in a
    traced run.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.pipeline: Optional[ITaskPipeline] = None

    def __call__(self, mission: str):
        get_registry().enabled = self.traced
        if self.pipeline is None:
            self.pipeline = build_pipeline()
        return self.pipeline.session(mission_spec(mission))


class Tier:
    """A 2-shard tier plus what the load generator observes of it."""

    def __init__(self, traced: bool) -> None:
        self.router = ShardRouter(ShardSessions(traced), ShardConfig(
            num_shards=2, engine=EngineConfig(max_batch=8, flush_ms=2.0),
            start_method="fork"))
        self.pids = [info["pid"] for info in self.router.shard_info()]
        self.threads_max = 0

    def sample_threads(self) -> None:
        self.threads_max = max(self.threads_max,
                               sum(proc_status_kb(pid, "Threads") for pid in self.pids))

    def peak_rss_mb(self) -> float:
        pids = ["self", *self.pids]
        return sum(proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0

    def close(self) -> None:
        self.router.close()


Job = Tuple[str, str, int]  # mission, tenant, scene index


class Traffic:
    """The request mix, drawn from the seed: warm missions uniformly,
    zipf-weighted tenants and scenes uniformly from the pool; with
    ``cold_every``, every ``cold_every``-th request goes to a new cold
    mission instead."""

    def __init__(self, seed: int, missions: Sequence[str], pool: int, stream: int,
                 cold_every: int = 0) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.seed = seed
        self.missions = list(missions)
        self.pool = pool
        self.cold_every = cold_every
        self.sent = 0
        self.cold = 0

    def next(self) -> Job:
        self.sent += 1
        if self.cold_every and self.sent % self.cold_every == 0:
            base = self.missions[self.cold % len(self.missions)]
            mission = f"{base}#cold-{self.seed}-{self.cold}"
            self.cold += 1
        else:
            mission = self.missions[int(self.rng.integers(len(self.missions)))]
        tenant = TENANTS[int(self.rng.choice(len(TENANTS), p=TENANT_P))]
        return mission, tenant, int(self.rng.integers(self.pool))


class Load:
    """Requests sent to a tier and the outputs it served."""

    def __init__(self, tier: Tier, scenes: Sequence[Any], slo_ms: float) -> None:
        self.tier = tier
        self.scenes = scenes
        self.slo_ms = slo_ms
        self.served: List[Tuple[str, int, Any]] = []  # mission, scene index, detections

    def send(self, request: harness.Request, job: Job, on_done: Callable[[], None]) -> None:
        """Submit without blocking; the request's deadline is its due
        time plus the SLO.  ``on_done`` runs once the request is
        recorded as served or failed."""
        mission, tenant, scene = job
        budget_ms = self.slo_ms - (time.perf_counter() - request.due) * 1e3
        with request_context(name="e2e.request", tenant=tenant, mission=mission,
                             deadline_ms=budget_ms):
            try:
                future = self.tier.router.submit(self.scenes[scene], mission,
                                                 tenant=tenant, block=False)
            except ShardRejected:
                request.failed = True
                on_done()
                return

        def finish(fut: concurrent.futures.Future) -> None:
            request.done = time.perf_counter()
            if fut.exception() is None:
                self.served.append((mission, scene, fut.result()))
            else:
                request.failed = True
            on_done()

        future.add_done_callback(finish)

    def closed_loop(self, traffic: Traffic, outstanding: int, seconds: float
                    ) -> Tuple[List[harness.Request], float]:
        """Keep ``outstanding`` requests in flight for ``seconds``, then
        wait for them; returns the requests and the rate they completed
        at within the ``seconds``."""
        slots = threading.Semaphore(outstanding)
        requests: List[harness.Request] = []
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            slots.acquire()
            now = time.perf_counter()
            request = harness.Request(due=now, sent=now)
            requests.append(request)
            self.send(request, traffic.next(), on_done=slots.release)
        _await(slots, outstanding)
        return requests, harness.rate_between(
            [r.done for r in requests if not r.failed and r.done <= start + seconds])

    def open_loop(self, jobs: Sequence[Job], offsets: Sequence[float]) -> List[harness.Request]:
        """Poisson arrivals on a fixed schedule; nothing waits for replies."""
        finished = threading.Semaphore(0)
        requests = harness.drive_open_loop(
            offsets, lambda index, request: self.send(request, jobs[index], finished.release))
        _await(finished, len(requests))
        return requests

    def slots(self, closed: Traffic, opened: Optional[Traffic], closed_s: float, open_s: float,
              rng: np.random.Generator, host: harness.HostSpeed
              ) -> Tuple[List[harness.Request], List[float], List[List[harness.Request]]]:
        """SLOTS times: a closed loop for ``closed_s``, then (given
        ``opened``) Poisson arrivals at SERVE_RATE_SPS for ``open_s``; the
        host's speed is sampled around every slot.  Returns the
        closed-loop requests, each slot's closed-loop rate and each slot's
        open-loop requests."""
        closed_requests: List[harness.Request] = []
        rates: List[float] = []
        open_slots: List[List[harness.Request]] = []
        host.mark(pause=self.tier.pids)
        for _ in range(harness.SLOTS):
            requests, rate = self.closed_loop(closed, CLOSED_OUTSTANDING, closed_s)
            closed_requests += requests
            rates.append(rate)
            if opened is not None:
                offsets = poisson_offsets(rng, SERVE_RATE_SPS, open_s)
                open_slots.append(self.open_loop([opened.next() for _ in offsets], offsets))
            host.mark(pause=self.tier.pids)
        return closed_requests, rates, open_slots


def _await(semaphore: threading.Semaphore, count: int) -> None:
    """Take ``count`` releases, giving up DRAIN_TIMEOUT_S from now; a
    request still out then counts as failed (timed out)."""
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for _ in range(count):
        if not semaphore.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            return


class _Pool:
    """Scenes rendered from the seed on first use.  An untraced run first
    uses its pool after the kept tier forked, so shard workers do not
    inherit the pool's pages into their resident set."""

    def __init__(self, config: SceneConfig, seed: int, count: int) -> None:
        self.config, self.seed, self.count = config, seed, count
        self._scenes: Optional[List[Any]] = None

    def get(self) -> List[Any]:
        if self._scenes is None:
            self._scenes = SceneGenerator(self.config, seed=self.seed).generate_batch(self.count)
        return self._scenes


def _finalize_failures(requests: Sequence[harness.Request]) -> None:
    """A request that never completed counts as failed (timed out)."""
    for request in requests:
        if math.isnan(request.done):
            request.failed = True


def _latencies(requests: Sequence[harness.Request]) -> List[float]:
    return [r.latency_ms for r in requests if not r.failed]


#: One timed set-up: its seconds and the host's slowdown around it.
Setup = Tuple[float, float]


def _set_up_tiers(settings: Settings, host: harness.HostSpeed, warm: Callable[[Tier], None],
                  reference: Optional[Callable[[Tier], float]] = None
                  ) -> Tuple[Tier, List[Setup], Optional[float]]:
    """Build the tier SETUPS times; each set-up is timed from the call
    that spawns the shards to ready (missions prepared, warm-up done),
    between two samples of ``host``.  The last tier is kept.  In a traced
    run the tier before it runs the untraced ``reference`` phase (the
    tracing-overhead baseline) and the kept tier is traced."""
    setups: List[Setup] = []

    def build(traced: bool) -> Tier:
        def make() -> Tier:
            tier = Tier(traced)
            warm(tier)
            return tier

        tier, seconds, slowdown = host.timed(make, pause=lambda tier: tier.pids)
        setups.append((seconds, slowdown))
        return tier

    baseline = None
    for index in range(SETUPS - 1):
        tier = build(traced=False)
        if settings.traced and index == SETUPS - 2 and reference is not None:
            baseline = reference(tier)
        tier.close()
    tier = build(traced=settings.traced)
    tier.sample_threads()
    return tier, setups, baseline


def _check_served(report: harness.Report, load: Load, settings: Settings) -> None:
    """Re-run a seeded sample of served requests sequentially through
    ``TaskDetector.detect`` on a reference session in this process; the
    served outputs must match bit for bit."""
    served = load.served
    if not served:
        report.fail("no request was served")
        return
    rng = np.random.default_rng([settings.seed, 41])
    sample = rng.choice(len(served), size=min(REFERENCE_SAMPLE, len(served)), replace=False)
    if settings.corrupt:
        for index in sample:
            if served[index][2]:
                detection = served[index][2][0]
                detection.score = float(np.nextafter(detection.score, np.inf))
                break
    pipeline = build_pipeline()
    reference: Dict[Tuple[str, int], Any] = {}
    for index in sample:
        mission, scene, output = served[index]
        key = (mission, scene)
        if key not in reference:
            session = pipeline.session(mission_spec(mission))
            reference[key] = session.detector.detect(load.scenes[scene])
        problem = first_mismatch(reference[key], output)
        if problem is not None:
            report.fail(f"served request {index} ({mission}, scene {scene}): {problem}")
            return
    report.notes.append(f"correctness: {len(sample)} served requests bit-equal to sequential detect")


def _served_accuracy(load: Load) -> float:
    """Cell-level task accuracy of the outputs actually served."""
    by_task: Dict[str, Tuple[List[Any], List[Any]]] = {}
    for mission, scene, output in load.served:
        scenes, outputs = by_task.setdefault(mission.partition("#")[0], ([], []))
        scenes.append(load.scenes[scene])
        outputs.append(output)
    total = sum(len(scenes) for scenes, _ in by_task.values())
    return sum(task_accuracy(_Served(outputs), scenes, get_task(task)) * len(scenes)
               for task, (scenes, outputs) in by_task.items()) / max(1, total)


def _payload_kb(load: Load) -> float:
    """Mean request + response payload, computed from array sizes."""
    total = 0
    for _, scene, output in load.served:
        total += load.scenes[scene].image.nbytes
        total += sum(probs.nbytes for det in output for probs in det.attribute_probs.values())
    return total / len(load.served) / 1024.0 if load.served else 0.0


def _serve_layers(report: harness.Report, tier: Tier, before: Dict[str, Any],
                  load: Load, requests: Sequence[harness.Request],
                  lag_p99_ms: float, overhead_pct: float) -> None:
    """Per-layer metrics of a traced serving run: worker timers since the
    end of set-up, merged with the front-end's."""
    workers = snapshot_delta(tier.router.aggregate_snapshot(), before)
    view = layers.LayerView(merge_snapshots([mergeable_snapshot(get_registry()), workers]))
    values = layers.layer_metrics(view)
    roundtrips = [(r.done - r.sent) * 1e3 for r in requests if not r.failed]
    roundtrip = float(np.mean(roundtrips)) if roundtrips else 0.0
    values["shard.roundtrip_ms.mean"] = (roundtrip, "ms")
    values["shard.transport_ms.mean"] = (roundtrip - values["engine.sojourn_ms.mean"][0], "ms")
    values["shard.payload_kb"] = (_payload_kb(load), "KiB")
    values["engine.threads.max"] = (tier.threads_max, "count")
    values["stream.gate_hit_rate"] = (0.0, "ratio")
    values["loadgen.lag_p99_ms"] = (lag_p99_ms, "ms")
    values["obs.overhead_pct"] = (overhead_pct, "%")
    for name, (value, unit) in values.items():
        report.add(name, value, unit)


def _end_to_end(report: harness.Report, setups: Sequence[Setup], host: harness.HostSpeed,
                throughput: Tuple[float, float], throughput_detail: str,
                latency_slots: Sequence[Sequence[float]], timed: harness.PhaseSummary,
                peak_rss_mb: float, processes: int, accuracy: float, scored: int) -> None:
    """The end-to-end metrics of an untraced run.  The gated timings are
    scaled by the host's slowdown and also printed unscaled as ``.raw``:
    ``setups`` and ``throughput`` (scaled, raw) arrive that way, and
    ``latency_slots`` give the latency of each of ``host``'s slots.
    ``timed`` (the requests timed from their due time) gives the
    diagnostic tail and failure shares; ``accuracy`` was scored over
    ``scored`` served scenes or frames."""
    report.add("setup_s", statistics.median(s / f for s, f in setups), "s", f"n={len(setups)}")
    report.add("throughput_sps", throughput[0], "1/s", throughput_detail)
    report.add_percentile("latency_p50_ms", latency_slots, 50.0, host.per_slot())
    report.add("host.slowdown", statistics.median(host.marks), "x", f"n={len(host.marks)}")
    report.add("setup_s.raw", statistics.median(s for s, _ in setups), "s")
    report.add("throughput_sps.raw", throughput[1], "1/s")
    report.add_percentile("latency_p50_ms.raw", latency_slots, 50.0)
    report.add_percentile("latency_p90_ms", [timed.latencies_ms], 90.0)
    report.add_percentile("latency_p99_ms", [timed.latencies_ms], 99.0)
    report.add("peak_rss_mb", peak_rss_mb, "MB", f"processes={processes}")
    report.add("task_accuracy", accuracy, "ratio", f"n={scored}")
    report.add("slo_miss_frac", timed.slo_miss_frac, "ratio", f"n={timed.attempted}")
    report.add("failed_frac", timed.failed_frac, "ratio", f"n={timed.attempted}")
    report.notes.extend(f"INVALID: {p}" for p in host.problems())


def _overhead_pct(untraced: Optional[float], traced: float) -> float:
    return (untraced / traced - 1.0) * 100.0 if untraced and traced else 0.0


# ----------------------------------------------------------------------
# serve_small
# ----------------------------------------------------------------------
def serve_small(settings: Settings) -> harness.Report:
    """Small grid-3 scenes through the 2-shard tier: 4 warm missions
    (2 per shard) plus 1% cold few-shot missions, 6 zipf tenants.  Each
    slot keeps 32 requests in flight for SERVE_CLOSED_SHARE of it
    (throughput), then sends Poisson arrivals at SERVE_RATE_SPS for the
    rest (latency from each request's due time)."""
    report = harness.Report("serve_small")
    slot_s = settings.seconds / harness.SLOTS
    closed_s = slot_s * SERVE_CLOSED_SHARE
    open_s = slot_s - closed_s
    warm_scenes = SceneGenerator(SceneConfig(grid=3), seed=settings.seed + 1).generate_batch(16)

    def warm(tier: Tier) -> None:
        load = Load(tier, warm_scenes, SERVE_SLO_MS)
        warm_traffic = Traffic(settings.seed, WARM_MISSIONS, len(warm_scenes), stream=3)
        futures = [tier.router.submit(warm_scenes[0], mission) for mission in WARM_MISSIONS]
        concurrent.futures.wait(futures, timeout=DRAIN_TIMEOUT_S)
        for _ in range(WARMUP_REQUESTS // CLOSED_OUTSTANDING):
            wave = threading.Semaphore(0)
            for _ in range(CLOSED_OUTSTANDING):
                load.send(harness.Request(due=time.perf_counter()), warm_traffic.next(),
                          wave.release)
            _await(wave, CLOSED_OUTSTANDING)

    scenes = _Pool(SceneConfig(grid=3), settings.seed, SMALL_POOL)

    def reference(tier: Tier) -> float:
        load = Load(tier, scenes.get(), SERVE_SLO_MS)
        rates = load.slots(Traffic(settings.seed, WARM_MISSIONS, SMALL_POOL, stream=5), None,
                           closed_s, 0.0, np.random.default_rng(0), harness.HostSpeed())[1]
        return max(rates)

    host = harness.HostSpeed()
    tier, setups, untraced_sps = _set_up_tiers(settings, host, warm, reference)
    try:
        before = tier.router.aggregate_snapshot()
        get_registry().reset()
        get_registry().enabled = settings.traced
        load = Load(tier, scenes.get(), SERVE_SLO_MS)
        closed, rates, opened = load.slots(
            Traffic(settings.seed, WARM_MISSIONS, SMALL_POOL, stream=7),
            Traffic(settings.seed, WARM_MISSIONS, SMALL_POOL, stream=9, cold_every=COLD_EVERY),
            closed_s, open_s, np.random.default_rng([settings.seed, 11]), host)
        tier.sample_threads()
        get_registry().enabled = False
        timed = [r for slot in opened for r in slot]
        _finalize_failures(closed + timed)
        lags = [r.lag_ms for r in timed]
        report.notes.extend(f"INVALID: {p}" for p in harness.validity_problems(opened))
        report.attempted = len(closed) + len(timed)
        report.failed = sum(r.failed for r in closed + timed)
        if settings.traced:
            _serve_layers(report, tier, before, load, closed + timed,
                          harness.percentile(lags, 99.0),
                          _overhead_pct(untraced_sps, max(rates)))
        else:
            _end_to_end(report, setups, host,
                        (harness.best_rate(rates, host.per_slot()), max(rates)),
                        f"slots={len(rates)}", [_latencies(slot) for slot in opened],
                        harness.summarize(timed, SERVE_SLO_MS), tier.peak_rss_mb(),
                        len(tier.pids) + 1, _served_accuracy(load), len(load.served))
            report.add("loadgen.lag_p99_ms", harness.percentile(lags, 99.0), "ms",
                       f"n={len(lags)}")
    finally:
        tier.close()
    _check_served(report, load, settings)
    return report


# ----------------------------------------------------------------------
# scan_large
# ----------------------------------------------------------------------
def scan_large(settings: Settings) -> harness.Report:
    """Dense grid-16 scenes (256 windows each), two closed-loop clients,
    each on its own mission and shard: the forward, window build and
    emission dominate, per-message overhead does not."""
    report = harness.Report("scan_large")
    config = SceneConfig(grid=16)
    warm_scenes = SceneGenerator(config, seed=settings.seed + 1).generate_batch(2)

    def warm(tier: Tier) -> None:
        for _ in range(2):
            futures = [tier.router.submit(scene, mission)
                       for scene, mission in zip(warm_scenes, SCAN_MISSIONS)]
            concurrent.futures.wait(futures, timeout=DRAIN_TIMEOUT_S)

    pool = _Pool(config, settings.seed, LARGE_POOL)

    def clients(tier: Tier, seconds: float, host: harness.HostSpeed
                ) -> Tuple[Load, List[List[harness.Request]], List[float]]:
        """Both clients for ``seconds`` in SLOTS slots, the host's speed
        sampled around every slot; returns the load, each slot's requests
        and each slot's completion rate."""
        scenes = pool.get()
        load = Load(tier, scenes, SERVE_SLO_MS)
        rngs = [np.random.default_rng([settings.seed, 31 + index]) for index in range(2)]
        slots: List[List[harness.Request]] = []
        rates: List[float] = []

        def client(index: int, end: float, requests: List[harness.Request]) -> None:
            mission = SCAN_MISSIONS[index]
            while time.perf_counter() < end:
                now = time.perf_counter()
                request = harness.Request(due=now, sent=now)
                requests.append(request)
                done = threading.Semaphore(0)
                load.send(request, (mission, TENANTS[index], int(rngs[index].integers(len(scenes)))),
                          done.release)
                _await(done, 1)

        host.mark(pause=tier.pids)
        for _ in range(harness.SLOTS):
            end = time.perf_counter() + seconds / harness.SLOTS
            per_client: List[List[harness.Request]] = [[], []]
            other = threading.Thread(target=client, args=(1, end, per_client[1]),
                                     name="e2e-client-1")
            other.start()
            client(0, end, per_client[0])
            other.join(timeout=DRAIN_TIMEOUT_S + seconds)
            slots.append(per_client[0] + per_client[1])
            rates.append(harness.rate_between([r.done for r in slots[-1] if not r.failed]))
            host.mark(pause=tier.pids)
        return load, slots, rates

    host = harness.HostSpeed()
    tier, setups, untraced_sps = _set_up_tiers(
        settings, host, warm,
        lambda tier: max(clients(tier, settings.seconds / 2, harness.HostSpeed())[2]))
    try:
        before = tier.router.aggregate_snapshot()
        get_registry().reset()
        get_registry().enabled = settings.traced
        load, slots, rates = clients(tier, settings.seconds, host)
        tier.sample_threads()
        get_registry().enabled = False
        requests = [r for slot in slots for r in slot]
        _finalize_failures(requests)
        report.attempted = len(requests)
        report.failed = sum(r.failed for r in requests)
        if settings.traced:
            _serve_layers(report, tier, before, load, requests, 0.0,
                          _overhead_pct(untraced_sps, max(rates)))
        else:
            _end_to_end(report, setups, host,
                        (harness.best_rate(rates, host.per_slot()), max(rates)),
                        f"slots={len(slots)}", [_latencies(slot) for slot in slots],
                        harness.summarize(requests, SERVE_SLO_MS), tier.peak_rss_mb(),
                        len(tier.pids) + 1, _served_accuracy(load), len(load.served))
    finally:
        tier.close()
    _check_served(report, load, settings)
    return report


# ----------------------------------------------------------------------
# stream_static / stream_moving
# ----------------------------------------------------------------------
class _Recorded:
    """Replays recorded track snapshots through the ``update`` surface
    ``evaluate_stream`` drives."""

    def __init__(self, snapshots: Sequence[Any]) -> None:
        self._snapshots = iter(snapshots)

    def update(self, scene):
        return next(self._snapshots)


class _Frames:
    def __init__(self, states: Sequence[Any]) -> None:
        self._states = list(states)

    def frames(self, count: int):
        return iter(self._states[:count])


def _copy(tracks: Sequence[Any]) -> List[Any]:
    return [dataclasses.replace(t) for t in tracks]


class Live:
    """The cameras live at STREAM_FPS each, through ``update`` on one
    long-lived detector per camera: frame k goes to camera k mod N and
    is timed from its due time."""

    def __init__(self, session: Any, config: TrackerConfig, plays: Sequence[Sequence[Any]]) -> None:
        self.plays = plays
        self.detectors = [session.stream(config) for _ in plays]
        self.snapshots: List[List[Any]] = [[] for _ in plays]
        self.states: List[List[Any]] = [[] for _ in plays]
        self.frames = 0

    def fire(self, index: int, request: harness.Request) -> None:
        camera = self.frames % len(self.plays)
        play = self.plays[camera]
        state = play[(self.frames // len(self.plays)) % len(play)]
        tracks = self.detectors[camera].update(state.scene)
        request.done = time.perf_counter()
        self.snapshots[camera].append(_copy(tracks))
        self.states[camera].append(state)
        self.frames += 1

    def burst(self, seconds: float) -> List[harness.Request]:
        """Every camera live for ``seconds``, on a schedule that starts now."""
        period = 1.0 / (STREAM_FPS * len(self.plays))
        return harness.drive_open_loop([i * period for i in range(int(seconds / period))],
                                       self.fire)


class Replay:
    """Closed-loop replay through ``update_many`` in REPLAY_CHUNK-frame
    chunks: each camera's play in turn, each pass on a fresh detector.
    ``run`` resumes where the previous call stopped, so replay can be cut
    into slices between live bursts; each chunk's time is kept with the
    slot it ran in."""

    def __init__(self, session: Any, config: TrackerConfig, plays: Sequence[Sequence[Any]]) -> None:
        self.session = session
        self.config = config
        self.plays = plays
        self.chunks = [(camera, start) for camera, play in enumerate(plays)
                       for start in range(0, len(play), REPLAY_CHUNK)]
        # chunk -> (seconds, slot) of every time it ran
        self.times: Dict[Tuple[int, int], List[Tuple[float, int]]] = {c: [] for c in self.chunks}
        self.passes: List[Tuple[int, List[Any]]] = []  # camera, one snapshot per frame
        self.steps = 0
        self.slot = 0
        self.detector: Any = None
        self.snapshots: List[Any] = []

    def step(self) -> None:
        camera, start = self.chunks[self.steps % len(self.chunks)]
        if start == 0:
            self.detector = self.session.stream(self.config)
            self.snapshots = []
        frames = self.plays[camera][start:start + REPLAY_CHUNK]
        begin = time.perf_counter()
        self.snapshots.extend(self.detector.update_many(frames))
        self.times[(camera, start)].append((time.perf_counter() - begin, self.slot))
        self.steps += 1
        if start + REPLAY_CHUNK >= len(self.plays[camera]):
            self.passes.append((camera, self.snapshots))

    def run(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.step()

    def complete(self) -> None:
        """Replay on until every chunk was timed at least once."""
        while self.steps < len(self.chunks):
            self.step()

    @property
    def rounds(self) -> int:
        return self.steps // len(self.chunks)

    def fps(self, slowdowns: Optional[Sequence[float]] = None) -> float:
        """Frames of one round over the sum of each chunk's fastest time,
        each time divided by the host's slowdown around its slot (given
        ``slowdowns``).  Every round repeats the same chunks, so a slow
        stretch that hits some rounds does not move it, and the mix of
        cheap and costly chunks (a fresh detector scores every cell) stays
        whole."""
        scale = slowdowns or [1.0] * (self.slot + 1)
        busy = sum(min(seconds / scale[slot] for seconds, slot in times)
                   for times in self.times.values())
        return sum(map(len, self.plays)) / busy


def stream(settings: Settings, motion_rate: float, name: str) -> harness.Report:
    """4 cameras of grid-6 frames through delta-gated streaming detectors.

    Each slot runs the cameras live for STREAM_LIVE_SHARE of it, then replays for the
    rest; an untraced run also sets up a fresh pipeline before every slot
    after the first.  Clips are pre-rendered and played forward then
    backward."""
    report = harness.Report(name)
    slot_s = settings.seconds / harness.SLOTS
    live_s = slot_s * STREAM_LIVE_SHARE
    replay_s = slot_s - live_s
    scene = SceneConfig(grid=6, cell_size=32, object_density=0.4, distractor_density=0.15,
                        clutter_density=0.0, noise_std=0.02)
    clips = materialize_cameras(STREAM_CAMERAS, CLIP_FRAMES, scene,
                                motion_rate=motion_rate, seed=settings.seed)
    plays = [clip + clip[::-1] for clip in clips]
    play_scenes = [[state.scene for state in play] for play in plays]
    task = get_task(STREAM_MISSION)
    gated = TrackerConfig(delta_gate=True)

    setups: List[Setup] = []
    host = harness.HostSpeed()

    def set_up() -> Any:
        def make() -> Any:
            session = build_pipeline().session(TaskSpec.from_definition(task))
            warm = session.stream(gated)
            for frame in play_scenes[0][:STREAM_WARM_FRAMES]:
                warm.update(frame)
            return session

        session, seconds, slowdown = host.timed(make)
        setups.append((seconds, slowdown))
        return session

    session = set_up()  # the session measured
    untraced_fps = None
    if settings.traced:
        baseline = Replay(session, gated, play_scenes)
        baseline.run(replay_s * harness.SLOTS)
        baseline.complete()
        untraced_fps = baseline.fps()
    get_registry().reset()
    get_registry().enabled = settings.traced
    live = Live(session, gated, plays)
    replay = Replay(session, gated, play_scenes)
    live_slots = []
    for slot in range(harness.SLOTS):
        if slot and not settings.traced:
            set_up()  # one more per slot, so setup_s is a median across the run too
        host.mark()
        live_slots.append(live.burst(live_s))
        replay.slot = slot
        replay.run(replay_s)
    replay.complete()
    host.mark()
    get_registry().enabled = False

    timed = [r for slot in live_slots for r in slot]
    report.attempted = len(timed) + sum(len(snaps) for _, snaps in replay.passes)
    report.notes.extend(f"INVALID: {p}" for p in harness.validity_problems(live_slots))
    lags = [r.lag_ms for r in timed]
    skipped = sum(d.gate_stats.skipped for d in live.detectors)
    recomputed = sum(d.gate_stats.recomputed for d in live.detectors)
    throughput = replay.fps()
    if settings.traced:
        view = layers.LayerView(mergeable_snapshot(get_registry()))
        values = layers.layer_metrics(view)
        values.update({
            "shard.roundtrip_ms.mean": (0.0, "ms"), "shard.transport_ms.mean": (0.0, "ms"),
            "shard.payload_kb": (0.0, "KiB"),
            "engine.threads.max": (0, "count"),
            "stream.gate_hit_rate": (skipped / max(1, skipped + recomputed), "ratio"),
            "loadgen.lag_p99_ms": (harness.percentile(lags, 99.0), "ms"),
            "obs.overhead_pct": (_overhead_pct(untraced_fps, throughput), "%"),
        })
        for metric, (value, unit) in values.items():
            report.add(metric, value, unit)
    else:
        accuracy = 0.0
        for camera, states in enumerate(live.states):
            metrics = evaluate_stream(_Recorded(live.snapshots[camera]), _Frames(states), task,
                                      num_frames=len(states))
            accuracy += metrics.frame_accuracy * len(states)
        _end_to_end(report, setups, host, (replay.fps(host.per_slot()), throughput),
                    f"rounds={replay.rounds}", [_latencies(slot) for slot in live_slots],
                    harness.summarize(timed, 1e3 / STREAM_FPS),
                    proc_status_kb("self", "VmHWM") / 1024.0, 1, accuracy / len(timed), len(timed))
        report.add("loadgen.lag_p99_ms", harness.percentile(lags, 99.0), "ms", f"n={len(lags)}")

    # Correctness: gated live and replay snapshots against full recompute.
    # A live camera and a replay pass both start a fresh detector on the
    # camera's play, so one reference per camera serves both.
    if settings.corrupt:
        for snaps in live.snapshots[0]:
            if snaps:
                snaps[0].score = float(np.nextafter(snaps[0].score, np.inf))
                break
    full = TrackerConfig(delta_gate=False)
    reference = []
    for camera, play in enumerate(play_scenes):
        detector = session.stream(full)
        frames = max(len(live.states[camera]), len(play))
        reference.append([_copy(detector.update(play[i % len(play)])) for i in range(frames)])
    problem = compare_snapshots([ref[:len(states)] for ref, states in zip(reference, live.states)],
                                live.snapshots)
    for camera, snapshots in replay.passes:
        problem = problem or compare_snapshots([reference[camera][:len(play_scenes[camera])]],
                                               [snapshots])
    if problem is not None:
        report.fail(f"gated stream differs from full recompute: {problem}")
    else:
        report.notes.append(f"correctness: {len(timed)} live frames and "
                            f"{len(replay.passes)} replay passes equal full recompute")
    return report


WORKLOADS: Dict[str, Callable[[Settings], harness.Report]] = {
    "serve_small": serve_small,
    "scan_large": scan_large,
    "stream_static": functools.partial(stream, motion_rate=0.05, name="stream_static"),
    "stream_moving": functools.partial(stream, motion_rate=1.0, name="stream_moving"),
}
