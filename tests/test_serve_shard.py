"""Sharded serving tier: ``ShardRouter`` over forked engine workers.

Covers the multi-process refactor of the serving stack:

* the pure routing/seed functions (``shard_for_mission`` is a stable
  cross-process affinity hash; ``worker_seed`` de-correlates forked
  RNG streams),
* result exactness — scenes routed through worker processes must be
  bit-identical to in-process detection (the quantized batch-invariance
  guarantee extended across the process boundary),
* BLAS sizing: every OpenBLAS copy mapped into a worker runs at the
  worker's CPU share, ``max(1, cpus // num_shards)``,
* lifecycle: graceful SIGTERM drain (in-flight finishes, raced jobs are
  rejected with ``engine.rejected`` and rerouted without loss), slot
  backpressure shedding, per-tenant fairness caps, futures that are
  claimed on submit, idempotent close, one front-end thread per shard,
* the caller-side wait: a submit with no free slot sheds, times out,
  moves to the next live shard when its shard drains, or ends with
  ``ShardClosed`` when the router closes; a large scene waiting to grow
  the slots is not starved by small ones,
* cross-process metrics: every shard serves a mergeable snapshot and
  the front-end's ``/snapshot`` is bit-identical to
  ``merge_snapshots`` over the per-shard documents,
* :class:`MetricsServer` ephemeral-port binding and ``snapshot_fn``
  aggregation endpoints,
* ``repro obs top --url a --url b`` merging: terminal totals bit-match
  a single-process run of the same workload.
"""

import dataclasses
import glob
import hashlib
import json
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.cascade import CascadeRouter, CascadeSession, FAST_PATH
from repro.data import (
    SceneConfig,
    SceneGenerator,
    attribute_head_spec,
    get_task,
)
from repro.data.datasets import num_classes
from repro.data.scenes import Scene
from repro.detect import TaskDetector
from repro.kg import GraphMatcher, SimulatedLLM
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import Registry, get_registry
from repro.obs.export import (
    MetricsServer,
    merge_snapshots,
    mergeable_snapshot,
)
from repro.obs.registry import FP_SCALE
from repro.serve import (
    EngineConfig,
    ShardClosed,
    ShardConfig,
    ShardRejected,
    ShardRouter,
    shard_for_mission,
    worker_seed,
)

TASK = "roadside_hazards"
BASE_SEED = 7

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded serving tests need the fork start method")


# ----------------------------------------------------------------------
# Worker factories (module level so they pickle under any start method)
# ----------------------------------------------------------------------
def build_quantized_detector(task: str) -> TaskDetector:
    """Deterministic quantized detector — same recipe in the parent
    (reference) and inside the worker, so outputs can be compared
    bit-for-bit across the process boundary."""
    from repro.quant import quantize_vit

    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(3))
    model.eval()
    calibration = np.random.default_rng(0).random(
        (8, 3, 32, 32)).astype(np.float32)
    quantized = quantize_vit(model, calibration)
    kg = SimulatedLLM().generate_for_task(get_task(task))
    return TaskDetector(quantized, matcher=GraphMatcher(kg),
                        score_threshold=0.0)


class DetectorSession:
    """Engine-facing session: just the batch entry point."""

    def __init__(self, detector: TaskDetector) -> None:
        self._detector = detector

    def detect_batch(self, scenes):
        return self._detector.detect_batch(scenes)


class QuantizedSessionFactory:
    """Builds the quantized detector inside the worker process."""

    def __call__(self, mission: str):
        task = mission.split(":", 1)[0]
        return DetectorSession(build_quantized_detector(task))


class CascadeSessionFactory:
    """Router-only cascade session over the quantized fast path."""

    def __call__(self, mission: str):
        task = mission.split(":", 1)[0]
        return CascadeSession(
            None, CascadeRouter(build_quantized_detector(task)))


class SlowEchoSession:
    """Model-free session for lifecycle tests: sleeps, returns empties."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def detect_batch(self, scenes):
        if self.delay_s:
            time.sleep(self.delay_s)
        return [[] for _ in scenes]


class SlowEchoSessionFactory:
    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s

    def __call__(self, mission: str):
        return SlowEchoSession(self.delay_s)


class SlowQuantizedSessionFactory:
    """The quantized detector behind a fixed delay per batch, so a batch
    is reliably in flight when a test kills its worker."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def __call__(self, mission: str):
        return SlowEchoDetectorSession(
            build_quantized_detector(mission.split(":", 1)[0]), self.delay_s)


class GatedEchoSession:
    """Model-free session whose batches wait for ``gate``, an event the
    forked worker inherits, and return empties."""

    def __init__(self, gate) -> None:
        self.gate = gate

    def detect_batch(self, scenes):
        self.gate.wait(timeout=30.0)
        return [[] for _ in scenes]


class GatedEchoSessionFactory:
    def __init__(self, gate) -> None:
        self.gate = gate

    def __call__(self, mission: str):
        return GatedEchoSession(self.gate)


class GroundTruthBlindSession(DetectorSession):
    """The quantized detector, failing any batch whose scenes carry
    ground-truth objects into the worker."""

    def detect_batch(self, scenes):
        carried = [len(scene.objects) for scene in scenes]
        if any(carried):
            raise AssertionError(f"worker received objects: {carried}")
        return super().detect_batch(scenes)


class GroundTruthBlindSessionFactory:
    def __call__(self, mission: str):
        return GroundTruthBlindSession(
            build_quantized_detector(mission.split(":", 1)[0]))


class SlowEchoDetectorSession(DetectorSession):
    def __init__(self, detector: TaskDetector, delay_s: float) -> None:
        super().__init__(detector)
        self.delay_s = delay_s

    def detect_batch(self, scenes):
        time.sleep(self.delay_s)
        return super().detect_batch(scenes)


class InspectSession:
    """Reports what the worker received: the image's digest, shape and
    dtype, whether the array is writeable, and whether a write was
    refused."""

    def detect_batch(self, scenes):
        reports = []
        for scene in scenes:
            image = scene.image
            try:
                image.flat[0] = 0
                refused = False
            except ValueError:
                refused = True
            reports.append([{
                "sha": hashlib.sha256(image.tobytes()).hexdigest(),
                "shape": image.shape,
                "dtype": image.dtype.str,
                "writeable": bool(image.flags.writeable),
                "write_refused": refused,
            }])
        return reports


class InspectSessionFactory:
    def __call__(self, mission: str):
        return InspectSession()


def digest(scene) -> str:
    return hashlib.sha256(scene.image.tobytes()).hexdigest()


def mission_for_shard(target: int, num_shards: int,
                      task: str = TASK) -> str:
    """A mission name whose affinity hash lands on ``target``."""
    index = 0
    while True:
        name = f"{task}:m{index}"
        if shard_for_mission(name, num_shards) == target:
            return name
        index += 1


def echo_router(delay_s: float = 0.0, *, engine: EngineConfig = None,
                **overrides) -> ShardRouter:
    config = ShardConfig(
        num_shards=overrides.pop("num_shards", 2),
        engine=engine or EngineConfig(max_batch=2, flush_ms=2.0,
                                      workers=1, queue_size=8),
        start_method="fork",
        **overrides)
    return ShardRouter(SlowEchoSessionFactory(delay_s), config)


def fetch_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def assert_detections_bit_equal(reference, candidate):
    assert len(reference) == len(candidate)
    for ref_scene, cand_scene in zip(reference, candidate):
        assert len(ref_scene) == len(cand_scene)
        for ref, cand in zip(ref_scene, cand_scene):
            assert tuple(ref.bbox) == tuple(cand.bbox)
            assert ref.score == cand.score
            assert ref.objectness == cand.objectness
            assert ref.task_score == cand.task_score
            assert ref.class_id == cand.class_id


@pytest.fixture(scope="module")
def scenes():
    return list(SceneGenerator(SceneConfig(grid=2),
                               seed=11).generate_batch(4))


@pytest.fixture(scope="module")
def reference_detector():
    return build_quantized_detector(TASK)


# ----------------------------------------------------------------------
# Pure routing / seeding functions
# ----------------------------------------------------------------------
class TestRoutingFunctions:
    def test_shard_for_mission_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for mission in ("a", "b", TASK, f"{TASK}:cold1"):
                index = shard_for_mission(mission, n)
                assert 0 <= index < n
                assert index == shard_for_mission(mission, n)

    def test_shard_for_mission_spreads(self):
        hit = {shard_for_mission(f"mission-{i}", 4) for i in range(64)}
        assert hit == set(range(4))

    def test_shard_for_mission_validates(self):
        with pytest.raises(ValueError):
            shard_for_mission("x", 0)

    def test_worker_seed_deterministic(self):
        assert worker_seed(7, 0, 123) == worker_seed(7, 0, 123)

    def test_worker_seed_distinct_per_input(self):
        base = worker_seed(7, 0, 50)
        assert base != worker_seed(8, 0, 50)
        assert base != worker_seed(7, 1, 50)
        assert base != worker_seed(7, 0, 51)
        assert len({worker_seed(7, s, 1000 + s) for s in range(8)}) == 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(num_shards=0)
        with pytest.raises(ValueError):
            ShardConfig(max_inflight_per_tenant=0)


# ----------------------------------------------------------------------
# Result exactness and cross-process metrics over real detectors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quantized_router():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork start method")
    config = ShardConfig(
        num_shards=2,
        engine=EngineConfig(max_batch=4, flush_ms=2.0, workers=1,
                            queue_size=8),
        metrics=True,
        base_seed=BASE_SEED,
        start_method="fork")
    router = ShardRouter(QuantizedSessionFactory(), config)
    yield router
    router.close()


@fork_only
class TestShardedResults:
    def test_bit_equal_to_sequential(self, quantized_router, scenes,
                                     reference_detector):
        reference = [reference_detector.detect(scene) for scene in scenes]
        results = quantized_router.detect_many(scenes, TASK)
        assert any(len(dets) > 0 for dets in reference)
        assert_detections_bit_equal(reference, results)

    def test_ground_truth_stays_with_the_caller(self, scenes,
                                                reference_detector):
        """Scenes cross to the worker without ``objects``, and serving
        from that shell is bit-equal to detecting the full scene."""
        carried = [len(scene.objects) for scene in scenes]
        assert any(carried)
        config = ShardConfig(
            num_shards=1,
            engine=EngineConfig(max_batch=4, workers=1, queue_size=8),
            start_method="fork")
        with ShardRouter(GroundTruthBlindSessionFactory(), config) as router:
            results = router.detect_many(scenes, TASK)
        reference = [reference_detector.detect(scene) for scene in scenes]
        assert any(len(dets) > 0 for dets in reference)
        assert_detections_bit_equal(reference, results)
        # The caller's scenes keep their ground truth.
        assert [len(scene.objects) for scene in scenes] == carried

    def test_rng_reseeded_per_worker(self, quantized_router):
        info = quantized_router.shard_info()
        probes = [quantized_router.probe("rng", shard)
                  for shard in range(2)]
        for shard, (meta, probe) in enumerate(zip(info, probes)):
            expected = worker_seed(BASE_SEED, shard, meta["pid"])
            assert meta["seed"] == expected
            assert probe["seed"] == expected
            assert probe["pid"] == meta["pid"]
        # Forked children would share the parent's RNG state without the
        # per-process reseed: the streams must have diverged.
        assert probes[0]["samples"] != probes[1]["samples"]

    def test_shard_metrics_endpoints_live(self, quantized_router):
        urls = quantized_router.shard_metrics_urls()
        assert len(urls) == 2
        assert len(set(urls)) == 2
        for url in urls:
            assert int(url.rsplit(":", 1)[1]) > 0
            assert fetch_json(url + "/healthz")["status"] == "ok"
            doc = fetch_json(url + "/snapshot")
            assert doc["schema"] == "repro.obs.merge/1"

    def test_front_end_snapshot_bit_identical_to_merge(
            self, quantized_router, scenes):
        before = quantized_router.aggregate_snapshot()
        before_fp = before["counters"].get(
            "engine.scenes", {"value_fp": 0})["value_fp"]
        quantized_router.detect_many(scenes, TASK)

        shard_docs = [fetch_json(url + "/snapshot")
                      for url in quantized_router.shard_metrics_urls()]
        front = quantized_router.serve_metrics()
        try:
            front_doc = fetch_json(front.url + "/snapshot")
        finally:
            front.stop()

        # The satellite property: the aggregation endpoint adds nothing
        # of its own — its document is bit-identical to merging the
        # per-shard documents out of band, whichever transport fetched
        # them.
        assert canonical(front_doc) == canonical(merge_snapshots(shard_docs))
        assert canonical(front_doc) == canonical(
            quantized_router.aggregate_snapshot())
        # Merged totals account for exactly the scenes just served.
        delta = front_doc["counters"]["engine.scenes"]["value_fp"] - before_fp
        assert delta == len(scenes) * FP_SCALE
        # Satellite: workers pre-register the reject counter so the
        # merged document carries an explicit zero, never a fallback.
        assert front_doc["counters"]["engine.rejected"]["value_fp"] == 0


@fork_only
class TestCascadeThroughShards:
    def test_decisions_and_results_bit_equal_fast_path(
            self, scenes, reference_detector):
        config = ShardConfig(
            num_shards=2,
            engine=EngineConfig(max_batch=4, flush_ms=2.0, workers=1,
                                queue_size=8),
            base_seed=BASE_SEED,
            start_method="fork")
        with ShardRouter(CascadeSessionFactory(), config) as router:
            results = router.detect_many(scenes, TASK)
            primary = router.shard_for(TASK)
            decisions = router.probe("decisions", primary)[TASK]

        reference_session = CascadeSession(
            None, CascadeRouter(reference_detector))
        ref_results, ref_decisions = reference_session.route_batch(scenes)

        # With no specialist the cascade is the fast path; the shard
        # worker's shed/fast decisions must reproduce the in-process
        # ones bit-for-bit (routes and margins), and the detections are
        # exactly the fast detector's output.
        assert_detections_bit_equal(ref_results, results)
        assert len(decisions) == len(ref_decisions) == len(scenes)
        assert {d["route"] for d in decisions} == {FAST_PATH}
        assert (sorted(d["margin"] for d in decisions)
                == sorted(d.margin for d in ref_decisions))


# ----------------------------------------------------------------------
# BLAS pools sized to each worker's CPU share
# ----------------------------------------------------------------------
def mapped_openblas_names():
    """File names of the OpenBLAS libraries mapped into this process;
    forked workers inherit the same mappings."""
    names = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            name = line.rstrip("\n").rsplit("/", 1)[-1]
            if "/" in line and "openblas" in name:
                names.add(name)
    return names


@fork_only
@pytest.mark.skipif(not os.path.exists("/proc/self/maps")
                    or not hasattr(os, "sched_getaffinity"),
                    reason="needs /proc/self/maps and sched_getaffinity")
@pytest.mark.parametrize("num_shards", [1, 2])
def test_every_openblas_copy_runs_at_the_cpu_share(num_shards):
    expected = max(1, len(os.sched_getaffinity(0)) // num_shards)
    libraries = mapped_openblas_names()
    with echo_router(num_shards=num_shards) as router:
        info = router.shard_info()
    assert len(info) == num_shards
    for meta in info:
        # numpy and scipy each bundle an OpenBLAS: configuring only
        # the first one mapped would leave the other at one thread per
        # core, so every mapped copy must be reported at the share.
        assert set(meta["blas_threads"]) == libraries
        assert all(threads == expected
                   for threads in meta["blas_threads"].values())


# ----------------------------------------------------------------------
# Lifecycle: affinity, drain, shedding, fairness, close
# ----------------------------------------------------------------------
@fork_only
class TestLifecycle:
    def test_affinity_warms_only_the_primary_shard(self, scenes):
        with echo_router() as router:
            mission = mission_for_shard(0, 2)
            router.detect_many(scenes[:2], mission)
            assert mission in router.probe("queue_depth", 0)
            assert mission not in router.probe("queue_depth", 1)

    def test_graceful_drain_finishes_rejects_and_reroutes(self, scenes):
        from repro.serve.shard import _ShardJob

        with echo_router(0.2) as router:
            mission = mission_for_shard(0, 2)
            first = [router.submit(scenes[i % len(scenes)], mission)
                     for i in range(4)]

            router.drain_shard(0)
            deadline = time.monotonic() + 30.0
            while "states=[d" not in repr(router):
                assert time.monotonic() < deadline, "drain never announced"
                time.sleep(0.01)

            # Simulate the send/drain race: a job that left the
            # front-end before the draining announcement arrived.  The
            # worker must reject it (engine.rejected) and the router
            # must reroute it to a live shard instead of dropping it.
            # The draining worker rejects before it reads the slot, so
            # the message may name any slot of the arena.
            handle = router._handles[0]
            raced = _ShardJob(1_000_000, mission, scenes[0], None, 0, None)
            image = scenes[0].image
            with handle.lock:
                handle.pending[raced.job_id] = raced
            assert handle.send((
                "job", raced.job_id, mission,
                (0, handle.arena.slot_bytes, image.shape, image.dtype.str),
                dataclasses.replace(scenes[0], image=None), None))

            # New submits route around the draining shard.
            later = [router.submit(scenes[i % len(scenes)], mission)
                     for i in range(4)]

            # Nothing is dropped: every future resolves with a result.
            for future in first + [raced] + later:
                if isinstance(future, _ShardJob):
                    assert future.future.result(timeout=60.0) == []
                else:
                    assert future.result(timeout=60.0) == []

            router.close()
            docs = router.shard_snapshots()
            merged = merge_snapshots(docs)
            # All 9 scenes executed exactly once somewhere (reroute is
            # not re-execution), and the drained worker counted at
            # least the raced rejection.
            assert (merged["counters"]["engine.scenes"]["value_fp"]
                    == 9 * FP_SCALE)
            assert (merged["counters"]["engine.rejected"]["value_fp"]
                    >= 1 * FP_SCALE)
            assert (docs[0]["counters"]["engine.rejected"]["value_fp"]
                    >= 1 * FP_SCALE)
            # The post-drain traffic landed on the surviving shard.
            assert (docs[1]["counters"]["engine.scenes"]["value_fp"]
                    >= 4 * FP_SCALE)

    def test_queue_backpressure_sheds_nonblocking_submits(self):
        registry = get_registry()
        shed_before = registry.counters.get("shard.rejected")
        shed_before = shed_before.value if shed_before else 0
        # One shard, a depth-1 engine queue, slow batches, and fat
        # scenes: once the worker's slots are taken, backpressure must
        # surface as ShardRejected on a non-blocking submit, not as loss.
        payload = Scene(np.zeros(100_000, dtype=np.uint8), [], 1, 1)
        engine = EngineConfig(max_batch=1, flush_ms=1.0, workers=1,
                              queue_size=1)
        accepted, shed = [], False
        with echo_router(0.5, engine=engine, num_shards=1) as router:
            for _ in range(20):
                try:
                    accepted.append(
                        router.submit(payload, TASK, block=False))
                except ShardRejected:
                    shed = True
                    break
            assert shed, "bounded queues never pushed back"
            for future in accepted:
                assert future.result(timeout=60.0) == []
        assert registry.counters["shard.rejected"].value == shed_before + 1

    def test_tenant_fairness_cap(self, scenes):
        registry = get_registry()
        tenant_shed = registry.counters.get("shard.shed.tenant")
        tenant_shed = tenant_shed.value if tenant_shed else 0
        with echo_router(0.3, max_inflight_per_tenant=1) as router:
            hot = router.submit(scenes[0], TASK, tenant="hot")
            with pytest.raises(ShardRejected):
                router.submit(scenes[1], TASK, tenant="hot")
            # Another tenant is unaffected by the hot tenant's cap.
            cold = router.submit(scenes[1], TASK, tenant="cold")
            assert hot.result(timeout=30.0) == []
            assert cold.result(timeout=30.0) == []
            # The slot releases on completion, not on shed.
            again = router.submit(scenes[2], TASK, tenant="hot")
            assert again.result(timeout=30.0) == []
        assert (registry.counters["shard.shed.tenant"].value
                == tenant_shed + 1)

    def test_submitted_future_cannot_be_cancelled_and_its_reply_resolves_it(
            self, scenes):
        gate = multiprocessing.get_context("fork").Event()
        config = ShardConfig(
            num_shards=1, start_method="fork",
            engine=EngineConfig(max_batch=1, workers=1, queue_size=1))
        with ShardRouter(GatedEchoSessionFactory(gate), config) as router:
            held = [router.submit(scene, TASK) for scene in scenes[:2]]
            # The future is claimed before submit returns it, so no
            # cancel can race its reply.
            for future in held:
                assert future.running()
                assert not future.cancel()
            gate.set()
            assert [f.result(timeout=30.0) for f in held] == [[]] * 2
            assert router.submit(scenes[0], TASK).result(timeout=2.0) == []
            served = router.aggregate_snapshot()["counters"]["engine.scenes"]
        assert served["value_fp"] == 3 * FP_SCALE

    def test_one_reader_thread_per_shard_and_no_dispatcher(self):
        before = set(threading.enumerate())
        with echo_router(num_shards=2):
            # The only threads a router starts are its shards' readers.
            added = sorted(thread.name for thread in threading.enumerate()
                           if thread not in before)
        assert added == ["repro-shard-read-0", "repro-shard-read-1"]

    def test_close_is_idempotent_and_submit_after_close_raises(
            self, scenes):
        router = echo_router()
        router.close()
        router.close()
        assert router.closed
        with pytest.raises(ShardClosed):
            router.submit(scenes[0], TASK)


# ----------------------------------------------------------------------
# The caller-side wait: a submit with no free slot
# ----------------------------------------------------------------------
def gated_router(gate, **overrides) -> ShardRouter:
    """Four slots per shard, held while ``gate`` is shut."""
    config = ShardConfig(
        num_shards=overrides.pop("num_shards", 1),
        engine=EngineConfig(max_batch=1, workers=1, queue_size=3),
        start_method="fork", **overrides)
    return ShardRouter(GatedEchoSessionFactory(gate), config)


def fill_slots(router: ShardRouter, shard: int, mission: str, scene,
               **submit_kwargs) -> list:
    """Submit until every slot of ``shard`` is held; the futures."""
    arena = router._handles[shard].arena
    futures = [router.submit(scene, mission, **submit_kwargs)
               for _ in range(arena.count)]
    assert arena.held == arena.count
    return futures


def counter_value(name: str) -> float:
    counter = get_registry().counters.get(name)
    return counter.value if counter else 0


@fork_only
class TestCallerSideWait:
    def test_shed_and_timeout_exactly_when_every_slot_is_held(self, scenes):
        gate = multiprocessing.get_context("fork").Event()
        shed_before = counter_value("shard.rejected")
        with gated_router(gate, max_inflight_per_tenant=10) as router:
            try:
                # No submit sheds while a slot is free.
                held = fill_slots(router, 0, TASK, scenes[0],
                                  tenant="t", block=False)
                with pytest.raises(ShardRejected):
                    router.submit(scenes[0], TASK, tenant="t", block=False)
                started = time.monotonic()
                with pytest.raises(ShardRejected):
                    router.submit(scenes[0], TASK, tenant="t", timeout=0.3)
                waited = time.monotonic() - started
                assert 0.3 <= waited < 5.0
                assert (counter_value("shard.rejected")
                        == shed_before + 2)
                # A shed submit gives its tenant-cap slot back.
                assert router._tenant_inflight == {"t": len(held)}
            finally:
                gate.set()
            assert [f.result(timeout=30.0) for f in held] == \
                [[]] * len(held)
            assert router._tenant_inflight == {}

    def test_a_submit_waiting_on_a_draining_shard_moves_on(self, scenes):
        gate = multiprocessing.get_context("fork").Event()
        mission = mission_for_shard(0, 2)
        with gated_router(gate, num_shards=2) as router:
            try:
                held = fill_slots(router, 0, mission, scenes[0])
                waiting = []
                submitter = threading.Thread(target=lambda: waiting.append(
                    router.submit(scenes[1], mission)))
                submitter.start()
                time.sleep(0.1)
                assert submitter.is_alive(), "a slot was free"
                router.drain_shard(0)
                # The drain announcement moves the waiting submit to
                # shard 1 while shard 0 still holds every slot.
                submitter.join(timeout=30.0)
                assert not submitter.is_alive()
                assert router._handles[1].arena.held == 1
            finally:
                gate.set()
            assert waiting[0].result(timeout=30.0) == []
            assert [f.result(timeout=30.0) for f in held] == \
                [[]] * len(held)
            router.close()
            docs = router.shard_snapshots()
        assert docs[1]["counters"]["engine.scenes"]["value_fp"] == FP_SCALE

    def test_close_without_wait_ends_a_waiting_submit(self, scenes):
        gate = multiprocessing.get_context("fork").Event()
        router = gated_router(gate)
        try:
            held = fill_slots(router, 0, TASK, scenes[0])
            outcome = []

            def submit() -> None:
                try:
                    router.submit(scenes[1], TASK)
                except ShardClosed as exc:
                    outcome.append(exc)

            submitter = threading.Thread(target=submit)
            submitter.start()
            time.sleep(0.1)
            assert submitter.is_alive(), "a slot was free"
            closer = threading.Thread(target=router.close,
                                      kwargs={"wait": False})
            closer.start()
            submitter.join(timeout=10.0)
            assert not submitter.is_alive(), "the waiting submit hung"
            assert len(outcome) == 1
        finally:
            gate.set()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        for future in held:
            # Served before the worker stopped, or failed by the close.
            error = future.exception(timeout=30.0)
            assert error is None or isinstance(error, ShardClosed)

    def test_a_large_scene_is_not_starved_by_small_ones(self):
        small = Scene(np.zeros((3, 8, 8), np.float32), [], 1, 8)
        large = Scene(np.zeros((3, 64, 64), np.float32), [], 1, 64)
        engine = EngineConfig(max_batch=2, workers=1, queue_size=2)
        stop = threading.Event()
        problems = []

        with echo_router(0.005, engine=engine, num_shards=1) as router:
            arena = router._handles[0].arena
            assert arena.count == 4

            def stream() -> None:
                try:
                    while not stop.is_set():
                        router.submit(small, TASK).result(timeout=30.0)
                except Exception as exc:  # surfaced below
                    problems.append(exc)

            streams = [threading.Thread(target=stream) for _ in range(2)]
            for thread in streams:
                thread.start()
            try:
                time.sleep(0.2)  # the small stream keeps a slot held
                assert arena.slot_bytes < large.image.nbytes
                started = time.monotonic()
                future = router.submit(large, TASK, timeout=4.0)
                waited = time.monotonic() - started
                assert future.result(timeout=30.0) == []
            finally:
                stop.set()
                for thread in streams:
                    thread.join(timeout=30.0)
            assert problems == []
            assert arena.slot_bytes >= large.image.nbytes
            assert waited < 4.0

    def test_detect_many_past_the_slot_count_is_bit_equal(
            self, reference_detector):
        many = SceneGenerator(SceneConfig(grid=2), seed=21).generate_batch(12)
        config = ShardConfig(
            num_shards=1, start_method="fork",
            engine=EngineConfig(max_batch=2, workers=1, queue_size=2))
        with ShardRouter(QuantizedSessionFactory(), config) as router:
            assert len(many) == 3 * router._handles[0].arena.count
            results = router.detect_many(many, TASK)
        reference = [reference_detector.detect(scene) for scene in many]
        assert any(len(dets) > 0 for dets in reference)
        assert_detections_bit_equal(reference, results)


# ----------------------------------------------------------------------
# Scene slots: shared-memory transport
# ----------------------------------------------------------------------
def script_env() -> dict:
    """Environment of a child interpreter that imports ``repro`` and
    this module."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(here), "src"), here]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_script(script: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], env=script_env(),
                          capture_output=True, text=True, **kwargs)


SPAWN_SCRIPT = textwrap.dedent("""
    from repro.data import SceneConfig, SceneGenerator
    from test_serve_shard import TASK, digest, inspect_router

    scenes = SceneGenerator(SceneConfig(grid=2), seed=11).generate_batch(2)
    with inspect_router(start_method="spawn") as router:
        reports = router.detect_many(scenes, TASK)
    print("served")
    if [r[0]["sha"] for r in reports] == [digest(s) for s in scenes]:
        print("bit-equal")
""")


def inspect_router(**overrides) -> ShardRouter:
    config = ShardConfig(
        num_shards=overrides.pop("num_shards", 1),
        engine=EngineConfig(max_batch=2, flush_ms=1.0, workers=1,
                            queue_size=2),
        start_method=overrides.pop("start_method", "fork"), **overrides)
    return ShardRouter(InspectSessionFactory(), config)


class TestSlotArena:
    """The front-end half of the arena, driven in-process."""

    def test_concurrent_holders_never_share_a_slot(self):
        from repro.serve.shard import _SlotArena

        arena = _SlotArena(3)
        problems = []

        def hold(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(200):
                # Mixed sizes: a larger one waits until every slot is
                # free, then grows them.
                nbytes = int(rng.choice([64, 9000, 20000]))
                slot = arena.acquire(nbytes)
                mine = np.full(nbytes, seed, np.uint8)
                arena.write(slot, mine)
                time.sleep(0)
                seen = np.frombuffer(arena._map, np.uint8, nbytes,
                                     slot * arena.slot_bytes)
                if not np.array_equal(seen, mine):
                    problems.append((seed, slot))
                del seen
                arena.release(slot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold, args=(seed,))
                       for seed in range(1, 7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert problems == []
        assert arena.held == 0
        assert arena.slot_bytes >= 20000
        arena.close()

    def test_most_recently_freed_slot_is_reused_first(self):
        from repro.serve.shard import _SlotArena

        arena = _SlotArena(4)
        slots = [arena.acquire(10) for _ in range(3)]
        assert slots == [0, 1, 2]
        arena.release(1)
        arena.release(0)
        assert arena.acquire(10) == 0
        assert arena.acquire(10) == 1
        arena.close()

    def test_a_waiting_grow_goes_before_small_acquires(self):
        from repro.serve.shard import ShardRejected, _SlotArena

        arena = _SlotArena(2)
        held = arena.acquire(10)
        big = 3 * mmap.PAGESIZE
        # A grow that cannot wait, or runs out of time, sheds and leaves
        # small acquires free to go on.
        with pytest.raises(ShardRejected):
            arena.acquire(big, block=False)
        with pytest.raises(ShardRejected):
            arena.acquire(big, timeout=0.05)
        other = arena.acquire(10, block=False)
        arena.release(other)

        got = []
        grower = threading.Thread(
            target=lambda: got.append(arena.acquire(big)), daemon=True)
        grower.start()
        time.sleep(0.05)
        assert grower.is_alive()
        # A slot is free, but the waiting grow is ahead of small scenes.
        with pytest.raises(ShardRejected):
            arena.acquire(10, block=False)
        arena.release(held)
        grower.join(timeout=10.0)
        assert not grower.is_alive()
        assert arena.slot_bytes >= big
        assert got == [0]
        # Once the grow has its slot, small scenes take the rest.
        assert arena.acquire(10, block=False) == 1
        arena.close()

    def test_interrupt_wakes_a_blocked_acquire(self):
        from repro.serve.shard import _SlotArena

        arena = _SlotArena(1)
        assert arena.acquire(10) == 0
        got = []
        waiter = threading.Thread(target=lambda: got.append(arena.acquire(10)))
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive()
        arena.interrupt()
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert got == [None]
        arena.close()


@fork_only
class TestSceneSlots:
    def test_slot_count_is_derived_from_the_engine_config(self):
        with inspect_router() as router:
            # queue_size + max_batch * workers: the most one worker holds.
            assert router._handles[0].arena.count == 2 + 2 * 1

    def test_worker_view_is_read_only_and_bit_equal(self, scenes):
        with inspect_router() as router:
            reports = router.detect_many(scenes, TASK)
        for scene, [report] in zip(scenes, reports):
            assert report["sha"] == digest(scene)
            assert report["shape"] == scene.image.shape
            assert report["dtype"] == scene.image.dtype.str
            assert not report["writeable"]
            assert report["write_refused"]

    def test_larger_scene_grows_the_slots(self, scenes):
        large = SceneGenerator(SceneConfig(grid=4), seed=12).generate_batch(2)
        with inspect_router() as router:
            arena = router._handles[0].arena
            router.detect_many(scenes, TASK)
            small_bytes = arena.slot_bytes
            assert small_bytes >= scenes[0].image.nbytes
            reports = router.detect_many(large + scenes, TASK)
            assert arena.slot_bytes >= large[0].image.nbytes > small_bytes
            assert arena.held == 0
        assert [r[0]["sha"] for r in reports] == [
            digest(scene) for scene in large + scenes]

    def test_larger_scene_is_served_bit_equal_to_sequential(
            self, quantized_router, scenes, reference_detector):
        large = SceneGenerator(SceneConfig(grid=3), seed=13).generate_batch(2)
        arena = quantized_router._handles[quantized_router.shard_for(TASK)].arena
        quantized_router.detect_many(scenes, TASK)
        small_bytes = arena.slot_bytes
        results = quantized_router.detect_many(large, TASK)
        assert arena.slot_bytes > small_bytes
        reference = [reference_detector.detect(scene) for scene in large]
        assert any(len(dets) > 0 for dets in reference)
        assert_detections_bit_equal(reference, results)

    def test_in_flight_scenes_never_exceed_the_slot_count(self, scenes):
        engine = EngineConfig(max_batch=2, flush_ms=1.0, workers=1,
                              queue_size=2)
        with echo_router(0.1, engine=engine, num_shards=1) as router:
            handle = router._handles[0]
            most = 0
            done = threading.Event()

            def watch() -> None:
                nonlocal most
                while not done.is_set():
                    with handle.lock:
                        most = max(most, len(handle.pending))
                    time.sleep(0.002)

            watcher = threading.Thread(target=watch)
            watcher.start()
            try:
                # Submits past the slot count wait in this thread.
                futures = [router.submit(scenes[i % len(scenes)], TASK)
                           for i in range(16)]
                assert all(future.result(timeout=60.0) == []
                           for future in futures)
            finally:
                done.set()
                watcher.join()
            # The cap binds: the worker held exactly as many scenes as
            # it has slots, never more.
            assert most == handle.arena.count == 4
            assert handle.arena.held == 0

    def test_spawned_worker_receives_its_arena(self):
        # In a child interpreter: spawning starts multiprocessing's
        # resource_tracker, which must not outlive this test.
        done = run_script(SPAWN_SCRIPT, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["served", "bit-equal"]

    def test_submit_rejects_a_scene_without_an_image(self):
        with echo_router() as router:
            with pytest.raises(TypeError):
                router.submit(np.zeros(4), TASK)

    def test_empty_image_is_served(self):
        empty = SceneGenerator(SceneConfig(grid=0), seed=1).generate()
        assert empty.image.nbytes == 0
        with inspect_router() as router:
            [[report]] = router.detect_many([empty], TASK)
        assert report["shape"] == empty.image.shape

    def test_unwritable_image_fails_its_future_and_dispatch_goes_on(
            self, scenes):
        bad = Scene(np.array([object()], dtype=object), [], 1, 1)
        with echo_router() as router:
            with pytest.raises(ValueError):
                router.submit(bad, TASK).result(timeout=30.0)
            assert router.detect_many(scenes, TASK) == [[]] * len(scenes)

    def test_transport_timers_reach_the_merged_snapshot(self, scenes):
        from repro.obs import request_context

        registry = get_registry()
        before = {name: registry.timer(name).calls
                  for name in ("shard.slot_wait", "shard.dispatch")}
        with echo_router() as router:
            with request_context(name="test.request", tenant="t"):
                router.detect_many(scenes, TASK)
            workers = router.aggregate_snapshot()
        for name, calls in before.items():
            assert registry.timer(name).calls == calls + len(scenes)
        assert workers["timers"]["shard.receive"]["calls"] == len(scenes)
        traced = [span for span in registry.spans
                  if span.name == "shard.dispatch" and span.trace_id]
        assert traced, "dispatch spans carry the request's trace id"

    def test_untraced_runs_record_no_transport_timers(self, scenes):
        registry = get_registry()
        before = {name: registry.timer(name).calls
                  for name in ("shard.slot_wait", "shard.dispatch")}
        registry.enabled = False
        try:
            with ShardRouter(DisabledRegistryFactory(), ShardConfig(
                    num_shards=1, start_method="fork")) as router:
                # The first job builds the session, which turns the
                # worker's registry off.
                router.detect_many(scenes[:1], TASK)
                warm = router.aggregate_snapshot()["timers"]
                router.detect_many(scenes, TASK)
                workers = router.aggregate_snapshot()["timers"]
        finally:
            registry.enabled = True
        for name, calls in before.items():
            assert registry.timer(name).calls == calls
        assert workers["shard.receive"] == warm["shard.receive"]


class DisabledRegistryFactory:
    """Turns the worker's registry off, as an untraced benchmark run does."""

    def __call__(self, mission: str):
        get_registry().enabled = False
        return SlowEchoSession(0.0)


# ----------------------------------------------------------------------
# Faults: a killed worker, a stuck worker, and what close() leaves behind
# ----------------------------------------------------------------------
def child_pids() -> set:
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as children:
            pids.update(int(pid) for pid in children.read().split())
    return pids


def memfd_descriptors() -> set:
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("/memfd:"):
            found.add((fd, target))
    return found


class Residue:
    """What a router could leave behind in this process: children,
    memfd descriptors, /dev/shm entries, and resource_tracker use."""

    def __init__(self, monkeypatch) -> None:
        from multiprocessing import resource_tracker

        self.children = child_pids()
        self.memfds = memfd_descriptors()
        self.shm = set(os.listdir("/dev/shm"))
        self.tracker_calls = []
        for name in ("ensure_running", "register", "getfd"):
            original = getattr(resource_tracker, name)

            def record(*args, name=name, original=original):
                self.tracker_calls.append(name)
                return original(*args)

            monkeypatch.setattr(resource_tracker, name, record)

    def assert_clean(self) -> None:
        assert child_pids() <= self.children
        assert memfd_descriptors() <= self.memfds
        assert set(os.listdir("/dev/shm")) <= self.shm
        assert self.tracker_calls == []


needs_proc = pytest.mark.skipif(
    not glob.glob("/proc/self/task/*/children")
    or not os.path.isdir("/dev/shm"),
    reason="needs /proc/<pid>/task/<tid>/children and /dev/shm")


@fork_only
@needs_proc
class TestWorkerFaults:
    def test_close_leaves_nothing_behind(self, scenes, monkeypatch):
        residue = Residue(monkeypatch)
        with echo_router() as router:
            assert child_pids() - residue.children
            assert memfd_descriptors() - residue.memfds
            router.detect_many(scenes, mission_for_shard(0, 2))
            router.detect_many(scenes, mission_for_shard(1, 2))
        residue.assert_clean()

    def test_sigkill_mid_batch_reroutes_bit_equal(
            self, scenes, reference_detector, monkeypatch):
        residue = Residue(monkeypatch)
        engine = EngineConfig(max_batch=2, flush_ms=1.0, workers=1,
                              queue_size=2)
        config = ShardConfig(num_shards=2, engine=engine,
                             base_seed=BASE_SEED, start_method="fork")
        victim_mission = mission_for_shard(0, 2)
        other_mission = mission_for_shard(1, 2)
        router = ShardRouter(SlowQuantizedSessionFactory(0.3), config)
        try:
            # Warm both shards so the kill lands mid-batch, not mid-build.
            router.detect_many(scenes[:1], victim_mission)
            router.detect_many(scenes[:1], other_mission)
            victim = router._handles[0]

            resolved, returned_after_kill = [], []
            futures = [None] * 12
            expected = [scenes[i % len(scenes)] for i in range(12)]
            killed = threading.Event()

            def submit(i: int) -> None:
                mission = victim_mission if i < 8 else other_mission
                future = router.submit(expected[i], mission)
                if killed.is_set():
                    returned_after_kill.append(i)
                future.add_done_callback(
                    lambda _fut, i=i: resolved.append(i))
                futures[i] = future

            # The victim's first four scenes take its four slots; the
            # other four wait for a slot in helper threads.
            for i in range(4):
                submit(i)
            helpers = [threading.Thread(target=submit, args=(i,))
                       for i in range(4, 8)]
            for helper in helpers:
                helper.start()
            for i in range(8, 12):
                submit(i)

            # Every victim slot is taken (a batch runs, the engine queue
            # is full) and submitters wait for a slot: kill it now.
            deadline = time.monotonic() + 30.0
            while victim.arena.held < victim.arena.count:
                assert time.monotonic() < deadline, "victim never filled"
                time.sleep(0.005)
            assert not futures[0].done()
            os.kill(victim.info["pid"], signal.SIGKILL)
            killed.set()
            for helper in helpers:
                helper.join(timeout=60.0)
                assert not helper.is_alive()
            # A submitter still waited on a victim slot at the kill, and
            # moved on to the live shard.
            assert returned_after_kill

            results = [future.result(timeout=60.0) for future in futures]
            # The dead shard's slots are free, and new submits for its
            # missions go to the live shard instead of waiting on them.
            assert victim.arena.held == 0
            later = router.submit(scenes[0], victim_mission)
            results.append(later.result(timeout=60.0))
            expected.append(scenes[0])
        finally:
            started = time.monotonic()
            router.close()
            assert time.monotonic() - started < 20.0
        assert sorted(resolved) == list(range(12))
        reference = [reference_detector.detect(scene) for scene in expected]
        assert any(len(dets) > 0 for dets in reference)
        assert_detections_bit_equal(reference, results)
        assert "D" in repr(router)
        residue.assert_clean()


STUCK_WORKER_SCRIPT = textwrap.dedent("""
    import json, sys, threading, time
    import numpy as np
    from repro.data.scenes import Scene
    from repro.serve import EngineConfig, ShardConfig, ShardRouter
    import repro.serve.shard as shard

    # Shorter grace periods keep the test quick; the escalation path is
    # the same as with the defaults.
    shard._EXIT_GRACE_S = 1.0
    shard._TERM_GRACE_S = 1.0

    class Stuck:
        def detect_batch(self, scenes):
            threading.Event().wait()

    router = ShardRouter(lambda mission: Stuck(), ShardConfig(
        num_shards=2, start_method="fork",
        engine=EngineConfig(max_batch=1, workers=1, queue_size=1)))
    print(json.dumps([info["pid"] for info in router.shard_info()]),
          flush=True)
    scene = Scene(np.zeros((3, 8, 8), np.float32), [], 1, 8)
    # Two scenes per shard: as many as a shard has slots, so no submit
    # waits on a worker that never frees one.
    missions = [next(f"m{i}" for i in range(100)
                     if shard.shard_for_mission(f"m{i}", 2) == target)
                for target in range(2)]
    futures = [router.submit(scene, mission)
               for mission in missions for _ in range(2)]
    time.sleep(0.5)
    router.close(wait=False)
    print("closed", flush=True)
""")


@fork_only
def test_stuck_worker_does_not_outlive_close():
    # Popen, not run_script: the worker pids come first, so the test can
    # still kill them if the interpreter hangs.
    child = subprocess.Popen([sys.executable, "-c", STUCK_WORKER_SCRIPT],
                             env=script_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    pids = json.loads(child.stdout.readline() or "[]")
    try:
        # The interpreter must exit: multiprocessing joins daemonic
        # children at exit with no timeout, so a surviving worker would
        # hang it.
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        for pid in [child.pid] + pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        child.communicate()
        pytest.fail("the interpreter did not exit within 60 s of close()")
    assert child.returncode == 0, err
    assert out.splitlines()[-1] == "closed"
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# ----------------------------------------------------------------------
# MetricsServer: ephemeral ports and aggregation endpoints
# ----------------------------------------------------------------------
class TestMetricsServer:
    def test_port_zero_binds_ephemeral_and_reports_actual(self):
        registry = Registry("shard-test")
        registry.count("requests", 2)
        with MetricsServer(registry, port=0) as server:
            assert server.port > 0
            assert server.url.endswith(f":{server.port}")
            doc = fetch_json(server.url + "/snapshot")
            assert doc["counters"]["requests"]["value_fp"] == 2 * FP_SCALE

    def test_two_ephemeral_servers_never_collide(self):
        registry = Registry("shard-test")
        with MetricsServer(registry, port=0) as a:
            with MetricsServer(registry, port=0) as b:
                assert a.port != b.port

    def test_snapshot_fn_serves_the_aggregated_document(self):
        left, right = Registry("left"), Registry("right")
        left.count("events", 1)
        right.count("events", 3)
        right.timer("stage").record(0.25)

        def aggregate():
            return merge_snapshots([mergeable_snapshot(left),
                                    mergeable_snapshot(right)])

        with MetricsServer(snapshot_fn=aggregate, port=0) as server:
            doc = fetch_json(server.url + "/snapshot")
            assert doc["counters"]["events"]["value_fp"] == 4 * FP_SCALE
            assert canonical(doc) == canonical(
                json.loads(json.dumps(aggregate())))
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode()
            assert 'repro_events_total{name="events"} 4' in text
            assert 'stage="stage"' in text


# ----------------------------------------------------------------------
# repro obs top --url a --url b
# ----------------------------------------------------------------------
class TestObsTopMultiUrl:
    def test_parser_accepts_repeated_urls(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["obs", "top", "--url", "http://h1:1", "--url", "http://h2:2"])
        assert args.url == ["http://h1:1", "http://h2:2"]

    def test_merged_totals_bit_match_single_process_run(self):
        def record(registry, timers, counters, dists):
            for name, values in timers.items():
                timer = registry.timer(name)
                for value in values:
                    timer.record(value)
            for name, amount in counters.items():
                registry.count(name, amount)
            for name, values in dists.items():
                for value in values:
                    registry.observe(name, value)

        # One workload, split across two "processes" vs run in one.
        half_a = (
            {"detect.batch": [0.25, 0.5], "engine.queue_wait": [0.125]},
            {"engine.scenes": 5, "shard.submitted": 3},
            {"engine.batch_size": [2.0, 4.0]})
        half_b = (
            {"detect.batch": [1.5], "engine.queue_wait": [0.0625, 0.75]},
            {"engine.scenes": 7, "engine.rejected": 2},
            {"engine.batch_size": [8.0]})

        registry_a, registry_b = Registry("a"), Registry("b")
        record(registry_a, *half_a)
        record(registry_b, *half_b)
        single = Registry("single")
        record(single, *half_a)
        record(single, *half_b)

        from repro.cli import _fetch_merged_snapshot

        with MetricsServer(registry_a, port=0) as server_a:
            with MetricsServer(registry_b, port=0) as server_b:
                merged = _fetch_merged_snapshot([server_a.url,
                                                 server_b.url])

        expected = json.loads(json.dumps(mergeable_snapshot(single)))
        assert canonical(merged) == canonical(expected)
        assert merged["counters"]["engine.scenes"]["value_fp"] == \
            12 * FP_SCALE

    def test_single_url_is_an_identity(self):
        registry = Registry("solo")
        registry.count("events", 9)
        registry.timer("stage").record(0.5)

        from repro.cli import _fetch_merged_snapshot

        with MetricsServer(registry, port=0) as server:
            merged = _fetch_merged_snapshot([server.url])
        expected = json.loads(json.dumps(mergeable_snapshot(registry)))
        assert canonical(merged) == canonical(expected)
