"""E12 — Quantized inference: exact BLAS integer kernels vs int64 reference.

The quantized configuration is the paper's resource-constrained
deployment target, and the seed executed it through numpy's naive int64
matmul — an order of magnitude slower than the float path it was meant
to undercut.  This benchmark measures the rebuilt integer stack
bottom-up:

* ``kernels`` — per-site GEMM latency of the exact BLAS-backed
  ``forward_integer`` vs the int64 ``forward_integer_reference``
  (:mod:`repro.reference`);
* ``forward`` — the whole quantized network end to end (patch
  projection → blocks → heads) at serving batch size — **the
  acceptance gate**: full mode exits non-zero below ``SPEEDUP_TARGET``;
* ``detect`` — scenes/sec through the full detect path (window
  extraction and NMS included), fast vs ``int64_kernels()``;
* ``engine`` — float-specialist vs quantized micro-batching engines on
  the E11 harness (the quantized configuration must stay within
  ``ENGINE_RATIO_TARGET`` of float at batch >= 8);
* ``parts`` (full mode) — where one 256-window forward spends its time:
  quantize, GEMM, requantize, layernorm, softmax, GELU and the rest,
  timed by wrappers this bench installs around the forward's helpers;
* ``busy_neighbour`` (full mode) — the forward beside a thread spinning
  ``x += 1``, divided by the forward alone, at 16 and 256 rows, in a
  child process on one BLAS thread.  Every numpy call that releases
  the GIL lets the spinner take it back for up to the 5 ms switch
  interval, so the ratio counts hand-backs.

Every timed workload asserts **bit-identical outputs** between the BLAS
kernels and the int64 reference before any clock starts — the speedup
is free, not bought with accuracy.  Timing rounds are interleaved and
each mode is timed in steady state (see
:func:`benchmarks.common.interleaved_rounds`), so machine drift hits
both modes alike.  Models are fresh untrained students post-training
quantized on random images (timing does not depend on weight values),
so the workloads need no artifact cache.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e12_quant_inference.py
    PYTHONPATH=src python benchmarks/bench_e12_quant_inference.py --smoke

``--smoke`` shrinks every workload (CI-friendly); CI gates its work
counters exactly against ``benchmarks/baselines/`` with ``repro obs
compare``, and its pytest entry asserts that every kernel beats the
int64 reference.  Both modes persist telemetry — manifest, per-stage
stats and counters (no span buffer, so the smoke baseline stays
reviewable), and all four result tables — to
``BENCH_e12_quant_inference.json``.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.bench_e11_throughput import (
    build_workload,
    checking_detector,
    compare_engine_configurations,
)
from benchmarks.common import finalize_benchmark, interleaved_rounds, print_table
from repro.data import attribute_head_spec
from repro.data.datasets import num_classes
from repro.nn import VisionTransformer, ViTConfig, inference
from repro.obs import get_registry
from repro.quant.linear import QuantizedLinear
from repro.quant.vit import QuantizedVisionTransformer, quantize_vit
from repro.reference import forward_integer_reference, int64_kernels

SPEEDUP_TARGET = 5.0
ENGINE_RATIO_TARGET = 2.0


def build_quantized_student(seed: int = 0) -> QuantizedVisionTransformer:
    """Fresh student ViT, post-training quantized to w8a8.

    Weights are untrained (timing does not depend on values), so the
    workload is stateless — no artifact cache involved.
    """
    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(seed))
    calibration = np.random.default_rng(seed + 1).random(
        (32, config.in_channels,
         config.image_size, config.image_size)).astype(np.float32)
    return quantize_vit(model, calibration)


def run_kernel_latency(
    rows_per_gemm: int = 4096,
    repeats: int = 5,
    seed: int = 0,
    sites: Optional[List[str]] = None,
) -> List[Dict]:
    """Per-site GEMM latency: BLAS fast path vs int64 reference.

    Every site of the quantized student is fed the same pre-quantized
    activation codes; both kernels must agree **bit for bit** (asserted)
    before they are timed with interleaved rounds.  Returns one row per
    site with shapes, the GEMM dtype the exactness bound selected, both
    latencies, and the speedup.
    """
    quantized = build_quantized_student(seed)
    rng = np.random.default_rng(seed + 2)
    rows: List[Dict] = []
    for site, layer in quantized.layers.items():
        if sites is not None and site not in sites:
            continue
        x = rng.standard_normal(
            (rows_per_gemm, layer.in_features)).astype(np.float32)
        x_q = layer.quantize_input(x)

        fast = layer.forward_integer(x_q)
        reference = forward_integer_reference(layer, x_q)
        assert fast.dtype == reference.dtype == np.float32
        if not np.array_equal(fast, reference):
            raise AssertionError(
                f"{site}: BLAS kernel diverged from int64 reference")

        samples = interleaved_rounds(repeats, [
            lambda layer=layer, x_q=x_q: layer.forward_integer(x_q),
            lambda layer=layer, x_q=x_q: forward_integer_reference(layer, x_q),
        ])
        fast_s, ref_s = min(samples[0]), min(samples[1])
        rows.append({
            "site": site,
            "m": rows_per_gemm,
            "k": layer.in_features,
            "n": layer.out_features,
            "gemm_dtype": np.dtype(layer._gemm_dtype).name,
            "fast_ms": fast_s * 1e3,
            "reference_ms": ref_s * 1e3,
            "speedup": ref_s / fast_s,
        })
    return rows


def _outputs_equal(left, right) -> bool:
    if isinstance(left, dict):
        return set(left) == set(right) and all(
            _outputs_equal(left[key], right[key]) for key in left)
    return np.array_equal(np.asarray(left), np.asarray(right))


def run_forward_latency(
    batch_images: int = 256,
    repeats: int = 5,
    seed: int = 11,
) -> Tuple[List[Dict], float]:
    """End-to-end quantized network forward, BLAS kernels vs reference.

    One fused batch of ``batch_images`` images through the *whole*
    quantized model — patch projection, both transformer blocks, and
    every head — once on the exact BLAS kernels and once on the int64
    kernels.  Every output head (logits, attributes,
    CLS embedding) must match **bit for bit** (asserted before timing).
    Returns (rows, speedup) with the drift-cancelled fast-over-reference
    speedup (each mode's best steady-state round, rounds interleaved) —
    the number the E12 acceptance gate checks.
    """
    quantized = build_quantized_student(seed)
    config = quantized.model.config
    images = np.random.default_rng(seed + 1).random(
        (batch_images, config.in_channels,
         config.image_size, config.image_size)).astype(np.float32)

    fast_out = quantized(images)
    with int64_kernels():
        ref_out = quantized(images)
    if not _outputs_equal(fast_out, ref_out):
        raise AssertionError(
            "BLAS forward diverged from the int64 reference")

    def run_fast() -> None:
        quantized(images)

    def run_reference() -> None:
        with int64_kernels():
            quantized(images)

    samples = interleaved_rounds(repeats, [run_fast, run_reference],
                                 inner=2)
    fast_rounds, ref_rounds = samples
    # Min over interleaved rounds for each mode (the same estimator
    # run_kernel_latency uses): the least-noise steady-state latency,
    # with round-robined rounds exposing both modes to the same drift.
    speedup = min(ref_rounds) / min(fast_rounds)
    images_per_s = batch_images / min(fast_rounds)
    rows = [
        {"mode": "blas_fast", "batch_images": batch_images,
         "images_per_s": images_per_s,
         "ms_per_batch": min(fast_rounds) * 1e3,
         "speedup_vs_reference": speedup},
        {"mode": "int64_reference", "batch_images": batch_images,
         "images_per_s": batch_images / min(ref_rounds),
         "ms_per_batch": min(ref_rounds) * 1e3,
         "speedup_vs_reference": 1.0},
    ]
    return rows, speedup


FORWARD_PARTS = ("quantize", "gemm", "requantize", "layernorm", "softmax",
                 "gelu", "other")


def run_forward_parts(batch_images: int = 256, repeats: int = 15,
                      seed: int = 11) -> List[Dict]:
    """Median time of each part of one int8 forward of ``batch_images``.

    Wrappers installed here time the integer kernel's passes
    (``QuantizedLinear._quantize_codes_shifted``, ``_forward_shifted``
    minus its ``_requantize``, ``_requantize``) and the forward's vector
    helpers (``_layernorm``, ``_softmax``, and the tanh GELU handed to
    :func:`repro.nn.inference._vit_forward`); ``other`` is the rest of
    the forward (patch extraction, attention products, residual adds,
    Python).  The forward runs on the bare integer kernels, without the
    per-site spans.  Every wrapper is removed before this returns.
    """
    quantized = build_quantized_student(seed)
    config = quantized.model.config
    images = np.random.default_rng(seed + 1).random(
        (batch_images, config.in_channels,
         config.image_size, config.image_size)).astype(np.float32)
    totals: Dict[str, float] = {}

    def timed(part: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[part] = (totals.get(part, 0.0)
                                + time.perf_counter() - start)
        return wrapper

    targets = [(QuantizedLinear, "_quantize_codes_shifted", "quantize"),
               (QuantizedLinear, "_forward_shifted", "gemm"),
               (QuantizedLinear, "_requantize", "requantize"),
               (inference, "_layernorm", "layernorm"),
               (inference, "_softmax", "softmax")]
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in targets]
    gelu = timed("gelu", inference._gelu_tanh)
    samples: Dict[str, List[float]] = {part: [] for part in FORWARD_PARTS}
    try:
        for owner, name, part in targets:
            setattr(owner, name, timed(part, getattr(owner, name)))
        for round_ in range(repeats + 2):
            totals.clear()
            start = time.perf_counter()
            inference._vit_forward(quantized.model, images, quantized.layers,
                                   gelu=gelu)
            total = time.perf_counter() - start
            if round_ < 2:
                continue  # warm-up
            totals["gemm"] -= totals["requantize"]
            totals["other"] = total - sum(totals.values())
            for part in FORWARD_PARTS:
                samples[part].append(totals[part])
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    medians = {part: statistics.median(v) for part, v in samples.items()}
    whole = sum(medians.values())
    return [{"part": part, "batch_images": batch_images,
             "ms": medians[part] * 1e3, "share": medians[part] / whole}
            for part in FORWARD_PARTS]


def _busy_neighbour_child(rows: int, seed: int = 11) -> Dict:
    """The forward alone and beside a spinning Python thread (median
    wall-clock ms of each); runs in the child process."""
    quantized = build_quantized_student(seed)
    config = quantized.model.config
    images = np.random.default_rng(seed + 1).random(
        (rows, config.in_channels,
         config.image_size, config.image_size)).astype(np.float32)

    def median_ms(calls: int) -> float:
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            quantized(images)
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    median_ms(3)  # warm-up
    alone = median_ms(15)
    stop = threading.Event()

    def spin() -> None:
        x = 0
        while not stop.is_set():
            x += 1

    neighbour = threading.Thread(target=spin, daemon=True)
    neighbour.start()
    try:
        busy = median_ms(5)
    finally:
        stop.set()
        neighbour.join()
    return {"rows": rows, "alone_ms": alone, "busy_ms": busy,
            "ratio": busy / alone}


def run_busy_neighbour(rows_list=(16, 256)) -> List[Dict]:
    """:func:`_busy_neighbour_child` per row count, each in a fresh
    child process on one BLAS thread, so the spinner never shares a
    GIL with this process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    rows_out = []
    for rows in rows_list:
        result = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--busy-neighbour-child", str(rows)],
            env=env, capture_output=True, text=True, check=True)
        rows_out.append(json.loads(result.stdout.strip().splitlines()[-1]))
    return rows_out


def _detections_equal(left, right) -> bool:
    def fields(scenes):
        return [[(d.bbox, d.score, d.class_id) for d in detections]
                for detections in scenes]
    return fields(left) == fields(right)


def run_e2e_forward(
    num_scenes: int = 32,
    grid: int = 3,
    repeats: int = 3,
    seed: int = 7,
) -> Tuple[List[Dict], float]:
    """End-to-end quantized detection throughput, BLAS vs reference.

    Streams ``num_scenes`` scenes through the quantized serving pipeline
    (``MissionSession.detect_batch`` — fused multi-scene forwards) twice:
    once on the exact BLAS kernels, once on the int64 kernels.
    Detections at score threshold 0.0 must match **bit for bit** (bbox,
    score, class — asserted before timing).  Returns (rows, speedup):
    one row per execution mode with scenes/sec, and the drift-cancelled
    fast-over-reference speedup (each mode's best steady-state round,
    rounds interleaved).
    """
    pipeline, spec, scenes = build_workload(num_scenes, grid, seed,
                                            configuration="quantized")
    session = pipeline.session(spec)
    detect = lambda: session.detect_batch(scenes)  # noqa: E731

    checker = checking_detector(session)
    fast_out = checker.detect_batch(scenes)
    with int64_kernels():
        ref_out = checker.detect_batch(scenes)
    assert sum(map(len, fast_out)) > 0, "no detections to compare"
    if not _detections_equal(fast_out, ref_out):
        raise AssertionError(
            "BLAS detect path diverged from the int64 reference")

    def run_reference() -> None:
        with int64_kernels():
            detect()

    samples = interleaved_rounds(repeats, [detect, run_reference], inner=2)
    fast_rounds, ref_rounds = samples
    speedup = min(ref_rounds) / min(fast_rounds)
    rows = [
        {"mode": "blas_fast", "scenes": num_scenes,
         "scenes_per_s": num_scenes / min(fast_rounds),
         "ms_per_scene": min(fast_rounds) / num_scenes * 1e3,
         "speedup_vs_reference": speedup},
        {"mode": "int64_reference", "scenes": num_scenes,
         "scenes_per_s": num_scenes / min(ref_rounds),
         "ms_per_scene": min(ref_rounds) / num_scenes * 1e3,
         "speedup_vs_reference": 1.0},
    ]
    return rows, speedup


def run_experiment(smoke: bool = False):
    """Every workload (``parts`` and ``busy_neighbour`` in full mode
    only); returns (tables dict, forward speedup)."""
    registry = get_registry()
    registry.reset()  # isolate this run's counters for the work gate
    if smoke:
        kernel_rows = run_kernel_latency(rows_per_gemm=1024, repeats=2)
        forward_rows, forward_speedup = run_forward_latency(
            batch_images=64, repeats=2)
        detect_rows, _ = run_e2e_forward(num_scenes=12, repeats=2)
        engine_rows = compare_engine_configurations(num_scenes=16, repeats=2)
    else:
        kernel_rows = run_kernel_latency()
        forward_rows, forward_speedup = run_forward_latency()
        detect_rows, _ = run_e2e_forward(num_scenes=32, repeats=3)
        engine_rows = compare_engine_configurations()
    tables = {
        "kernels": kernel_rows,
        "forward": forward_rows,
        "detect": detect_rows,
        "engine": engine_rows,
    }
    if not smoke:
        tables["parts"] = run_forward_parts()
        tables["busy_neighbour"] = run_busy_neighbour()
    return tables, forward_speedup


def quantized_engine_ratio(engine_rows) -> float:
    """Float-over-quantized scenes/sec ratio (small is good)."""
    ratios = [row["ratio_vs_float"] for row in engine_rows
              if row["configuration"] == "quantized"]
    return max(ratios) if ratios else float("inf")


def _print_results(tables) -> None:
    print_table("E12: per-site kernel latency (BLAS vs int64)",
                tables["kernels"])
    print_table("E12: end-to-end quantized forward (acceptance gate)",
                tables["forward"])
    print_table("E12: detect-path throughput (fast vs reference)",
                tables["detect"])
    print_table("E12: engine throughput (float vs quantized)",
                tables["engine"])
    if "parts" in tables:
        print_table("E12: one int8 forward by part", tables["parts"])
        print_table("E12: forward beside a busy Python thread",
                    tables["busy_neighbour"])
    print()
    print(get_registry().report("E12 quantized inference"))


def test_e12_quant_inference(benchmark):
    tables, forward_speedup = benchmark.pedantic(
        run_experiment, kwargs={"smoke": True}, rounds=1, iterations=1)
    _print_results(tables)
    # Bit-identity is asserted inside every workload before timing; here
    # only sanity-check the measurements exist and point the right way.
    assert all(row["speedup"] > 1.0 for row in tables["kernels"])
    assert forward_speedup > 1.0
    assert quantized_engine_ratio(tables["engine"]) < float("inf")


def main():
    if sys.argv[1:2] == ["--busy-neighbour-child"]:
        print(json.dumps(_busy_neighbour_child(int(sys.argv[2]))))
        return 0
    smoke = "--smoke" in sys.argv[1:]
    tables, forward_speedup = run_experiment(smoke=smoke)
    _print_results(tables)
    finalize_benchmark("e12_quant_inference", keep_spans=False, **tables)
    failed = False
    if not smoke and forward_speedup < SPEEDUP_TARGET:
        print(f"WARNING: end-to-end quantized forward speedup "
              f"{forward_speedup:.2f}x below the {SPEEDUP_TARGET:.1f}x target")
        failed = True
    ratio = quantized_engine_ratio(tables["engine"])
    if not smoke and ratio > ENGINE_RATIO_TARGET:
        print(f"WARNING: quantized engine is {ratio:.2f}x slower than the "
              f"float configuration (target: within "
              f"{ENGINE_RATIO_TARGET:.1f}x)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
