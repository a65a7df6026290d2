"""E3 — Accelerator speedup over the GPU baseline.

Paper claim: "the hardware-accelerated iTask system achieves a 3.5×
speedup ... compared to GPU-based implementations".

The quantized student is compiled to the accelerator and simulated at
batch 1 (the edge streaming case); its float forward, the same site plan
without the int8 quantizes, runs through the calibrated edge-GPU
roofline model (both a conservative and an optimistic host).  A
model-size sweep shows where the advantage comes from: tiny batch-1
GEMMs leave the GPU launch-bound while the systolic array keeps its
utilization.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np

from benchmarks.common import (
    artifact_cache_counters,
    finalize_benchmark,
    print_table,
    quantized_configuration,
)
from repro.data import attribute_head_spec, build_window_dataset
from repro.data.datasets import num_classes
from repro.hw import (
    AcceleratorConfig,
    Compiler,
    GPUConfig,
    GPUModel,
    Simulator,
)
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import get_registry
from repro.quant import quantize_vit


def _quantize_fresh(config: ViTConfig):
    """Quantize an untrained model of the given size (timing only)."""
    model = VisionTransformer(config, rng=np.random.default_rng(0))
    calibration = np.random.default_rng(1).random(
        (16, 3, config.image_size, config.image_size)).astype(np.float32)
    return quantize_vit(model, calibration)


def run_experiment():
    accel_config = AcceleratorConfig.edge_default()
    simulator = Simulator(accel_config)
    gpu = GPUModel(GPUConfig.jetson_class())
    gpu_fast = GPUModel(GPUConfig.fast_host())

    workloads = [("student-int8 (deployed)", quantized_configuration().model)]
    for label, config in [
        ("tiny", ViTConfig(dim=32, depth=1, num_heads=2,
                           num_classes=num_classes(),
                           attribute_heads=attribute_head_spec())),
        ("teacher-sized", ViTConfig.teacher(num_classes(), attribute_head_spec())),
    ]:
        workloads.append((label, _quantize_fresh(config)))

    rows = []
    for label, quantized in workloads:
        accel = simulator.simulate(Compiler(accel_config).compile(quantized))
        slow = gpu.simulate(quantized.config)
        fast = gpu_fast.simulate(quantized.config)
        rows.append({
            "model": label,
            "accel_ms": accel.latency_ms,
            "gpu_ms": slow.latency_ms,
            "gpu_graphs_ms": fast.latency_ms,
            "speedup_vs_gpu": slow.latency_s / accel.latency_s,
            "speedup_vs_graphs": fast.latency_s / accel.latency_s,
            "accel_util_pct": accel.array_utilization * 100.0,
        })
    return rows


def test_e3_speedup(benchmark):
    get_registry().reset()
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table("E3: accelerator vs GPU latency (batch 1)", rows)
    print(get_registry().report("E3 simulator stages"))
    deployed = rows[0]
    # Paper reports 3.5x; our calibrated models should land in the same
    # regime (accelerator clearly ahead, single-digit factor vs the
    # optimized-host baseline).
    assert deployed["speedup_vs_gpu"] > 2.0
    assert 1.5 < deployed["speedup_vs_graphs"] < 20.0


def test_e3_accelerator_inference_kernel(benchmark):
    """Time the actual integer-inference software kernel (not the model),
    so pytest-benchmark has a real hot loop to characterize."""
    quantized = quantized_configuration().model
    images = np.random.default_rng(0).random((1, 3, 32, 32)).astype(np.float32)
    benchmark(lambda: quantized(images))


def main():
    get_registry().reset()
    rows = run_experiment()
    print_table("E3: accelerator vs GPU latency (batch 1)", rows)
    print(get_registry().report("E3 simulator stages"))
    print(f"artifact cache: {artifact_cache_counters()}")
    finalize_benchmark("e3_speedup", rows)


if __name__ == "__main__":
    sys.exit(main())
