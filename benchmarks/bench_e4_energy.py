"""E4 — Energy comparison against the GPU baseline.

Paper claim: "... and a 40% reduction in energy consumption compared to
GPU-based implementations".

Two accountings are reported (see EXPERIMENTS.md for why both matter):

1. **per-inference core energy** — the accelerator's dynamic + static
   energy for one inference vs. the GPU board's busy power × latency
   for the float forward.  Dedicated int8 silicon wins this by orders
   of magnitude; it is not the paper's ~40 % number.
2. **streaming platform energy** — board-level energy per frame of a
   continuous 30 fps stream, where idle power dominates.  This is the
   accounting under which a "~40 % reduction" is the physically
   consistent reading of the abstract, and the default constants land in
   that regime.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import finalize_benchmark, print_table, quantized_configuration
from repro.hw import (
    AcceleratorConfig,
    Compiler,
    GPUConfig,
    GPUModel,
    Simulator,
    streaming_comparison,
)


def run_experiment(fps_values=(15.0, 30.0, 60.0)):
    accel_config = AcceleratorConfig.edge_default()
    quantized = quantized_configuration().model
    accel = Simulator(accel_config).simulate(
        Compiler(accel_config).compile(quantized))
    gpu = GPUModel(GPUConfig.jetson_class()).simulate(quantized.config)

    core_rows = [{
        "metric": "latency_ms",
        "accelerator": accel.latency_ms,
        "gpu": gpu.latency_ms,
    }, {
        "metric": "core_energy_mj_per_inference",
        "accelerator": accel.energy_per_inference_j * 1e3,
        "gpu": gpu.energy_per_inference_j * 1e3,
    }, {
        "metric": "core_energy_reduction_pct",
        "accelerator": 100.0 * (1.0 - accel.energy_per_inference_j
                                / gpu.energy_per_inference_j),
        "gpu": None,
    }]

    breakdown_rows = [
        {"component": component, "energy_uj": joules * 1e6}
        for component, joules in sorted(accel.energy_breakdown_j.items())
    ]

    stream_rows = []
    for fps in fps_values:
        result = streaming_comparison(accel.latency_s, gpu.latency_s, fps=fps)
        stream_rows.append({
            "fps": fps,
            "speedup": result["speedup"],
            "accel_mj_per_frame": result["accel_energy_per_frame_mj"],
            "gpu_mj_per_frame": result["gpu_energy_per_frame_mj"],
            "energy_reduction_pct": result["energy_reduction_pct"],
        })
    return core_rows, breakdown_rows, stream_rows


def test_e4_energy(benchmark):
    core_rows, breakdown_rows, stream_rows = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)
    print_table("E4: core energy per inference", core_rows)
    print_table("E4: accelerator energy breakdown", breakdown_rows)
    print_table("E4: streaming platform energy", stream_rows)
    # Direction: accelerator saves energy under both accountings.
    core_reduction = core_rows[2]["accelerator"]
    assert core_reduction > 50.0
    at_30fps = next(r for r in stream_rows if r["fps"] == 30.0)
    # The paper's ~40 % platform-level regime.
    assert 20.0 < at_30fps["energy_reduction_pct"] < 70.0


def main():
    core_rows, breakdown_rows, stream_rows = run_experiment()
    print_table("E4: core energy per inference", core_rows)
    print_table("E4: accelerator energy breakdown", breakdown_rows)
    print_table("E4: streaming platform energy", stream_rows)
    finalize_benchmark("e4_energy", core_rows,
                       breakdown=breakdown_rows, streaming=stream_rows)


if __name__ == "__main__":
    sys.exit(main())
