"""A cascade escalation's price in fast-path units: each device runs the
network it deploys — the generalist's compiled int8 program on the edge
accelerator, the float specialist (task head included) on the GPU."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.hw.compiler import compile_model
from repro.hw.config import AcceleratorConfig
from repro.hw.gpu import GPUConfig, GPUModel
from repro.hw.simulator import Simulator

if TYPE_CHECKING:
    from repro.nn.vit import ViTConfig
    from repro.quant.vit import QuantizedVisionTransformer


def escalation_cost(fast: "QuantizedVisionTransformer",
                    specialist: "ViTConfig") -> Dict[str, float]:
    """Batch-1 latencies of the fast path and of an escalation, and
    their ratio (``cost_ratio``)."""
    config = AcceleratorConfig.edge_default()
    accel = Simulator(config).simulate(compile_model(fast, config))
    gpu = GPUModel(GPUConfig.jetson_class()).simulate(specialist)
    return {"accel_ms": accel.latency_ms, "gpu_ms": gpu.latency_ms,
            "cost_ratio": gpu.latency_s / accel.latency_s}
