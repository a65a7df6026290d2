"""Edge-GPU baseline: a calibrated roofline latency/energy model.

The paper compares its accelerator against a "GPU-based implementation".
The GPU runs the float (fp16) network, so the model lowers the site plan
the compiler lowers to int8 (:func:`repro.nn.inference.site_plan`) minus
the input quantizes the float forward does not run — one plan, two
lowerings:

* every GEMM becomes a kernel whose time is the roofline maximum of
  compute time (peak throughput × an occupancy factor that penalizes the
  tiny batch-1 GEMMs a 32×32-window ViT produces) and fp16 memory time;
* vector ops are partially fused into neighbouring kernels
  (``fusion_factor``); the rest pay a launch each;
* every kernel pays ``kernel_launch_us`` of host-side launch latency —
  the dominant cost for sub-millisecond edge inference, and the reason a
  dedicated accelerator wins at batch 1;
* energy = the GPU board's busy power (idle + active) × latency.

Constants model a Jetson-Nano-class part.  They are calibration inputs,
not measurements — EXPERIMENTS.md discusses sensitivity.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Tuple

from repro.hw.platform import PlatformPower
from repro.hw.vector_unit import default_passes
from repro.nn.inference import PlanOp, site_plan

if TYPE_CHECKING:
    from repro.nn.vit import ViTConfig

_PEAK_FP16_FLOPS = 1.0e12
_DRAM_BYTES_PER_S = 25.6e9
_OCCUPANCY_SATURATION_MACS = 4.0e6  # GEMM size giving 50 % occupancy
_MIN_OCCUPANCY = 0.02
_VECTOR_ELEMS_PER_S = 20.0e9        # elementwise throughput
_FP16_BYTES = 2                     # operands, the input and the logits
_BOARD = PlatformPower.gpu_board()
_BUSY_W = _BOARD.idle_w + _BOARD.active_extra_w


@dataclasses.dataclass(frozen=True)
class GPUConfig:
    """The GPU host: its launch cost and how many vector ops fuse away."""

    name: str = "edge-gpu"
    kernel_launch_us: float = 3.0
    fusion_factor: float = 0.5                # fraction of vector ops fused away

    def __post_init__(self) -> None:
        if not 0.0 <= self.fusion_factor <= 1.0:
            raise ValueError("fusion_factor must be in [0, 1]")

    @staticmethod
    def jetson_class() -> "GPUConfig":
        return GPUConfig()

    @staticmethod
    def fast_host() -> "GPUConfig":
        """Optimistic baseline: CUDA-graph launches, better fusion."""
        return GPUConfig(name="edge-gpu-graphs", kernel_launch_us=1.0,
                         fusion_factor=0.8)


def float_plan(config: "ViTConfig", batch: int = 1) -> Tuple[PlanOp, ...]:
    """The work of the float forward over ``batch`` images: the site
    plan without its quantize ops."""
    return tuple(op for op in site_plan(config, batch)
                 if op.kind != "quantize")


@dataclasses.dataclass
class GPUReport:
    """GPU simulation result (mirrors the accelerator's PerfReport)."""

    config_name: str
    model_name: str
    batch: int
    latency_s: float
    energy_j: float
    kernel_count: int
    time_breakdown_s: Dict[str, float]

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def throughput_inferences_per_s(self) -> float:
        return self.batch / self.latency_s

    @property
    def energy_per_inference_j(self) -> float:
        return self.energy_j / self.batch

    def summary(self) -> str:
        lines = [
            f"{self.model_name} on {self.config_name} (batch={self.batch})",
            f"  latency    : {self.latency_ms:.3f} ms ({self.kernel_count} kernels)",
            f"  throughput : {self.throughput_inferences_per_s:.1f} inf/s",
            f"  energy     : {self.energy_per_inference_j * 1e3:.3f} mJ/inference",
        ]
        for component, seconds in sorted(self.time_breakdown_s.items()):
            lines.append(f"  t[{component:<7}] : {seconds * 1e3:.3f} ms")
        return "\n".join(lines)


def _gemm_time(op: PlanOp) -> float:
    occupancy = max(_MIN_OCCUPANCY,
                    op.macs / (op.macs + _OCCUPANCY_SATURATION_MACS))
    compute = 2.0 * op.macs / (_PEAK_FP16_FLOPS * occupancy)
    fp16_bytes = _FP16_BYTES * (op.m * op.k + op.k * op.n + op.m * op.n)
    return max(compute, fp16_bytes / _DRAM_BYTES_PER_S)


class GPUModel:
    """Price a ViT's float forward on the edge GPU."""

    def __init__(self, config: GPUConfig = GPUConfig()) -> None:
        self.config = config

    def simulate(self, config: "ViTConfig", batch: int = 1) -> GPUReport:
        compute_s = 0.0
        memory_s = 0.0
        kernels = 0.0
        for op in float_plan(config, batch):
            if op.kind == "gemm":
                compute_s += _gemm_time(op)
                kernels += 1.0
            elif op.kind in ("load", "store"):
                memory_s += op.elements * _FP16_BYTES / _DRAM_BYTES_PER_S
            else:
                compute_s += (op.elements * default_passes(op.kind)
                              / _VECTOR_ELEMS_PER_S)
                # A fraction of elementwise ops fuse into a neighbouring
                # kernel's epilogue and pay no launch of their own.
                kernels += 1.0 - self.config.fusion_factor
        launch_s = kernels * self.config.kernel_launch_us * 1e-6
        latency = compute_s + launch_s + memory_s
        return GPUReport(
            config_name=self.config.name,
            model_name=f"{config.depth}x{config.dim}-vit-b{batch}",
            batch=batch,
            latency_s=latency,
            energy_j=_BUSY_W * latency,
            kernel_count=int(round(kernels)),
            time_breakdown_s={
                "compute": compute_s,
                "launch": launch_s,
                "memory": memory_s,
            },
        )
