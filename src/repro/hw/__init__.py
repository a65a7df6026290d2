"""Cycle-level accelerator simulator, compiler, and GPU baseline.

The paper reports a 3.5× speedup and 40% energy reduction for its
hardware acceleration circuit versus a GPU implementation.  Those numbers
come from a pre-silicon performance/energy model — the standard DAC
methodology — and this package rebuilds that model:

* :class:`AcceleratorConfig` — the microarchitecture: a weight-stationary
  systolic GEMM array, a SIMD vector unit (LayerNorm / softmax / GELU
  LUT), double-buffered SRAM scratchpads, and a DRAM channel;
* :class:`SystolicArray` — functional *and* timing model of the GEMM
  array (the functional path bit-matches :class:`repro.quant.QuantizedLinear`);
* :class:`Compiler` — lowers a :class:`~repro.quant.QuantizedVisionTransformer`
  into a program of GEMM / vector / DMA operations;
* :class:`Simulator` — walks a program once, placing every op on one
  timeline, and reports latency, utilization, per-component energy and
  the per-op placement (:meth:`PerfReport.gantt`);
* :class:`GPUModel` — a calibrated roofline model of an edge GPU running
  the float network (:func:`float_plan`), the paper's comparison baseline;
* :func:`escalation_cost` — a cascade escalation's price in fast-path units.
"""

from repro.hw.config import AcceleratorConfig, EnergyTable
from repro.hw.isa import GemmOp, VectorOp, DmaOp, VectorKind, DmaDirection, Program
from repro.hw.systolic import SystolicArray, GemmTiming
from repro.hw.vector_unit import VectorUnit, gelu_lut, GELU_LUT_RANGE
from repro.hw.memory import MemoryModel, DmaTiming
from repro.hw.compiler import Compiler, compile_model
from repro.hw.simulator import Simulator, PerfReport, OpRecord
from repro.hw.gpu import GPUModel, GPUConfig, float_plan
from repro.hw.escalation import escalation_cost
from repro.hw.platform import PlatformPower, energy_per_frame_j, streaming_comparison
from repro.hw.area import AreaReport, estimate_area, node_scale
from repro.hw.design_space import DesignPoint, pareto_front, sweep

__all__ = [
    "AcceleratorConfig",
    "EnergyTable",
    "GemmOp",
    "VectorOp",
    "DmaOp",
    "VectorKind",
    "DmaDirection",
    "Program",
    "SystolicArray",
    "GemmTiming",
    "VectorUnit",
    "gelu_lut",
    "GELU_LUT_RANGE",
    "MemoryModel",
    "DmaTiming",
    "Compiler",
    "compile_model",
    "Simulator",
    "PerfReport",
    "OpRecord",
    "GPUModel",
    "GPUConfig",
    "float_plan",
    "escalation_cost",
    "PlatformPower",
    "energy_per_frame_j",
    "streaming_comparison",
    "AreaReport",
    "estimate_area",
    "node_scale",
    "DesignPoint",
    "pareto_front",
    "sweep",
]
