"""Compiler: quantized ViT → accelerator program.

The work to lower is :func:`repro.nn.inference.site_plan`: the ordered
GEMMs and vector passes of the CPU inference forward, with the shapes
that forward runs (the last encoder block on the CLS row only).  The
simulator therefore prices the work the CPU does, and the compiler
derives no shapes of its own.  Lowering strategy (batch-1 oriented, as
the paper's edge deployment):

1. the integer weights stay pinned in the weight SRAM across inferences
   when :meth:`~repro.hw.memory.MemoryModel.weights_fit` says they fit;
   otherwise the compiler emits one DMA load of them per inference;
2. the plan's input image is DMA-loaded (8-bit pixels), and patches are
   formed on the fly by the activation SRAM's addressing (no cost op);
3. every plan GEMM runs on the systolic array — weight GEMMs at their
   site's weight width, attention's per-head ``QK^T`` and ``AV``
   products at activation precision;
4. LayerNorm, softmax, GELU, residual adds and the per-site input
   requantization run on the vector unit;
5. the fp32 logits are DMA-stored at the end.

The emitted :class:`~repro.hw.isa.Program` is purely shape-based; the
functional equivalence of the integer kernels is established separately
(the simulator can execute the program's GEMM sites through the exact
:class:`~repro.quant.QuantizedLinear` arithmetic).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import (
    DmaDirection,
    DmaOp,
    GemmOp,
    Program,
    VectorKind,
    VectorOp,
)
from repro.hw.memory import MemoryModel
from repro.hw.vector_unit import default_passes
from repro.nn.inference import site_plan
from repro.quant.vit import QuantizedVisionTransformer

# Bytes per element the plan's input load and output store move.
_DMA_BYTES = {"load": 1, "store": 4}


@dataclasses.dataclass
class Compiler:
    """Lower a quantized ViT to a :class:`Program`."""

    config: AcceleratorConfig

    def compile(self, model: QuantizedVisionTransformer,
                batch: int = 1) -> Program:
        cfg = model.config
        plan = site_plan(cfg, batch)
        program = Program(name=f"{cfg.depth}x{cfg.dim}-vit-b{batch}", batch=batch)

        # Packed footprint: sub-byte weights round up to whole bytes per
        # layer (matches QuantizedVisionTransformer.model_size_bytes).
        total_weight_bytes = sum(
            (layer.weight_q.size * layer.weight_bits + 7) // 8
            for layer in model.layers.values()
        )
        if not MemoryModel(self.config).weights_fit(total_weight_bytes):
            program.append(DmaOp("load_weights", DmaDirection.LOAD,
                                 total_weight_bytes))

        act_bits = next(iter(model.layers.values())).act_bits
        for op in plan:
            if op.kind == "gemm":
                weight_bits = (act_bits if op.site is None
                               else model.layers[op.site].weight_bits)
                program.append(GemmOp(
                    name=op.name, m=op.m, k=op.k, n=op.n,
                    weight_bits=weight_bits, act_bits=act_bits, site=op.site,
                ))
            elif op.kind in _DMA_BYTES:
                program.append(DmaOp(op.name, DmaDirection(op.kind),
                                     op.elements * _DMA_BYTES[op.kind]))
            else:
                kind = VectorKind(op.kind)
                program.append(VectorOp(name=op.name, kind=kind,
                                        elements=op.elements,
                                        passes=default_passes(kind)))
        return program


def compile_model(model: QuantizedVisionTransformer,
                  config: Optional[AcceleratorConfig] = None,
                  batch: int = 1) -> Program:
    """One-call convenience wrapper."""
    return Compiler(config or AcceleratorConfig.edge_default()).compile(
        model, batch=batch
    )
