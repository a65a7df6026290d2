"""SIMD vector unit: timing model and the GELU lookup table.

The vector unit handles everything the systolic array does not: LayerNorm
(two reduction passes + normalize), softmax (max, exp, normalize), the
GELU activation via a piecewise-linear lookup table, residual adds, and
(de)quantization.  Throughput is ``vector_lanes`` elements per cycle per
pass.

The GELU LUT is implemented functionally so the approximation error is a
measurable quantity (tests assert < 1e-2 absolute error inside the table
range), mirroring how a real design would validate its special-function
unit.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import VectorKind, VectorOp

GELU_LUT_RANGE: Tuple[float, float] = (-8.0, 8.0)
_GELU_LUT_SIZE = 512

# Precompute the table once at import: a real design burns this into ROM.
_LUT_X = np.linspace(GELU_LUT_RANGE[0], GELU_LUT_RANGE[1], _GELU_LUT_SIZE)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LUT_Y = 0.5 * _LUT_X * (1.0 + np.tanh(_SQRT_2_OVER_PI * (_LUT_X + 0.044715 * _LUT_X ** 3)))


def gelu_lut(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear GELU as the hardware special-function unit computes it.

    Values outside the table range saturate to the identity (positive) or
    zero (negative), matching GELU's asymptotes.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.interp(x, _LUT_X, _LUT_Y)
    out = np.where(x > GELU_LUT_RANGE[1], x, out)
    out = np.where(x < GELU_LUT_RANGE[0], 0.0, out)
    return out.astype(np.float32)


# Pass counts per op kind: how many times the data streams through lanes.
_PASSES = {
    VectorKind.LAYERNORM: 3,   # mean, variance, normalize+affine
    VectorKind.SOFTMAX: 3,     # max, exp+sum, divide
    VectorKind.GELU: 1,        # LUT lookup
    VectorKind.ADD: 1,
    VectorKind.QUANTIZE: 1,
    VectorKind.DEQUANTIZE: 1,
}


def default_passes(kind: Union[VectorKind, str]) -> int:
    """Passes for a :class:`VectorKind` or its site-plan name."""
    return _PASSES[VectorKind(kind)]


class VectorUnit:
    """Timing model: cycles for a vector op."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    def op_cycles(self, op: VectorOp) -> int:
        lanes = self.config.vector_lanes
        per_pass = math.ceil(op.elements / lanes)
        # Small fixed pipeline start cost per pass.
        return op.passes * (per_pass + 4)
