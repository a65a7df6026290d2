"""Quantization parameter math.

Affine quantization: ``q = clip(round(x / scale) + zero_point, qmin, qmax)``
and ``x̂ = (q - zero_point) · scale``.  Symmetric quantization pins
``zero_point = 0`` and a symmetric range; per-channel quantization carries
one (scale, zero_point) pair per output channel along ``axis``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

import numpy as np


@dataclasses.dataclass(frozen=True)
class QuantSpec:
    """How to quantize: bit width, symmetry, granularity."""

    bits: int = 8
    symmetric: bool = True
    per_channel: bool = False
    axis: int = 0  # channel axis when per_channel

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {self.bits}")

    @property
    def qmin(self) -> int:
        if self.symmetric:
            return -(2 ** (self.bits - 1)) + 1  # symmetric: keep range balanced
        return 0

    @property
    def qmax(self) -> int:
        if self.symmetric:
            return 2 ** (self.bits - 1) - 1
        return 2 ** self.bits - 1

    def storage_dtype(self):
        """Smallest numpy integer dtype that holds the quantized values."""
        if self.bits <= 8:
            return np.int8 if self.symmetric else np.uint8
        return np.int16 if self.symmetric else np.uint16


@dataclasses.dataclass(frozen=True)
class QuantParams:
    """Computed (scale, zero_point) pair(s) for a given spec.

    ``scale``/``zero_point`` are scalars for per-tensor quantization and
    1-D arrays of length ``num_channels`` for per-channel.
    """

    spec: QuantSpec
    scale: np.ndarray       # float64, shape () or (C,)
    zero_point: np.ndarray  # int64, same shape as scale

    def __post_init__(self) -> None:
        scale = np.asarray(self.scale, dtype=np.float64)
        if (scale <= 0).any():
            raise ValueError("scales must be strictly positive")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(
            self, "zero_point", np.asarray(self.zero_point, dtype=np.int64)
        )

    def _broadcast(self, array_ndim: int) -> Tuple[np.ndarray, np.ndarray]:
        """Reshape scale/zp so they broadcast along ``spec.axis``."""
        if not self.spec.per_channel:
            return self.scale, self.zero_point
        shape = [1] * array_ndim
        shape[self.spec.axis] = -1
        return self.scale.reshape(shape), self.zero_point.reshape(shape)


def compute_qparams(
    min_val: Union[float, np.ndarray],
    max_val: Union[float, np.ndarray],
    spec: QuantSpec,
    eps: float = 1e-12,
) -> QuantParams:
    """Derive (scale, zero_point) from observed min/max statistics."""
    min_arr = np.minimum(np.asarray(min_val, dtype=np.float64), 0.0)
    max_arr = np.maximum(np.asarray(max_val, dtype=np.float64), 0.0)
    if spec.symmetric:
        bound = np.maximum(np.abs(min_arr), np.abs(max_arr))
        scale = np.maximum(bound / spec.qmax, eps)
        zero_point = np.zeros_like(scale, dtype=np.int64)
    else:
        span = np.maximum(max_arr - min_arr, eps)
        scale = span / (spec.qmax - spec.qmin)
        zero_point = np.clip(
            np.round(spec.qmin - min_arr / scale), spec.qmin, spec.qmax
        ).astype(np.int64)
    return QuantParams(spec=spec, scale=scale, zero_point=zero_point)


def quantize_array(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Real → integer codes (stored in the spec's storage dtype)."""
    spec = params.spec
    scale, zero_point = params._broadcast(np.ndim(x))
    q = np.round(np.asarray(x, dtype=np.float64) / scale) + zero_point
    q = np.clip(q, spec.qmin, spec.qmax)
    return q.astype(spec.storage_dtype())


def dequantize_array(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Integer codes → real approximation."""
    scale, zero_point = params._broadcast(np.ndim(q))
    return ((q.astype(np.int64) - zero_point) * scale).astype(np.float32)


def fake_quantize_array(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize–dequantize round trip (the PTQ/QAT simulation primitive)."""
    return dequantize_array(quantize_array(x, params), params)


def quantization_error(x: np.ndarray, params: QuantParams) -> float:
    """Mean squared reconstruction error of fake-quantizing ``x``."""
    return float(np.mean((x - fake_quantize_array(x, params)) ** 2))


def channel_minmax(x: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel min/max reducing over every axis except ``axis``."""
    reduce_axes = tuple(i for i in range(x.ndim) if i != axis)
    return x.min(axis=reduce_axes), x.max(axis=reduce_axes)
