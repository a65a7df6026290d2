"""Functional operations on :class:`~repro.tensor.Tensor`.

Everything here is differentiable unless documented otherwise.  Operations
are written against the public ``Tensor.from_op`` / ``Tensor._send``
interface so the autograd tape stays in one place.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special as _special

from repro.tensor.tensor import (
    DEFAULT_DTYPE,
    Scalar,
    Tensor,
    TensorLike,
    _ensure_tensor,
)

_SQRT_2 = float(np.sqrt(2.0))
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


# ----------------------------------------------------------------------
# constructors (leaves)
# ----------------------------------------------------------------------
def zeros(*shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def ones(*shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, dtype=dtype)


def full(shape, fill_value: Scalar, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=dtype), dtype=dtype)


def arange(*args, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.arange(*args), dtype=dtype)


def randn(*shape, rng: Optional[np.random.Generator] = None, scale: float = 1.0,
          requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    """Standard-normal tensor; pass an explicit generator for reproducibility."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad, dtype=dtype)


def rand(*shape, rng: Optional[np.random.Generator] = None,
         requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()
    return Tensor(rng.random(shape), requires_grad=requires_grad, dtype=dtype)


def one_hot(indices: np.ndarray, num_classes: int, dtype=DEFAULT_DTYPE) -> Tensor:
    """One-hot encode integer ``indices`` (not differentiable)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return Tensor(out, dtype=dtype)


def dropout_mask(shape, keep_prob: float, rng: Optional[np.random.Generator] = None,
                 dtype=DEFAULT_DTYPE) -> Tensor:
    """Inverted-dropout mask: Bernoulli(keep_prob)/keep_prob, not differentiable."""
    rng = rng or np.random.default_rng()
    mask = (rng.random(shape) < keep_prob).astype(dtype) / dtype(keep_prob)
    return Tensor(mask, dtype=dtype)


# ----------------------------------------------------------------------
# elementwise
# ----------------------------------------------------------------------
def exp(x: Tensor) -> Tensor:
    data = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * data)

    out = Tensor.from_op(data, (x,), backward)
    return out


def log(x: Tensor) -> Tensor:
    data = np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad / x.data)

    out = Tensor.from_op(data, (x,), backward)
    return out


def sqrt(x: Tensor) -> Tensor:
    data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * 0.5 / data)

    out = Tensor.from_op(data, (x,), backward)
    return out


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * (1.0 - data * data))

    out = Tensor.from_op(data, (x,), backward)
    return out


def sigmoid(x: Tensor) -> Tensor:
    data = _special.expit(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * data * (1.0 - data))

    out = Tensor.from_op(data.astype(x.dtype, copy=False), (x,), backward)
    return out


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * (x.data > 0.0))

    out = Tensor.from_op(data, (x,), backward)
    return out


def erf(x: Tensor) -> Tensor:
    data = _special.erf(x.data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad * (2.0 / np.sqrt(np.pi)) * np.exp(-x.data ** 2))

    out = Tensor.from_op(data.astype(x.dtype, copy=False), (x,), backward)
    return out


def gelu(x: Tensor, approximate: bool = False) -> Tensor:
    """Gaussian Error Linear Unit.

    ``approximate=True`` uses the tanh approximation, which is what the
    hardware vector unit implements (see :mod:`repro.hw.vector_unit`);
    the exact erf form is the training default.
    """
    if approximate:
        data_x = x.data
        inner = _SQRT_2_OVER_PI * (data_x + 0.044715 * data_x ** 3)
        t = np.tanh(inner)
        data = 0.5 * data_x * (1.0 + t)

        def backward(grad: np.ndarray) -> None:
            dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x.data ** 2)
            dt = (1.0 - t * t) * dinner
            out._send(x, grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

        out = Tensor.from_op(data.astype(x.dtype, copy=False), (x,), backward)
        return out

    cdf = 0.5 * (1.0 + _special.erf(x.data / _SQRT_2))
    data = x.data * cdf

    def backward(grad: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data ** 2) / np.sqrt(2.0 * np.pi)
        out._send(x, grad * (cdf + x.data * pdf))

    out = Tensor.from_op(data.astype(x.dtype, copy=False), (x,), backward)
    return out


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed through inside the interval."""
    data = np.clip(x.data, low, high)

    def backward(grad: np.ndarray) -> None:
        inside = (x.data >= low) & (x.data <= high)
        out._send(x, grad * inside)

    out = Tensor.from_op(data, (x,), backward)
    return out


def where(condition: Union[np.ndarray, Tensor], a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise select; ``condition`` is treated as constant."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a_t = _ensure_tensor(a)
    b_t = _ensure_tensor(b)
    data = np.where(cond, a_t.data, b_t.data)

    def backward(grad: np.ndarray) -> None:
        from repro.tensor.tensor import _unbroadcast

        out._send(a_t, _unbroadcast(grad * cond, a_t.shape))
        out._send(b_t, _unbroadcast(grad * ~cond, b_t.shape))

    out = Tensor.from_op(data.astype(a_t.dtype, copy=False), (a_t, b_t), backward)
    return out


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    a_t = _ensure_tensor(a)
    b_t = _ensure_tensor(b)
    return where(a_t.data >= b_t.data, a_t, b_t)


def minimum(a: TensorLike, b: TensorLike) -> Tensor:
    a_t = _ensure_tensor(a)
    b_t = _ensure_tensor(b)
    return where(a_t.data <= b_t.data, a_t, b_t)


# ----------------------------------------------------------------------
# normalizing ops
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp_x = np.exp(shifted)
    data = exp_x / exp_x.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * data).sum(axis=axis, keepdims=True)
        out._send(x, data * (grad - dot))

    out = Tensor.from_op(data.astype(x.dtype, copy=False), (x,), backward)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_sum
    soft = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        out._send(x, grad - soft * grad.sum(axis=axis, keepdims=True))

    out = Tensor.from_op(data.astype(x.dtype, copy=False), (x,), backward)
    return out


# ----------------------------------------------------------------------
# joining
# ----------------------------------------------------------------------
def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [(_ensure_tensor(t)) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            out._send(t, grad[tuple(index)])

    out = Tensor.from_op(data, tuple(tensors), backward)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [(_ensure_tensor(t)) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            out._send(t, np.squeeze(part, axis=axis))

    out = Tensor.from_op(data, tuple(tensors), backward)
    return out


def embedding(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (vocab, dim) at integer ``indices``."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, idx, grad)
        out._send(table, full)

    out = Tensor.from_op(data, (table,), backward)
    return out
