"""Integer linear layer: the kernel the accelerator executes.

``QuantizedLinear`` stores int weights (per-output-channel symmetric by
default) and quantizes activations on the fly with frozen per-tensor
parameters.  The matmul semantics are integer arithmetic with an int32
accumulator — exactly what the systolic array in :mod:`repro.hw` does —
followed by a float requantization:

    y[n, c] = s_x · s_w[c] · ( Σ_k x_q[n,k] · W_q[c,k]  −  z_x · Σ_k W_q[c,k] ) + b[c]

The zero-point correction term ``z_x · Σ_k W_q`` is precomputed per
channel, as a deployment compiler would.

Execution strategy — exact BLAS-backed GEMMs
--------------------------------------------
numpy integer matmul never dispatches to BLAS: ``int64 @ int64`` runs a
naive inner loop an order of magnitude slower than the float path.  But
quantized codes are *small* integers (|q| ≤ 2¹⁶ for every spec this
repo supports), so the int32 accumulator can be computed **exactly** in
float arithmetic: every product and every partial sum is an integer of
magnitude ≤ K · max|x_q| · max|W_q|, and IEEE floats represent all
integers up to their mantissa capacity (2⁵³ for float64, 2²⁴ for
float32) without rounding.  At construction the layer

* asserts ``2 · K · amax · wmax < 2^53`` from the spec (raising
  ``ValueError`` when a spec/shape combination could overflow the
  float64 accumulator — it cannot for any bit width ≤ 16 at realistic
  K), and
* prepacks the transposed weight as a contiguous float buffer —
  float32 when ``K · amax · wmax ≤ 2^24`` makes the narrower GEMM exact
  too (about 3x faster again), float64 otherwise.

``forward_integer`` and ``__call__`` then run one BLAS GEMM over the
zero-point-shifted float codes and requantize with constants fused at
construction.  The kernel keeps no per-call state: codes, accumulator
and output are allocated on every call, so a returned output is never
overwritten by a later call, threads share nothing but the frozen
constants, and a forward's working memory is freed when it returns.
Every constant is a read-only copy made at construction.

Vector passes
-------------
Per call, in order, over chunks of about ``_CHUNK_ELEMS`` elements:

1. quantize — ``x / s_x`` into a float64 block, ``rint`` cast-stored as
   the GEMM dtype, clipped in place to the shifted code range (three
   calls per chunk of ``_CHUNK_ELEMS // in_features`` rows);
2. one GEMM over all rows;
3. requantize — the accumulator chunk cast-copied into a float64 block,
   ``*=`` the scale rows, ``+=`` the bias rows, cast-copied into the
   float32 output: four calls per chunk (three without a bias, or on a
   float64 accumulator), none mixing dtypes, so none runs numpy's
   buffered casting loop.

The requant scale ``s_x · s_w`` and the bias are tiled at construction
into ``R0 = _ROW_ELEMS // out_features`` identical rows, and the row
count is zero-padded up to a multiple of ``R0`` (kept as is when it is
at most ``R0``), so each requantize chunk — a whole number of ``R0``
rows — is applied through a ``(rows / R0, R0, n)`` view in one
~8K-element inner loop per block of rows, not one short per-channel
broadcast per row.  Padded rows are zero codes, so their accumulators
are exact zeros, and the caller's rows are a leading slice of the
output.  Every pass is elementwise in the same float64 operation order
as the reference, so neither the padding nor the chunking changes a
bit; what they change is the number of numpy calls, and each call over
more than a few hundred elements hands the GIL back.

The original int64 matmul is kept verbatim as
:func:`repro.reference.forward_integer_reference` — the bit-exactness
oracle that property tests assert against (run a whole model on it
under :func:`repro.reference.int64_kernels`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.quant.qparams import (
    QuantParams,
    QuantSpec,
    channel_minmax,
    compute_qparams,
    quantize_array,
)

# Largest integer magnitudes exactly accumulable without rounding.
_F64_EXACT_BOUND = 2 ** 53
_F32_EXACT_BOUND = 2 ** 24

# Elements per block of constant rows: the requant scale and bias are
# tiled at construction into R0 = _ROW_ELEMS // out_features identical
# rows (64 KiB of float64 each), which a (rows/R0, R0, n) view of an
# R0-aligned chunk reads in one coalesced inner loop per R0 rows.
_ROW_ELEMS = 8 * 1024

# Elements per chunk of the quantize and requantize passes (pass order
# and chunk rule in the module docstring): the float64 intermediate of
# a chunk is a 1 MiB block that stays in L2 instead of a full-batch
# float64 array round-tripping through memory, and a chunk this large
# keeps the numpy calls per site -- each one a GIL hand-back -- few.
# A requantize chunk is rounded down to whole R0 blocks (at least one).
# Chunking never changes a bit: every pass is elementwise.
_CHUNK_ELEMS = 128 * 1024


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy: the kernel's constants are its own."""
    a = np.array(a, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


class QuantizedLinear:
    """Frozen, inference-only quantized affine layer.

    Not a :class:`~repro.nn.Module` — it owns no trainable parameters and
    operates on plain numpy arrays (the quantized model never
    backpropagates).  Every constant it computes with is a read-only
    copy made at construction, so a caller's later write to the arrays
    it was built from cannot change it.
    """

    def __init__(
        self,
        weight_q: np.ndarray,
        weight_params: QuantParams,
        act_params: QuantParams,
        bias: Optional[np.ndarray],
    ) -> None:
        if weight_q.ndim != 2:
            raise ValueError("weight_q must be (out_features, in_features)")
        if weight_params.spec.per_channel and weight_params.scale.shape[0] != weight_q.shape[0]:
            raise ValueError("per-channel scale count must equal out_features")
        if act_params.spec.per_channel:
            raise ValueError("activation quantization must be per-tensor")
        # Codes live in the spec's storage dtype (int8/uint8/int16/uint16),
        # the footprint a deployment actually ships.
        self.weight_q = np.ascontiguousarray(
            weight_q.astype(weight_params.spec.storage_dtype()))
        self.weight_q.flags.writeable = False
        self.weight_params = weight_params
        self.act_params = act_params
        self.bias = None if bias is None else _frozen(bias)
        # Precomputed requantization constants.
        self._weight_scale = _frozen(weight_params.scale).reshape(-1)
        self._act_scale = float(np.asarray(act_params.scale).reshape(()))
        self._act_zero = int(np.asarray(act_params.zero_point).reshape(()))
        # y = (acc − z_x · Σ_k W_q) · (s_x · s_w) + b, with the
        # subtraction folded into zero-point-shifted codes (below).
        requant_scale = self._act_scale * self._weight_scale
        n = self.out_features
        rows = max(1, _ROW_ELEMS // max(1, n))
        self._scale_rows = _frozen(np.broadcast_to(requant_scale, (rows, n)))
        self._bias_rows = (None if self.bias is None else
                           _frozen(np.broadcast_to(self.bias, (rows, n))))
        # ---- exactness bound + prepacked BLAS weight -----------------
        k = self.weight_q.shape[1]
        act_spec = act_params.spec
        amax = max(abs(act_spec.qmin), abs(act_spec.qmax), abs(self._act_zero))
        # The hot path runs the GEMM over zero-point-*shifted* codes
        # (q − z_x), so the accumulator directly equals the corrected sum
        # acc − z_x·ΣW — no requant subtraction pass needed.  Shifted
        # codes can be larger in magnitude than raw ones, so the bound
        # covers both entry points.
        self._shift_qmin = float(act_spec.qmin - self._act_zero)
        self._shift_qmax = float(act_spec.qmax - self._act_zero)
        amax = max(amax, abs(int(self._shift_qmin)), abs(int(self._shift_qmax)))
        wmax = int(np.abs(self.weight_q.astype(np.int64)).max()) if self.weight_q.size else 0
        # GEMM partial sums are ≤ K·amax·wmax; the zero-point correction
        # subtraction doubles the representable range needed.
        if 2 * k * amax * wmax >= _F64_EXACT_BOUND:
            raise ValueError(
                f"quantized GEMM not exactly representable in float64: "
                f"2·K·amax·wmax = 2·{k}·{amax}·{wmax} >= 2^53; "
                f"reduce bit width or in_features")
        self._gemm_dtype = (
            np.float32 if k * amax * wmax <= _F32_EXACT_BOUND else np.float64)
        self._packed_weight = np.ascontiguousarray(
            self.weight_q.T.astype(self._gemm_dtype))
        self._packed_weight.flags.writeable = False

    # ------------------------------------------------------------------
    @property
    def out_features(self) -> int:
        return self.weight_q.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight_q.shape[1]

    @property
    def weight_bits(self) -> int:
        return self.weight_params.spec.bits

    @property
    def act_bits(self) -> int:
        return self.act_params.spec.bits

    def dequantized_weight(self) -> np.ndarray:
        """Float reconstruction of the stored weights (for error analysis)."""
        scale = self._weight_scale
        if self.weight_params.spec.per_channel:
            return (self.weight_q * scale[:, None]).astype(np.float32)
        return (self.weight_q * scale).astype(np.float32)

    # ------------------------------------------------------------------
    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Activations → integer codes with the frozen act parameters."""
        return quantize_array(x, self.act_params)

    def _padded_rows(self, rows: int) -> int:
        """``rows`` rounded up to a whole number of constant rows (kept
        as is when it fits in one): the requantize then runs every chunk
        through the same ``(rows/R0, R0, n)`` view."""
        r0 = self._scale_rows.shape[0]
        return rows if rows <= r0 else -(-rows // r0) * r0

    def _quantize_codes_shifted(self, x: np.ndarray) -> np.ndarray:
        """Activations → zero-point-shifted codes (q − z_x) in the GEMM's
        float dtype, zero-padded to :meth:`_padded_rows` rows.

        Same float64 round/clip arithmetic as :func:`quantize_array`
        (codes equal :meth:`quantize_input` minus ``z_x``, bit for bit),
        but with the zero-point folded into the clip bounds so the hot
        path needs no add pass, no integer-storage round trip — and the
        GEMM over shifted codes needs no correction subtraction at all.
        """
        m, k = x.shape
        codes = np.empty((self._padded_rows(m), k), dtype=self._gemm_dtype)
        codes[m:] = 0
        step = max(1, _CHUNK_ELEMS // max(1, k))
        # A float32 GEMM takes its codes through a float64 block: rounded
        # codes within the clip range are integers ≤ 2^24, exact in
        # float32, and values outside round to something still outside,
        # which the clip maps to the same bound either way.  So the
        # float32 cast fuses into the rint pass, while the float64
        # quotient only ever lives in one cache-resident chunk.
        scratch = (None if self._gemm_dtype is np.float64 else
                   np.empty((min(m, step), k), dtype=np.float64))
        for start in range(0, m, step):
            stop = min(start + step, m)
            rounded = codes[start:stop]
            block = rounded if scratch is None else scratch[: stop - start]
            np.divide(x[start:stop], self._act_scale, out=block,
                      dtype=np.float64)
            np.rint(block, out=rounded, casting="same_kind")
            np.clip(rounded, self._shift_qmin, self._shift_qmax,
                    out=rounded)
        return codes

    def _forward_shifted(self, q: np.ndarray) -> np.ndarray:
        """GEMM + requantization over zero-point-shifted float codes
        (row count from :meth:`_padded_rows`).

        The accumulator over ``q − z_x`` is exactly the corrected integer
        ``acc − z_x·Σ_k W_q`` (every partial sum is an integer within the
        construction-time bound, hence exact in the GEMM dtype, whatever
        the row count), so the requantized result is bit-identical to the
        reference.
        """
        return self._requantize(np.matmul(q, self._packed_weight))

    def _requantize(self, acc: np.ndarray) -> np.ndarray:
        """float32 ``acc · (s_x · s_w) + b`` over an exact integer
        accumulator: the reference's astype(float64) · scale + bias →
        float32 chain, op for op.

        Each chunk is cast-copied into a float64 block, scaled and
        biased in place against the constant rows, and cast-copied into
        the float32 output: no pass mixes dtypes, so none runs numpy's
        buffered casting loop.
        """
        rows, n = acc.shape
        out = np.empty((rows, n), dtype=np.float32)
        if rows == 0:
            return out
        r0 = min(rows, self._scale_rows.shape[0])
        scale = self._scale_rows[:r0]
        bias = None if self._bias_rows is None else self._bias_rows[:r0]
        step = max(1, _CHUNK_ELEMS // (r0 * n)) * r0
        scratch = (None if acc.dtype == np.float64 else
                   np.empty((min(rows, step), n), dtype=np.float64))
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            if scratch is None:
                block = acc[start:stop]
            else:
                block = scratch[: stop - start]
                np.copyto(block, acc[start:stop])
            blocks = block.reshape(-1, r0, n)
            blocks *= scale
            if bias is not None:
                blocks += bias
            np.copyto(out[start:stop], block, casting="same_kind")
        return out

    def forward_integer(self, x_q: np.ndarray) -> np.ndarray:
        """Integer GEMM + requantization from pre-quantized activations.

        ``x_q`` has shape (..., in_features), values already clipped to
        the activation grid.  Runs the exact BLAS-backed kernel.
        """
        # Zero-point-shifted codes are exact in the GEMM dtype (the
        # construction-time bound covers them): the same kernel as
        # ``__call__`` from here on.
        flat = x_q.reshape(-1, x_q.shape[-1])
        m = flat.shape[0]
        shifted = np.empty((self._padded_rows(m), flat.shape[1]),
                           dtype=self._gemm_dtype)
        np.subtract(flat, self._act_zero, out=shifted[:m],
                    dtype=self._gemm_dtype)
        shifted[m:] = 0
        y = self._forward_shifted(shifted)[:m]
        return y.reshape(*x_q.shape[:-1], self.out_features)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Float in → float out, with integer compute in the middle."""
        original_shape = x.shape
        flat = x.reshape(-1, original_shape[-1])
        y = self._forward_shifted(self._quantize_codes_shifted(flat))
        return y[: flat.shape[0]].reshape(*original_shape[:-1],
                                          self.out_features)

    # ------------------------------------------------------------------
    @staticmethod
    def from_linear(
        linear: Linear,
        act_params: QuantParams,
        weight_spec: QuantSpec = QuantSpec(bits=8, symmetric=True,
                                           per_channel=True, axis=0),
    ) -> "QuantizedLinear":
        """Quantize a trained float :class:`~repro.nn.Linear`."""
        weight = linear.weight.data
        if weight_spec.per_channel:
            lo, hi = channel_minmax(weight, weight_spec.axis)
        else:
            lo, hi = weight.min(), weight.max()
        weight_params = compute_qparams(lo, hi, weight_spec)
        weight_q = quantize_array(weight, weight_params)
        bias = None if linear.bias is None else linear.bias.data
        return QuantizedLinear(weight_q, weight_params, act_params, bias)

    def __repr__(self) -> str:
        return (
            f"QuantizedLinear(in={self.in_features}, out={self.out_features}, "
            f"w{self.weight_bits}a{self.act_bits})"
        )
