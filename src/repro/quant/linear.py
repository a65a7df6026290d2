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
construction, in one grow-only scratch arena per thread; under
``reuse_output`` the output lives there too, so the next call on that
thread overwrites it, whatever its row count.  The original int64
matmul is kept verbatim as
:func:`repro.reference.forward_integer_reference` — the bit-exactness
oracle that property tests assert against (run a whole model on it
under :func:`repro.reference.int64_kernels`).
"""

from __future__ import annotations

import threading
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

# Rows-per-block budget (in elements) for the chunked elementwise
# passes: the float64 quantize/requant intermediates are streamed
# through a ~256 KiB scratch block that stays cache-resident instead of
# being materialised at full batch size, which would round-trip several
# MiB of float64 through memory per site.  Chunking is invisible to the
# results — every pass is elementwise, so blocking cannot change a bit.
_CHUNK_ELEMS = 32 * 1024


class QuantizedLinear:
    """Frozen, inference-only quantized affine layer.

    Not a :class:`~repro.nn.Module` — it owns no trainable parameters and
    operates on plain numpy arrays (the quantized model never
    backpropagates).
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
        self.weight_params = weight_params
        self.act_params = act_params
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        # Precomputed requantization constants.
        self._weight_scale = np.asarray(weight_params.scale, dtype=np.float64).reshape(-1)
        self._act_scale = float(np.asarray(act_params.scale).reshape(()))
        self._act_zero = int(np.asarray(act_params.zero_point).reshape(()))
        # y = (acc − z_x · Σ_k W_q) · (s_x · s_w) + b, with the
        # subtraction folded into zero-point-shifted codes (below).
        self._requant_scale = self._act_scale * self._weight_scale
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
        # Per-thread scratch arena (codes / accumulator / requant
        # intermediate, see ``_scratch_for``).  Cycling three multi-MB
        # allocations per call costs more than the GEMM itself; reuse
        # keeps the pages hot.  Thread-local because the serving engine
        # may run concurrent workers over one model.
        self._scratch = threading.local()
        # When True, the kernel returns a view of the thread's arena
        # that the NEXT call on that thread overwrites, whatever its
        # row count.  Only safe for callers that fully consume the
        # result before invoking the layer again —
        # :func:`~repro.quant.vit.quantize_vit` enables it for hidden
        # sites (``_vit_forward`` calls each once per pass and consumes
        # the output at once) and keeps it off for head sites, whose
        # outputs the detect path accumulates across chunked forwards.
        self.reuse_output = False

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

    def _scratch_for(self, m: int) -> dict:
        """This thread's scratch arena, grown to hold an ``m``-row forward.

        ``q`` (float64 codes), ``codes`` (float32 codes, narrow-GEMM path
        only), ``acc`` (GEMM output), ``y`` (float64 requant
        intermediate) and ``out`` (float32 result, handed out only under
        :attr:`reuse_output`).  One buffer set per thread, grown to the
        largest row count seen; callers use the ``[:m]`` prefix of the
        row-sized buffers and stream through the chunk-sized blocks.
        Every buffer is fully overwritten before it is read on each
        call, so reuse cannot leak state between batches — outputs stay
        bit-identical and batch-invariant.
        """
        arena = getattr(self._scratch, "arena", None)
        if arena is None or arena["acc"].shape[0] < m:
            n, k = self.weight_q.shape
            narrow = self._gemm_dtype is np.float32
            # On the narrow path the float64 intermediates are
            # chunk-sized scratch blocks (see ``_CHUNK_ELEMS``); on the
            # wide path ``q`` feeds the GEMM directly and must hold the
            # whole batch.
            q_rows = min(m, max(1, _CHUNK_ELEMS // k)) if narrow else m
            y_rows = min(m, max(1, _CHUNK_ELEMS // n))
            arena = self._scratch.arena = {
                "q": np.empty((q_rows, k), dtype=np.float64),
                "codes": np.empty((m, k), dtype=np.float32) if narrow else None,
                "acc": np.empty((m, n), dtype=self._gemm_dtype),
                "y": np.empty((y_rows, n), dtype=np.float64) if narrow else None,
                "out": np.empty((m, n), dtype=np.float32),
            }
        return arena

    def _quantize_codes_shifted(self, x: np.ndarray) -> np.ndarray:
        """Activations → zero-point-shifted codes (q − z_x) in the GEMM's
        float dtype.

        Same float64 round/clip arithmetic as :func:`quantize_array`
        (codes equal :meth:`quantize_input` minus ``z_x``, bit for bit),
        but with the zero-point folded into the clip bounds so the hot
        path needs no add pass, no integer-storage round trip — and the
        GEMM over shifted codes needs no correction subtraction at all.
        """
        m = x.shape[0]
        bufs = self._scratch_for(m)
        if self._gemm_dtype is np.float32:
            # Fuse the float32 cast into the rint pass: rounded codes
            # within the clip range are integers ≤ 2^24, exact in
            # float32; values outside round to something still outside,
            # which the clip maps to the same bound either way.  The
            # float64 quotient only ever lives in a cache-resident
            # chunk; rint/clip run while that block is hot.
            codes = bufs["codes"][:m]
            scratch = bufs["q"]
            step = scratch.shape[0]
            for start in range(0, m, step):
                stop = min(start + step, m)
                block = scratch[: stop - start]
                np.divide(x[start:stop], self._act_scale, out=block,
                          dtype=np.float64)
                rounded = codes[start:stop]
                np.rint(block, out=rounded, casting="same_kind")
                np.clip(rounded, self._shift_qmin, self._shift_qmax,
                        out=rounded)
            return codes
        q = np.divide(x, self._act_scale, out=bufs["q"][:m], dtype=np.float64)
        np.rint(q, out=q)
        np.clip(q, self._shift_qmin, self._shift_qmax, out=q)
        return q

    def _forward_shifted(self, q: np.ndarray) -> np.ndarray:
        """GEMM + requantization over zero-point-shifted float codes.

        The accumulator over ``q − z_x`` is exactly the corrected integer
        ``acc − z_x·Σ_k W_q`` (every partial sum is an integer within the
        construction-time bound, hence exact in the GEMM dtype), so the
        result is bit-identical to the reference:  the fused multiply
        casts the exact integer accumulator to float64 and scales it in
        one pass, matching the reference's op order.
        """
        m = q.shape[0]
        bufs = self._scratch_for(m)
        acc = np.matmul(q, self._packed_weight, out=bufs["acc"][:m])
        out = (bufs["out"][:m] if self.reuse_output
               else np.empty(acc.shape, dtype=np.float32))
        # Every multiply/add below computes in float64 (ufunc type
        # resolution ignores the float32 ``out``) and casts on store, so
        # the op order — and therefore every bit — matches the
        # reference's astype(float64)·scale + bias → float32 chain.
        if acc.dtype != np.float64:
            if self.bias is None:
                np.multiply(acc, self._requant_scale, out=out,
                            casting="same_kind")
            else:
                scratch = bufs["y"]
                step = scratch.shape[0]
                for start in range(0, acc.shape[0], step):
                    stop = min(start + step, acc.shape[0])
                    block = scratch[: stop - start]
                    np.multiply(acc[start:stop], self._requant_scale,
                                out=block)
                    np.add(block, self.bias, out=out[start:stop],
                           casting="same_kind")
        elif self.bias is None:
            np.multiply(acc, self._requant_scale, out=out,
                        casting="same_kind")
        else:
            acc *= self._requant_scale
            np.add(acc, self.bias, out=out, casting="same_kind")
        return out

    def forward_integer(self, x_q: np.ndarray) -> np.ndarray:
        """Integer GEMM + requantization from pre-quantized activations.

        ``x_q`` has shape (..., in_features), values already clipped to
        the activation grid.  Runs the exact BLAS-backed kernel.
        """
        # Zero-point-shifted codes are exact in the GEMM dtype (the
        # construction-time bound covers them): the same kernel as
        # ``__call__`` from here on.
        shifted = np.subtract(x_q.reshape(-1, x_q.shape[-1]), self._act_zero,
                              dtype=self._gemm_dtype)
        y = self._forward_shifted(shifted)
        return y.reshape(*x_q.shape[:-1], self.out_features)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Float in → float out, with integer compute in the middle."""
        original_shape = x.shape
        flat = x.reshape(-1, original_shape[-1])
        y = self._forward_shifted(self._quantize_codes_shifted(flat))
        return y.reshape(*original_shape[:-1], self.out_features)

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
