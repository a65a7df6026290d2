"""QuantizedLinear and fake quantization (QAT)."""

import numpy as np
import pytest

from repro.nn import Linear
from repro.quant import (
    FakeQuantize,
    MinMaxObserver,
    QuantSpec,
    QuantizedLinear,
    compute_qparams,
    fake_quantize,
)
from repro import reference
from repro.reference import forward_integer_reference, int64_kernels
from repro.tensor import Tensor, randn


def make_act_params(x, bits=8):
    spec = QuantSpec(bits=bits, symmetric=False)
    return compute_qparams(float(x.min()), float(x.max()), spec)


class TestQuantizedLinear:
    def test_w8a8_close_to_float(self):
        rng = np.random.default_rng(0)
        linear = Linear(32, 16, rng=rng)
        x = rng.standard_normal((8, 32)).astype(np.float32)
        qlinear = QuantizedLinear.from_linear(linear, make_act_params(x))
        y_float = x @ linear.weight.data.T + linear.bias.data
        y_quant = qlinear(x)
        scale = np.abs(y_float).max()
        assert np.abs(y_quant - y_float).max() / scale < 0.05

    def test_integer_path_equals_call(self):
        """__call__ must be exactly quantize → integer GEMM → requantize."""
        rng = np.random.default_rng(1)
        linear = Linear(16, 8, rng=rng)
        x = rng.standard_normal((4, 16)).astype(np.float32)
        qlinear = QuantizedLinear.from_linear(linear, make_act_params(x))
        manual = qlinear.forward_integer(qlinear.quantize_input(x))
        np.testing.assert_allclose(qlinear(x), manual, atol=1e-6)

    def test_zero_point_correction_exact(self):
        """Asymmetric activation zero-point is removed exactly, not approximately."""
        rng = np.random.default_rng(2)
        linear = Linear(8, 4, bias=False, rng=rng)
        x = np.abs(rng.standard_normal((4, 8))).astype(np.float32) + 1.0  # all positive
        qlinear = QuantizedLinear.from_linear(linear, make_act_params(x))
        x_q = qlinear.quantize_input(x)
        dequant_x = (x_q - int(qlinear.act_params.zero_point)) * float(qlinear.act_params.scale)
        expected = dequant_x @ qlinear.dequantized_weight().T
        np.testing.assert_allclose(qlinear(x), expected, rtol=1e-4, atol=1e-5)

    def test_batched_nd_input(self):
        rng = np.random.default_rng(3)
        linear = Linear(8, 4, rng=rng)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        qlinear = QuantizedLinear.from_linear(linear, make_act_params(x))
        assert qlinear(x).shape == (2, 5, 4)

    def test_lower_bits_more_error(self):
        rng = np.random.default_rng(4)
        linear = Linear(64, 32, rng=rng)
        x = rng.standard_normal((16, 64)).astype(np.float32)
        y_float = x @ linear.weight.data.T + linear.bias.data
        errors = []
        for bits in (2, 4, 8):
            spec = QuantSpec(bits=bits, symmetric=True, per_channel=True, axis=0)
            q = QuantizedLinear.from_linear(linear, make_act_params(x), spec)
            errors.append(float(np.abs(q(x) - y_float).mean()))
        assert errors[0] > errors[1] > errors[2]

    def test_rejects_per_channel_activations(self):
        rng = np.random.default_rng(5)
        linear = Linear(4, 2, rng=rng)
        spec = QuantSpec(bits=8, per_channel=True, axis=0)
        act_params = compute_qparams(np.zeros(2), np.ones(2), spec)
        with pytest.raises(ValueError):
            QuantizedLinear.from_linear(linear, act_params)

    def test_properties(self):
        rng = np.random.default_rng(6)
        linear = Linear(10, 7, rng=rng)
        q = QuantizedLinear.from_linear(
            linear, make_act_params(np.ones((1, 10), np.float32)))
        assert q.in_features == 10 and q.out_features == 7
        assert q.weight_bits == 8 and q.act_bits == 8


class TestExactBlasKernels:
    """The BLAS fast path must reproduce the int64 reference bit for bit."""

    @staticmethod
    def _quantized(bits, symmetric, in_features=24, out_features=12, seed=0):
        rng = np.random.default_rng(seed + bits * 7 + symmetric)
        linear = Linear(in_features, out_features, rng=rng)
        x = rng.standard_normal((33, in_features)).astype(np.float32)
        act_spec = QuantSpec(bits=bits, symmetric=symmetric)
        act_params = compute_qparams(float(x.min()), float(x.max()), act_spec)
        weight_spec = QuantSpec(bits=bits, symmetric=True,
                                per_channel=True, axis=0)
        return QuantizedLinear.from_linear(linear, act_params, weight_spec), x

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_kernel_bitwise_equals_int64_reference(self, bits, symmetric):
        q, x = self._quantized(bits, symmetric)
        x_q = q.quantize_input(x)
        np.testing.assert_array_equal(q.forward_integer(x_q),
                                      forward_integer_reference(q, x_q))

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_call_bitwise_equals_reference_mode(self, bits, symmetric):
        q, x = self._quantized(bits, symmetric)
        fast = q(x)
        with int64_kernels():
            reference = q(x)
        assert fast.dtype == reference.dtype == np.float32
        np.testing.assert_array_equal(fast, reference)

    def test_nd_kernel_bitwise_equals_reference(self):
        q, x = self._quantized(8, False)
        x_q = q.quantize_input(x.reshape(3, 11, -1))
        np.testing.assert_array_equal(q.forward_integer(x_q),
                                      forward_integer_reference(q, x_q))

    def test_batch_invariant(self):
        """Fused rows must equal per-row forwards bit for bit (the
        exact-integer accumulator makes BLAS blocking order irrelevant)."""
        q, x = self._quantized(8, False)
        batched = q(x)
        for i in range(x.shape[0]):
            np.testing.assert_array_equal(batched[i], q(x[i : i + 1])[0])

    def test_gemm_dtype_selected_by_exactness_bound(self):
        narrow, _ = self._quantized(8, False)
        assert narrow._gemm_dtype is np.float32  # K·amax·wmax ≤ 2^24
        wide, _ = self._quantized(16, False)
        assert wide._gemm_dtype is np.float64    # 16-bit products overflow f32

    def test_quantize_input_returns_storage_dtype(self):
        for bits, symmetric, expected in ((8, True, np.int8),
                                          (8, False, np.uint8),
                                          (16, True, np.int16),
                                          (16, False, np.uint16)):
            q, x = self._quantized(bits, symmetric)
            assert q.quantize_input(x).dtype == expected

    def test_float64_overflow_bound_rejected(self):
        # 2·K·amax·wmax ≥ 2^53 would let a partial sum round inside the
        # float64 GEMM; construction must refuse rather than go inexact.
        k = 1 << 23
        weight_q = np.full((1, k), 32767, dtype=np.int16)
        weight_params = compute_qparams(-1.0, 1.0,
                                        QuantSpec(bits=16, symmetric=True))
        act_params = compute_qparams(0.0, 1.0,
                                     QuantSpec(bits=16, symmetric=False))
        with pytest.raises(ValueError, match="not exactly representable"):
            QuantizedLinear(weight_q, weight_params, act_params, None)

    def test_escape_hatch_routes_kernel_to_reference(self, monkeypatch):
        """int64_kernels() routes both entry points through the int64
        kernel, and only inside its scope."""
        q, x = self._quantized(8, False)
        calls = []
        original = reference.forward_integer_reference
        monkeypatch.setattr(
            reference, "forward_integer_reference",
            lambda layer, x_q: calls.append(1) or original(layer, x_q))
        with int64_kernels():
            q.forward_integer(q.quantize_input(x))
            q(x)
        assert len(calls) == 2, "int64_kernels() must use the int64 reference"
        q.forward_integer(q.quantize_input(x))
        q(x)
        assert len(calls) == 2, "the int64 kernels must not outlive the scope"


class TestFakeQuantize:
    def test_forward_matches_array_path(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        params = make_act_params(x)
        from repro.quant import fake_quantize_array

        out = fake_quantize(Tensor(x, requires_grad=True), params)
        np.testing.assert_allclose(out.data, fake_quantize_array(x, params),
                                   atol=1e-6)

    def test_ste_gradient_passthrough_in_range(self):
        x = Tensor(np.array([0.1, 0.5, -0.3], np.float32), requires_grad=True)
        params = compute_qparams(-1.0, 1.0, QuantSpec(bits=8, symmetric=True))
        fake_quantize(x, params).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_ste_gradient_zero_out_of_range(self):
        x = Tensor(np.array([5.0, -5.0, 0.0], np.float32), requires_grad=True)
        params = compute_qparams(-1.0, 1.0, QuantSpec(bits=8, symmetric=True))
        fake_quantize(x, params).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0])

    def test_module_calibrate_then_freeze(self):
        fq = FakeQuantize(MinMaxObserver(QuantSpec(bits=8, symmetric=False)))
        x = Tensor(np.array([[0.0, 1.0, -1.0]], np.float32))
        out = fq(x)
        np.testing.assert_array_equal(out.data, x.data)  # calibrating: pass-through
        fq.freeze()
        out2 = fq(x)
        assert fq.params is not None
        assert np.abs(out2.data - x.data).max() <= float(fq.params.scale)

    def test_freeze_required_after_calibration(self):
        fq = FakeQuantize(MinMaxObserver(QuantSpec()))
        fq.calibrating = False
        with pytest.raises(RuntimeError):
            fq(Tensor(np.zeros((1, 2), np.float32)))
