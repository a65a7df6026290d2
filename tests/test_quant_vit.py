"""Whole-model quantization: calibration sites, accuracy retention."""

import numpy as np
import pytest

from repro.quant import QuantSpec, calibrate_observers, quantize_vit
from repro.quant.vit import _float_proj, _site_linear, _vit_forward, gemm_sites
from repro.reference import int64_kernels
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def calibration_images():
    rng = np.random.default_rng(0)
    return rng.random((32, 3, 32, 32)).astype(np.float32)


class TestSites:
    def test_site_enumeration(self, student_vit):
        sites = gemm_sites(student_vit.config.depth, student_vit.attribute_names)
        assert "patch_proj" in sites and "head" in sites
        assert f"block{student_vit.config.depth - 1}.fc2" in sites
        assert len(sites) == 1 + 4 * student_vit.config.depth + 1 + len(
            student_vit.attribute_names)

    def test_site_resolution(self, student_vit):
        for site in gemm_sites(student_vit.config.depth,
                               student_vit.attribute_names):
            layer = _site_linear(student_vit, site)
            assert hasattr(layer, "weight")

    def test_unknown_site(self, student_vit):
        with pytest.raises(KeyError):
            _site_linear(student_vit, "block0.mystery")


class TestFloatPathConsistency:
    def test_mirrored_forward_matches_module(self, student_vit, calibration_images):
        """The shared numpy forward must match the autograd module (up to
        the tanh-GELU approximation)."""
        sites = gemm_sites(student_vit.config.depth, student_vit.attribute_names)
        projections = {s: _float_proj(_site_linear(student_vit, s)) for s in sites}
        mirrored = _vit_forward(student_vit, calibration_images[:4], projections)
        with no_grad():
            reference = student_vit(Tensor(calibration_images[:4]))
        np.testing.assert_allclose(
            mirrored["class_logits"], reference["class_logits"].data, atol=5e-3
        )
        for family in student_vit.attribute_names:
            np.testing.assert_allclose(
                mirrored["attributes"][family],
                reference["attributes"][family].data, atol=5e-3,
            )


class TestCalibration:
    def test_every_site_calibrated(self, student_vit, calibration_images):
        params = calibrate_observers(student_vit, calibration_images)
        sites = gemm_sites(student_vit.config.depth, student_vit.attribute_names)
        assert set(params) == set(sites)
        for p in params.values():
            assert float(np.asarray(p.scale).min()) > 0


class TestQuantizedModel:
    def test_outputs_close_to_float(self, student_vit, calibration_images):
        q = quantize_vit(student_vit, calibration_images)
        out_q = q(calibration_images[:8])
        with no_grad():
            out_f = student_vit(Tensor(calibration_images[:8]))
        ref = out_f["class_logits"].data
        err = np.abs(out_q["class_logits"] - ref).max()
        assert err < 0.15 * max(np.abs(ref).max(), 1.0)

    def test_prediction_agreement(self, student_vit, calibration_images):
        q = quantize_vit(student_vit, calibration_images)
        agreement = (q.classify(calibration_images)
                     == np.array([student_vit.classify(Tensor(calibration_images))]).ravel())
        assert agreement.mean() >= 0.9

    def test_size_shrinks_with_bits(self, student_vit, calibration_images):
        sizes = {}
        for bits in (4, 8, 16):
            q = quantize_vit(
                student_vit, calibration_images,
                weight_spec=QuantSpec(bits=bits, symmetric=True,
                                      per_channel=True, axis=0),
            )
            sizes[bits] = q.model_size_bytes()
        assert sizes[4] < sizes[8] < sizes[16]

    def test_model_size_counts_packed_bits(self, student_vit,
                                           calibration_images):
        """Sub-byte widths must report the packed footprint —
        ceil(size·bits/8) per layer — not one storage byte per code."""
        for bits in (2, 4, 8):
            q = quantize_vit(
                student_vit, calibration_images,
                weight_spec=QuantSpec(bits=bits, symmetric=True,
                                      per_channel=True, axis=0),
            )
            expected = 0
            for layer in q.layers.values():
                expected += (layer.weight_q.size * bits + 7) // 8
                if layer.bias is not None:
                    expected += layer.bias.size * 4
            float_aux = q.model_size_bytes() - expected
            assert float_aux > 0  # LayerNorm/cls/pos params ride along
            weight_codes = sum(l.weight_q.size for l in q.layers.values())
            # The packed weight payload alone must be ~bits/8 per code.
            packed = q.model_size_bytes() - float_aux
            biases = sum(l.bias.size * 4 for l in q.layers.values()
                         if l.bias is not None)
            assert packed - biases <= weight_codes * bits / 8 + len(q.layers)

    def test_fast_path_bitwise_equals_reference(self, student_vit,
                                                calibration_images):
        q = quantize_vit(student_vit, calibration_images)
        fast = q(calibration_images[:4])
        with int64_kernels():
            reference = q(calibration_images[:4])
        for key in fast:
            if isinstance(fast[key], dict):
                for sub in fast[key]:
                    np.testing.assert_array_equal(fast[key][sub],
                                                  reference[key][sub])
            else:
                np.testing.assert_array_equal(fast[key], reference[key])

    def test_batch_invariant_forward(self, student_vit, calibration_images):
        """Fused batches must reproduce per-image forwards bit for bit —
        every reduction in the quantized graph is row-local."""
        q = quantize_vit(student_vit, calibration_images)
        images = calibration_images[:6]
        batched = q(images)
        for i in range(images.shape[0]):
            single = q(images[i : i + 1])
            for key in batched:
                if isinstance(batched[key], dict):
                    for sub in batched[key]:
                        np.testing.assert_array_equal(batched[key][sub][i],
                                                      single[key][sub][0])
                else:
                    np.testing.assert_array_equal(batched[key][i],
                                                  single[key][0])

    def test_weight_bits_reported(self, student_vit, calibration_images):
        q = quantize_vit(
            student_vit, calibration_images,
            weight_spec=QuantSpec(bits=4, symmetric=True, per_channel=True),
        )
        assert q.weight_bits() == 4

    def test_forward_shapes(self, student_vit, calibration_images):
        q = quantize_vit(student_vit, calibration_images)
        out = q(calibration_images[:3])
        assert out["class_logits"].shape == (3, student_vit.config.num_classes)
        assert out["cls_embedding"].shape == (3, student_vit.config.dim)


def _assert_outputs_equal(actual, expected):
    for key in expected:
        if isinstance(expected[key], dict):
            for sub in expected[key]:
                np.testing.assert_array_equal(actual[key][sub],
                                              expected[key][sub])
        else:
            np.testing.assert_array_equal(actual[key], expected[key])


class TestScratchArena:
    """One grow-only scratch buffer set per kernel and thread."""

    ROWS = (5, 1, 12, 3, 12, 7)

    def test_interleaved_row_counts_bit_equal_fresh_model(
            self, student_vit, calibration_images):
        q = quantize_vit(student_vit, calibration_images)
        outputs = [q(calibration_images[:m]) for m in self.ROWS]
        # every result is checked after all forwards ran: returned
        # outputs must survive later calls of other row counts
        for m, out in zip(self.ROWS, outputs):
            fresh = quantize_vit(student_vit, calibration_images)
            _assert_outputs_equal(out, fresh(calibration_images[:m]))

    def test_one_buffer_set_sized_by_largest_rows(self, student_vit,
                                                  calibration_images):
        single = quantize_vit(student_vit, calibration_images)
        single(calibration_images[:1])
        rows_per_image = {site: layer._scratch.arena["acc"].shape[0]
                          for site, layer in single.layers.items()}
        q = quantize_vit(student_vit, calibration_images)
        for m in self.ROWS:
            q(calibration_images[:m])
        for site, layer in q.layers.items():
            arena = layer._scratch.arena
            rows = max(self.ROWS) * rows_per_image[site]
            assert arena["acc"].shape[0] == rows
            assert arena["out"].shape[0] == rows
            assert list(vars(layer._scratch)) == ["arena"]

    def test_threads_do_not_share_buffers(self, student_vit,
                                          calibration_images):
        import threading

        q = quantize_vit(student_vit, calibration_images)
        expected = {m: quantize_vit(student_vit, calibration_images)(
            calibration_images[:m]) for m in (4, 9)}
        barrier = threading.Barrier(2)
        arenas, results = {}, {}

        def work(m):
            barrier.wait()
            for _ in range(3):
                results[m] = q(calibration_images[:m])
            arenas[m] = {site: layer._scratch.arena
                         for site, layer in q.layers.items()}

        threads = [threading.Thread(target=work, args=(m,)) for m in (4, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for m in (4, 9):
            _assert_outputs_equal(results[m], expected[m])
        for site in q.layers:
            for name, buf in arenas[4][site].items():
                if buf is not None:
                    assert not np.shares_memory(buf, arenas[9][site][name])
