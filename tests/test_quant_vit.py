"""Whole-model quantization: calibration sites, accuracy retention."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from repro.data import attribute_head_spec
from repro.data.datasets import num_classes
from repro.data.scenes import SceneConfig, SceneGenerator
from repro.nn import VisionTransformer, ViTConfig
from repro.nn import inference
from repro.nn import vit as vit_module
from repro.nn.inference import (
    _gelu_erf, _site_linear, _vit_forward, float_projections, gemm_sites,
    site_plan,
)
from repro.obs import build_telemetry, compare_telemetry, get_registry
from repro.quant import QuantSpec, calibrate_observers, quantize_vit
from repro.quant import vit as quant_vit
from repro.reference import forward_full_sequence, int64_kernels, windows_loop
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def calibration_images():
    rng = np.random.default_rng(0)
    return rng.random((32, 3, 32, 32)).astype(np.float32)


class TestSites:
    def test_site_enumeration(self, student_vit):
        sites = gemm_sites(student_vit.config)
        assert "patch_proj" in sites and "head" in sites
        assert f"block{student_vit.config.depth - 1}.fc2" in sites
        assert len(sites) == 1 + 4 * student_vit.config.depth + 1 + len(
            student_vit.attribute_names)

    def test_site_resolution(self, student_vit):
        for site in gemm_sites(student_vit.config):
            layer = _site_linear(student_vit, site)
            assert hasattr(layer, "weight")

    def test_unknown_site(self, student_vit):
        with pytest.raises(KeyError):
            _site_linear(student_vit, "block0.mystery")


def _float_models():
    """Teacher, student and task-head-student shapes, seeded."""
    heads = attribute_head_spec()
    configs = {
        "teacher": ViTConfig.teacher(num_classes(), heads),
        "student": ViTConfig.student(num_classes(), heads),
        "task_head": dataclasses.replace(
            ViTConfig.student(num_classes(), heads), with_task_head=True),
    }
    return {name: VisionTransformer(config, rng=np.random.default_rng(i))
            for i, (name, config) in enumerate(configs.items())}


@pytest.fixture(scope="module")
def float_models():
    return _float_models()


def _assert_heads_close(actual, module_out, atol=1e-4):
    """Every head of an inference forward against the module forward."""
    assert set(actual) == set(module_out)
    for key, expected in module_out.items():
        if isinstance(expected, dict):
            assert set(actual[key]) == set(expected)
            for sub, tensor in expected.items():
                np.testing.assert_allclose(actual[key][sub], tensor.data,
                                           rtol=0, atol=atol, err_msg=sub)
        else:
            np.testing.assert_allclose(actual[key], expected.data,
                                       rtol=0, atol=atol, err_msg=key)


class TestFloatPathConsistency:
    """The float inference forward against its oracle, the autograd
    module forward under ``no_grad``.  The tolerance only admits
    rounding: a tanh GELU in place of the trained erf one misses it."""

    def test_mirrored_forward_matches_module(self, student_vit, calibration_images):
        images = calibration_images[:4]
        with no_grad():
            reference = student_vit(Tensor(images))
        _assert_heads_close(student_vit.infer(images), reference)
        _assert_heads_close(
            _vit_forward(student_vit, images, float_projections(student_vit),
                         observers={}, gelu=_gelu_erf),
            reference)

    @pytest.mark.parametrize("forward", ["cls_only", "full_sequence"])
    @pytest.mark.parametrize("rows", [1, 9, 64, 256])
    @pytest.mark.parametrize("shape", ["teacher", "student", "task_head"])
    def test_every_head_matches_module(self, float_models, scene_windows,
                                       shape, rows, forward):
        model = float_models[shape]
        images = scene_windows[:rows]
        if forward == "cls_only":
            out = model.infer(images)
        else:
            out = _vit_forward(model, images, float_projections(model),
                               observers={}, gelu=_gelu_erf)
        with no_grad():
            reference = model(Tensor(images))
        _assert_heads_close(out, reference)

    def test_infer_reads_live_weights(self, calibration_images):
        model = _float_models()["student"]
        images = calibration_images[:3]
        before = model.infer(images)["class_logits"]
        model.head.bias.data += 1.0
        np.testing.assert_allclose(model.infer(images)["class_logits"],
                                   before + 1.0, rtol=0, atol=1e-5)


class TestCalibration:
    def test_every_site_calibrated(self, student_vit, calibration_images):
        params = calibrate_observers(student_vit, calibration_images)
        sites = gemm_sites(student_vit.config)
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
                     == student_vit.classify(calibration_images))
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
    assert set(actual) == set(expected)
    for key in expected:
        if isinstance(expected[key], dict):
            assert set(actual[key]) == set(expected[key])
            for sub in expected[key]:
                np.testing.assert_array_equal(actual[key][sub],
                                              expected[key][sub])
        else:
            np.testing.assert_array_equal(actual[key], expected[key])


def _nbytes(outputs) -> int:
    return sum(sum(v.nbytes for v in value.values())
               if isinstance(value, dict) else value.nbytes
               for value in outputs.values())


class TestKernelKeepsNoState:
    """The integer kernel allocates per call: what it returns is the
    caller's, and nothing outlives the call."""

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

    def test_later_calls_never_overwrite_a_returned_output(
            self, student_vit, calibration_images):
        q = quantize_vit(student_vit, calibration_images)
        rng = np.random.default_rng(5)
        for site, layer in q.layers.items():
            returned, copies = [], []
            for m in (0,) + self.ROWS:
                x = rng.normal(size=(m, layer.in_features))
                returned.append(layer(x.astype(np.float32)))
                copies.append(returned[-1].copy())
            for out, copy in zip(returned, copies):
                np.testing.assert_array_equal(out, copy, err_msg=site)

    def test_forward_keeps_no_more_than_its_outputs(
            self, student_vit, calibration_images):
        images = np.random.default_rng(1).random(
            (64, 3, 32, 32)).astype(np.float32)
        # Process-wide caches (the site plan) fill on another model.
        quantize_vit(student_vit, calibration_images)(images[:2])
        q = quantize_vit(student_vit, calibration_images)
        # Whole tracebacks: memory a forward keeps through a numpy
        # helper (np.tile, np.ascontiguousarray) is attributed to that
        # helper's frame, so it counts only if any frame may match.
        tracemalloc.start(64)
        try:
            before = tracemalloc.take_snapshot()
            outputs = q(images)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        forward_code = [
            tracemalloc.Filter(True, os.path.join(
                os.path.dirname(module.__file__), "*"), all_frames=True)
            for module in (inference, quant_vit)]
        kept = sum(stat.size_diff for stat in
                   after.filter_traces(forward_code).compare_to(
                       before.filter_traces(forward_code), "filename"))
        # The outputs' data plus their ndarray headers.
        assert kept <= _nbytes(outputs) + 16 * 1024

    def test_threads_do_not_share_buffers(self, student_vit,
                                          calibration_images):
        import threading

        q = quantize_vit(student_vit, calibration_images)
        expected = {m: quantize_vit(student_vit, calibration_images)(
            calibration_images[:m]) for m in (4, 9)}
        barrier = threading.Barrier(2)
        results = {}

        def work(m):
            barrier.wait()
            results[m] = [q(calibration_images[:m]) for _ in range(3)]

        threads = [threading.Thread(target=work, args=(m,)) for m in (4, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        for m in (4, 9):
            for out in results[m]:
                _assert_outputs_equal(out, expected[m])


@pytest.fixture(scope="module")
def scene_windows():
    """Every window of one grid-3, one grid-6 and one grid-16 scene
    (9 + 36 + 256 rows), in that order."""
    windows = []
    for grid in (3, 6, 16):
        [scene] = SceneGenerator(SceneConfig(grid=grid),
                                 seed=grid).generate_batch(1)
        windows.append(windows_loop(scene)[0])
    return np.concatenate(windows).astype(np.float32)


@pytest.fixture(scope="module")
def scene_quantized(student_vit, scene_windows):
    return quantize_vit(student_vit, scene_windows[::4])


def _last_block_sites(model):
    last = model.config.depth - 1
    return [f"block{last}.{layer}" for layer in ("proj", "fc1", "fc2")]


class TestClsOnlyLastBlock:
    """The last encoder block runs on the CLS row only at inference."""

    @pytest.mark.parametrize("rows", [1, 9, 36, 256, 288])
    def test_bit_equal_to_full_sequence(self, scene_quantized,
                                        scene_windows, rows):
        images = scene_windows[:rows]
        _assert_outputs_equal(scene_quantized(images),
                              forward_full_sequence(scene_quantized, images))

    def test_last_block_kernels_see_one_row_per_image(
            self, scene_quantized, scene_windows, monkeypatch):
        """Every projection kernel sees the row count the site plan
        gives it — quantized and float inference and calibration alike
        — and the plan gives the last block one row per image outside
        calibration."""
        model = scene_quantized.model
        tokens = model.config.num_tokens

        def recording(projections, seen):
            def wrap(site, kernel):
                def apply(x):
                    seen[site] = int(np.prod(x.shape[:-1]))
                    return kernel(x)
                return apply
            return {site: wrap(site, kernel)
                    for site, kernel in projections.items()}

        runs = {
            "quantized": scene_quantized,
            "float": model.infer,
            "calibrate": lambda images: calibrate_observers(model, images),
        }
        for forward, run in runs.items():
            calibrate = forward == "calibrate"
            for rows in (1, 9, 36):
                seen = {}
                with monkeypatch.context() as patch:
                    if forward == "quantized":
                        patch.setattr(scene_quantized, "_projections",
                                      recording(scene_quantized._projections,
                                                seen))
                    else:
                        module = quant_vit if calibrate else vit_module
                        patch.setattr(module, "float_projections",
                                      lambda m, seen=seen: recording(
                                          float_projections(m), seen))
                    run(scene_windows[:rows])
                plan = {op.site: op.m for op in site_plan(
                    model.config, rows, calibrate=calibrate) if op.site}
                assert seen == plan, (forward, rows)
                for site in _last_block_sites(model):
                    assert plan[site] == (rows * tokens if calibrate
                                          else rows), (forward, rows, site)

    @pytest.mark.parametrize("forward", ["quantized", "float"])
    def test_mac_counter_sums_the_plan(self, scene_quantized, scene_windows,
                                       forward):
        model = scene_quantized.model
        run = scene_quantized if forward == "quantized" else model.infer
        per_image = sum(op.macs for op in site_plan(model.config) if op.site)
        registry = get_registry()
        try:
            for rows in (1, 9, 36):
                registry.reset()
                run(scene_windows[:rows])
                counted = registry.counters["nn.forward.macs"].value
                assert counted == per_image * rows, (forward, rows)
        finally:
            registry.reset()

    def test_mac_counter_sees_a_full_last_block(self, scene_quantized,
                                                scene_windows, monkeypatch):
        """A forward that runs the whole last block again changes the
        counted work, so the exact counter gate fails."""
        registry = get_registry()

        def counted_run():
            registry.reset()
            scene_quantized(scene_windows[:9])
            return build_telemetry("macs", registry=registry)

        try:
            planned = counted_run()
            with monkeypatch.context() as patch:
                patch.setattr(inference, "_cls_only_block",
                              lambda depth, calibrate: -1)
                full = counted_run()
        finally:
            registry.reset()
        comparison = compare_telemetry(planned, full)
        assert not comparison.ok
        assert [row.counter for row in comparison.changes] == \
            ["nn.forward.macs"]
        [row] = comparison.changes
        assert row.current > row.baseline

    def test_calibration_observes_every_token(self, student_vit,
                                              scene_windows, monkeypatch):
        created = []
        make_observer = quant_vit.make_observer

        def recording_observer(kind, spec):
            observer = make_observer(kind, spec)
            observer.rows = []
            observe = observer.observe

            def record(x):
                observer.rows.append(int(np.prod(x.shape[:-1])))
                observe(x)

            observer.observe = record
            created.append(observer)
            return observer

        monkeypatch.setattr(quant_vit, "make_observer", recording_observer)
        batch = 9
        calibrate_observers(student_vit, scene_windows[:batch])
        sites = gemm_sites(student_vit.config)
        by_site = dict(zip(sites, created))
        tokens = student_vit.config.num_tokens
        for site in _last_block_sites(student_vit):
            assert by_site[site].rows == [batch * tokens]


def _rows(outputs, start, stop):
    """Rows ``start:stop`` of every output of a forward."""
    return {key: (_rows(value, start, stop) if isinstance(value, dict)
                  else value[start:stop])
            for key, value in outputs.items()}


@pytest.fixture(scope="module")
def invariance_windows(scene_windows):
    """332 real scene windows: room for 288 rows at offset 31."""
    return np.concatenate([scene_windows, scene_windows[:31]])


class TestFloatBatchInvariance:
    """Float inference is batch-invariant: a window's outputs are the
    same bits whichever rows share its forward.  Every float GEMM runs
    as ``FLOAT_TILE_ROWS``-row tiles; a plain GEMM over all rows lets
    BLAS pick its kernel, and with it the rounding, by row count."""

    MODELS = ("student", "task_head")

    @pytest.fixture(scope="class")
    def full_batch(self, float_models, invariance_windows):
        return {shape: float_models[shape].infer(invariance_windows)
                for shape in self.MODELS}

    @pytest.mark.parametrize("rows", [1, 9, 16, 36, 256, 288])
    @pytest.mark.parametrize("shape", MODELS)
    def test_slice_bit_equal_to_full_batch(self, float_models, full_batch,
                                           invariance_windows, shape, rows):
        model = float_models[shape]
        expected_keys = {"class_logits", "cls_embedding", "attributes"}
        if shape == "task_head":
            expected_keys.add("task_logits")
        assert set(full_batch[shape]) == expected_keys
        for offset in (0, 5, 31):
            _assert_outputs_equal(
                model.infer(invariance_windows[offset:offset + rows]),
                _rows(full_batch[shape], offset, offset + rows))

    @pytest.mark.parametrize("rows", [1, 9, 36])
    def test_cls_only_bit_equal_to_full_sequence(self, float_models,
                                                 scene_windows, rows):
        model = float_models["task_head"]
        images = scene_windows[:rows]
        _assert_outputs_equal(
            model.infer(images),
            _vit_forward(model, images, float_projections(model),
                         observers={}, gelu=_gelu_erf))
