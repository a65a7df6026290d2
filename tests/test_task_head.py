"""Task-specific head: model plumbing, distillation supervision,
near-miss negatives, detector integration, quantization of specialists."""

import dataclasses

import numpy as np
import pytest

from repro.data import attribute_head_spec, build_task_windows, get_task
from repro.data.datasets import _sample_near_miss, num_classes
from repro.distill import DistillationConfig, Distiller
from repro.detect import predict_windows, window_task_accuracy
from repro.nn import VisionTransformer, ViTConfig
from repro.nn.vit import TaskHead
from repro.quant import quantize_vit
from repro.nn.inference import gemm_sites
from repro.tensor import Tensor, check_gradient, randn


@pytest.fixture(scope="module")
def task_vit():
    config = dataclasses.replace(
        ViTConfig.student(num_classes(), attribute_head_spec()),
        with_task_head=True,
    )
    model = VisionTransformer(config, rng=np.random.default_rng(5))
    model.eval()
    return model


class TestTaskHeadModule:
    def test_output_shape(self):
        head = TaskHead(16, rng=np.random.default_rng(0))
        out = head(randn(4, 16, rng=np.random.default_rng(1)))
        assert out.shape == (4, 2)

    def test_gradient(self):
        head = TaskHead(8, rng=np.random.default_rng(0))
        x = randn(2, 8, rng=np.random.default_rng(1), requires_grad=True)
        ok, err = check_gradient(lambda t: head(t), [x], atol=2e-2)
        assert ok, err

    def test_vit_emits_task_logits(self, task_vit):
        x = randn(3, 3, 32, 32, rng=np.random.default_rng(0))
        out = task_vit(x)
        assert out["task_logits"].shape == (3, 2)

    def test_vit_without_flag_has_no_head(self, student_vit):
        assert student_vit.task_head is None
        x = randn(1, 3, 32, 32, rng=np.random.default_rng(0))
        assert "task_logits" not in student_vit(x)

    def test_flops_include_task_head(self):
        base = ViTConfig.student(4)
        with_head = dataclasses.replace(base, with_task_head=True)
        a = VisionTransformer(base, rng=np.random.default_rng(0))
        b = VisionTransformer(with_head, rng=np.random.default_rng(0))
        assert b.flops_per_image() > a.flops_per_image()


class TestNearMissNegatives:
    @pytest.mark.parametrize("task_name", ["valve_inspection", "roadside_hazards",
                                           "sterile_supplies"])
    def test_near_miss_violates_exactly_one_family(self, task_name):
        task = get_task(task_name)
        rng = np.random.default_rng(0)
        for _ in range(20):
            profile = _sample_near_miss(task, rng)
            if profile is None:
                continue
            assert not task.matches(profile)

    def test_task_windows_contain_near_misses(self):
        task = get_task("cargo_audit")
        ds = build_task_windows(task, seed=0, num_positive=30, num_negative=60,
                                hard_negative_fraction=0.8,
                                near_miss_fraction=1.0)
        # near-miss negatives differ from a positive in exactly one
        # constrained family; at minimum they must be objects, not background
        hard_negatives = [
            p for p, lbl in zip(ds.profiles, ds.task_labels)
            if lbl < 0.5 and p is not None
        ]
        assert len(hard_negatives) >= 30


class TestDistilledTaskHead:
    @pytest.fixture(scope="class")
    def distilled(self, task_vit):
        task = get_task("valve_inspection")
        teacher = VisionTransformer(
            ViTConfig.student(num_classes(), attribute_head_spec()),
            rng=np.random.default_rng(1))
        dataset = build_task_windows(task, seed=3, num_positive=60,
                                     num_negative=80)
        student = VisionTransformer(task_vit.config, rng=np.random.default_rng(2))
        Distiller(teacher, student,
                  DistillationConfig(epochs=6, task_label_weight=1.0, seed=0),
                  rng=np.random.default_rng(2)).distill(dataset)
        return student, dataset

    def test_head_learns_relevance(self, distilled):
        student, dataset = distilled
        predictions = predict_windows(student, dataset.images)
        assert "task_probs" in predictions
        decisions = predictions["task_probs"] > 0.5
        truth = dataset.task_labels > 0.5
        assert (decisions == truth).mean() > 0.7

    def test_window_task_accuracy_uses_head(self, distilled):
        student, dataset = distilled
        acc = window_task_accuracy(student, dataset, matcher=None)
        assert acc > 0.6


class TestQuantizedSpecialist:
    def test_sites_include_task_head(self, task_vit):
        sites = gemm_sites(task_vit.config)
        assert "task_head.fc1" in sites and "task_head.fc2" in sites

    def test_quantized_specialist_emits_task_logits(self, task_vit):
        rng = np.random.default_rng(0)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        q = quantize_vit(task_vit, calibration)
        out = q(calibration[:3])
        assert out["task_logits"].shape == (3, 2)
        from repro.tensor import no_grad

        with no_grad():
            ref = task_vit(Tensor(calibration[:3]))["task_logits"].data
        assert np.abs(out["task_logits"] - ref).max() < 0.3 * max(
            np.abs(ref).max(), 1.0)

    def test_compiler_emits_task_head_gemms(self, task_vit):
        from repro.hw import compile_model, GemmOp

        rng = np.random.default_rng(0)
        q = quantize_vit(task_vit, rng.random((8, 3, 32, 32)).astype(np.float32))
        program = compile_model(q)
        names = [op.name for op in program if isinstance(op, GemmOp)]
        assert "task_head.fc1" in names and "task_head.fc2" in names
        assert program.total_macs() == task_vit.flops_per_image()
