"""Cross-module integration tests.

These exercise full paths at miniature scale: train → quantize → compile →
simulate, and mission text → graph → detect → metrics.  The accelerator
functional-equivalence test is the key hardware/software contract: every
GEMM the compiler schedules must compute exactly what the quantized model
computes.
"""

import numpy as np
import pytest

from repro.core import (
    ArtifactBuilder,
    ITaskPipeline,
    TaskSpec,
    build_quantized_configuration,
)
from repro.data import SceneConfig, SceneGenerator, build_window_dataset, get_task
from repro.data.datasets import num_classes
from repro.distill import ModelTrainer, TrainingConfig, evaluate_model
from repro.hw import (
    AcceleratorConfig,
    Compiler,
    GemmOp,
    GPUModel,
    Simulator,
    SystolicArray,
)
from repro.quant import quantize_vit
from repro.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def small_trained_model(student_vit):
    """Student ViT briefly trained so logits are not random."""
    dataset = build_window_dataset(seed=41, num_category_objects=64,
                                   num_distractors=16, num_background=16)
    import copy

    model = student_vit  # reuse architecture; train a copy via state dict
    from repro.nn import VisionTransformer

    trained = VisionTransformer(model.config, rng=np.random.default_rng(8))
    ModelTrainer(trained, TrainingConfig(epochs=5, batch_size=32,
                                         learning_rate=2e-3, seed=0)).fit(dataset)
    return trained


class TestQuantizedAccuracyRetention:
    def test_int8_accuracy_close_to_float(self, small_trained_model):
        val = build_window_dataset(seed=42, num_category_objects=48,
                                   num_distractors=12, num_background=12)
        float_acc = evaluate_model(small_trained_model, val)["val_accuracy"]
        q = quantize_vit(small_trained_model, val.images[:48])
        q_acc = (q.classify(val.images) == val.class_labels).mean()
        assert q_acc >= float_acc - 0.05


class TestAcceleratorFunctionalEquivalence:
    def test_every_scheduled_gemm_bit_matches_kernel(self, small_trained_model):
        """Run each compiled weight GEMM through the systolic array and
        compare with the QuantizedLinear integer kernel."""
        rng = np.random.default_rng(0)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        q = quantize_vit(small_trained_model, calibration)
        config = AcceleratorConfig.edge_default()
        program = Compiler(config).compile(q)
        array = SystolicArray(config)
        for op in program:
            if not isinstance(op, GemmOp) or op.site is None:
                continue
            layer = q.layers[op.site]
            x = rng.random((3, layer.in_features)).astype(np.float32)
            x_q = layer.quantize_input(x)
            reference = x_q.astype(np.int64) @ layer.weight_q.T.astype(np.int64)
            hw_result, _ = array.run(x_q, layer.weight_q.T)
            np.testing.assert_array_equal(hw_result, reference)

    def test_end_to_end_latency_sane(self, small_trained_model):
        rng = np.random.default_rng(0)
        q = quantize_vit(small_trained_model,
                         rng.random((16, 3, 32, 32)).astype(np.float32))
        config = AcceleratorConfig.edge_default()
        report = Simulator(config).simulate(Compiler(config).compile(q))
        # real-time budget: well under one 30 fps frame
        assert report.latency_s < 1.0 / 30.0
        gpu_report = GPUModel().simulate(q.config)
        assert gpu_report.latency_s > report.latency_s


class TestMissionEndToEnd:
    def test_text_to_detections(self, small_trained_model):
        rng = np.random.default_rng(0)
        qcfg = build_quantized_configuration(
            small_trained_model,
            calibration=rng.random((24, 3, 32, 32)).astype(np.float32))
        pipeline = ITaskPipeline(qcfg)
        task = get_task("roadside_hazards")
        spec = TaskSpec.from_definition(task)
        scenes = SceneGenerator(SceneConfig(), seed=17).generate_batch(4)
        detections = pipeline.detect(spec, scenes[0])
        assert all(0.0 <= d.score <= 1.0 for d in detections)
        accuracy = pipeline.evaluate(spec, scenes)
        # the model here is trained for only a few epochs, so this is a
        # plumbing check, not a quality bar (E1 covers quality)
        assert 0.0 <= accuracy <= 1.0

    def test_kg_improves_over_no_kg(self, small_trained_model):
        """The headline qualitative claim: KG conditioning helps task
        detection (fewer false fires on irrelevant objects)."""
        rng = np.random.default_rng(0)
        qcfg = build_quantized_configuration(
            small_trained_model,
            calibration=rng.random((24, 3, 32, 32)).astype(np.float32))
        task = get_task("stop_control")  # narrow task: KG filtering matters
        spec = TaskSpec.from_definition(task)
        scenes = SceneGenerator(SceneConfig(), seed=23).generate_batch(8)
        with_kg = ITaskPipeline(qcfg, use_kg=True).evaluate(spec, scenes)
        without_kg = ITaskPipeline(qcfg, use_kg=False).evaluate(spec, scenes)
        assert with_kg >= without_kg


class TestArtifactBuilder:
    def test_cache_roundtrip(self, tmp_path):
        builder = ArtifactBuilder(root=str(tmp_path), seed=99,
                                  teacher_epochs=1, student_epochs=1,
                                  verbose=False)
        teacher_a = builder.teacher()
        # second call must load from cache, not retrain
        teacher_b = builder.teacher()
        a = teacher_a.state_dict()
        b = teacher_b.state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert builder.registry.exists(builder._key("teacher"))
