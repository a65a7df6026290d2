"""Float inference never runs the autograd modules.

Every float inference caller goes through ``VisionTransformer.infer``
(the shared numpy forward); the module forward is for training.  These
tests make :meth:`TransformerBlock.forward` raise and drive each float
inference entry point.
"""

import numpy as np
import pytest

from repro.core import ITaskPipeline, TaskSpec
from repro.core.configurations import (
    QuantizedConfiguration,
    TaskSpecificConfiguration,
)
from repro.data import SceneConfig, SceneGenerator, attribute_head_spec, get_task
from repro.data.datasets import num_classes
from repro.detect import TaskDetector
from repro.distill import DistillationConfig, Distiller, evaluate_model
from repro.kg import GraphMatcher, SimulatedLLM
from repro.nn import TransformerBlock, VisionTransformer, ViTConfig
from repro.serve import EngineConfig
from repro.stream import StreamingDetector

TASK = "roadside_hazards"


def _no_module_forward(*args, **kwargs):
    raise AssertionError("the autograd module forward ran on an inference path")


@pytest.fixture()
def no_module_forward(monkeypatch):
    monkeypatch.setattr(TransformerBlock, "forward", _no_module_forward)


@pytest.fixture(scope="module")
def scenes():
    return list(SceneGenerator(SceneConfig(grid=3), seed=5).generate_batch(4))


@pytest.fixture(scope="module")
def matcher():
    return GraphMatcher(SimulatedLLM().generate_for_task(get_task(TASK)))


def test_detect_batch(no_module_forward, student_vit, matcher, scenes):
    detector = TaskDetector(student_vit, matcher, score_threshold=0.0)
    results = detector.detect_batch(scenes)
    assert len(results) == len(scenes) and all(results)


def test_streaming_update_many(no_module_forward, student_vit, matcher,
                               scenes):
    tracks = StreamingDetector(student_vit, matcher=matcher).update_many(scenes)
    assert len(tracks) == len(scenes)


def test_engine(no_module_forward, scenes):
    task = get_task(TASK)
    model = VisionTransformer(
        ViTConfig.student(num_classes(), attribute_head_spec()),
        rng=np.random.default_rng(0))
    specialist = TaskSpecificConfiguration(
        name=f"specialist:{task.name}", kind="task_specific",
        student=model, task_name=task.name)
    placeholder = QuantizedConfiguration(
        name="quantized:placeholder", kind="quantized", quantized=None)
    pipeline = ITaskPipeline(placeholder, specialists={task.name: specialist})
    pipeline.selector.register_specialist(
        task.name, pipeline.llm.generate_for_task(task))
    session = pipeline.session(TaskSpec.from_definition(task))
    with session.engine(EngineConfig(max_batch=2)) as engine:
        futures = [engine.submit(scene) for scene in scenes]
        assert all(future.result(timeout=30.0) is not None
                   for future in futures)


def test_evaluate_and_classify(no_module_forward, student_vit, tiny_dataset):
    metrics = evaluate_model(student_vit, tiny_dataset)
    assert 0.0 <= metrics["val_accuracy"] <= 1.0
    assert student_vit.classify(tiny_dataset.images[:5]).shape == (5,)


def test_distiller_teacher_targets(monkeypatch, tiny_dataset):
    """Without attention transfer the teacher's targets come from the
    inference forward; the student still trains on the modules."""
    config = ViTConfig.student(num_classes(), attribute_head_spec())
    teacher = VisionTransformer(config, rng=np.random.default_rng(0))
    student = VisionTransformer(config, rng=np.random.default_rng(1))
    for block in teacher.encoder.blocks:
        monkeypatch.setattr(block, "forward", _no_module_forward)
    subset = tiny_dataset.subset(range(32))
    distiller = Distiller(teacher, student, DistillationConfig(
        epochs=1, batch_size=len(subset), attention_weight=0.0))
    before = student.head.weight.data.copy()
    history = distiller.distill(subset)
    assert np.isfinite(history[-1]["loss"])
    assert not np.array_equal(student.head.weight.data, before)
