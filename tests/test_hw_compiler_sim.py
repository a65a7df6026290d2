"""Compiler lowering and simulator execution on real quantized models."""

import dataclasses

import numpy as np
import pytest

from repro.data import attribute_head_spec
from repro.data.datasets import num_classes
from repro.hw import (
    AcceleratorConfig,
    Compiler,
    GemmOp,
    GPUConfig,
    GPUModel,
    PlatformPower,
    Program,
    Simulator,
    SystolicArray,
    compile_model,
    energy_per_frame_j,
    escalation_cost,
    float_plan,
    streaming_comparison,
)
from repro.hw.isa import DmaOp, VectorOp
from repro.nn import VisionTransformer, ViTConfig
from repro.nn.inference import site_plan
from repro.quant import quantize_vit
from repro.vlm import VLMConfig


@pytest.fixture(scope="module")
def quantized_model(student_vit):
    rng = np.random.default_rng(0)
    calibration = rng.random((24, 3, 32, 32)).astype(np.float32)
    return quantize_vit(student_vit, calibration)


@pytest.fixture(scope="module")
def program(quantized_model):
    return compile_model(quantized_model)


class TestCompiler:
    def test_gemm_count(self, program, quantized_model):
        cfg = quantized_model.config
        gemms = [op for op in program if isinstance(op, GemmOp)]
        # per block: qkv + proj + fc1 + fc2 + 2*heads attention products
        expected = 1 + cfg.depth * (4 + 2 * cfg.num_heads) + 1 + len(
            quantized_model.attribute_names)
        assert len(gemms) == expected

    def test_weight_gemms_reference_sites(self, program, quantized_model):
        sites = {op.site for op in program
                 if isinstance(op, GemmOp) and op.site is not None}
        assert sites == set(quantized_model.layers)

    def test_mac_count_matches_model_flops(self, program, quantized_model):
        """Compiled MAC count equals the analytic ViT MAC count."""
        analytic = quantized_model.model.flops_per_image()
        assert program.total_macs() == analytic

    def test_batch_scales_macs(self, quantized_model):
        b1 = compile_model(quantized_model, batch=1).total_macs()
        b4 = compile_model(quantized_model, batch=4).total_macs()
        assert b4 == 4 * b1

    def test_weights_pinned_when_fitting(self, program):
        """Student weights fit in SRAM: no weight-load DMA emitted."""
        dma_names = [op.name for op in program if isinstance(op, DmaOp)]
        assert "load_weights" not in dma_names
        assert "load_image" in dma_names and "store_logits" in dma_names

    def test_weights_streamed_when_too_large(self, quantized_model):
        tiny_sram = AcceleratorConfig(weight_sram_kib=1)
        program = Compiler(tiny_sram).compile(quantized_model)
        assert any(op.name == "load_weights" for op in program
                   if isinstance(op, DmaOp))

    def test_invalid_batch(self, quantized_model):
        with pytest.raises(ValueError):
            compile_model(quantized_model, batch=0)


class TestSimulator:
    def test_report_fields(self, program):
        report = Simulator(AcceleratorConfig.edge_default()).simulate(program)
        assert report.total_cycles > 0
        assert report.latency_s > 0
        assert report.energy_j > 0
        assert 0 < report.array_utilization <= 1.0
        assert set(report.engine_cycles) == {"gemm", "vector", "dma"}
        assert "static" in report.energy_breakdown_j
        assert "latency" in report.summary()

    def test_latency_at_least_longest_engine(self, program):
        sim = Simulator(AcceleratorConfig.edge_default())
        report = sim.simulate(program)
        assert report.total_cycles >= max(report.engine_cycles.values())

    def test_overlap_reduces_latency(self, program):
        report = Simulator(AcceleratorConfig.edge_default()).simulate(program)
        assert report.total_cycles < sum(r.cycles for r in report.records)

    def test_bigger_array_faster(self, quantized_model):
        small = Simulator(AcceleratorConfig.small()).simulate(
            Compiler(AcceleratorConfig.small()).compile(quantized_model))
        large = Simulator(AcceleratorConfig.large()).simulate(
            Compiler(AcceleratorConfig.large()).compile(quantized_model))
        assert large.latency_s < small.latency_s

    def test_energy_breakdown_sums(self, program):
        report = Simulator(AcceleratorConfig.edge_default()).simulate(program)
        assert sum(report.energy_breakdown_j.values()) == pytest.approx(
            report.energy_j)

    def test_throughput_consistency(self, program):
        report = Simulator(AcceleratorConfig.edge_default()).simulate(program)
        assert report.throughput_inferences_per_s == pytest.approx(
            report.batch / report.latency_s)


def _vit_configs():
    student = ViTConfig.student(num_classes=num_classes(),
                                attribute_heads=attribute_head_spec())
    return {
        "student": student,
        "specialist": dataclasses.replace(student, with_task_head=True),
        "vlm_tower": VLMConfig().image_vit_config(),
    }


class TestGPUModel:
    def test_report(self, quantized_model):
        report = GPUModel(GPUConfig.jetson_class()).simulate(
            quantized_model.config)
        assert report.latency_s > 0
        assert report.kernel_count > 0
        board = PlatformPower.gpu_board()
        assert report.energy_j == pytest.approx(
            (board.idle_w + board.active_extra_w) * report.latency_s)

    def test_launch_overhead_dominates_small_model(self, quantized_model):
        report = GPUModel(GPUConfig.jetson_class()).simulate(
            quantized_model.config)
        assert report.time_breakdown_s["launch"] > report.time_breakdown_s["memory"]

    def test_fast_host_faster(self, quantized_model):
        slow = GPUModel(GPUConfig.jetson_class()).simulate(quantized_model.config)
        fast = GPUModel(GPUConfig.fast_host()).simulate(quantized_model.config)
        assert fast.latency_s < slow.latency_s

    def test_accelerator_beats_gpu(self, program, quantized_model):
        """The paper's headline direction: accelerator wins at batch 1."""
        accel = Simulator(AcceleratorConfig.edge_default()).simulate(program)
        gpu = GPUModel(GPUConfig.jetson_class()).simulate(quantized_model.config)
        assert gpu.latency_s / accel.latency_s > 1.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GPUConfig(fusion_factor=1.5)

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("name", ["student", "specialist", "vlm_tower"])
    def test_float_plan_is_the_float_forward(self, name, batch):
        """The GPU lowers the site plan without the quantize each weight
        GEMM's input gets, and its MACs are the forward's."""
        config = _vit_configs()[name]
        plan = float_plan(config, batch)
        assert not any(op.kind == "quantize" for op in plan)
        assert (len(site_plan(config, batch)) - len(plan)
                == sum(op.site is not None for op in plan))
        model = VisionTransformer(config, rng=np.random.default_rng(0))
        assert sum(op.macs for op in plan) == batch * model.flops_per_image()

    @pytest.mark.parametrize("name", ["student", "specialist", "vlm_tower"])
    def test_charges_no_quantize_op(self, name):
        """With no fusion every plan op but the DMAs is one kernel: the
        quantizes, 15 for the deployed student, are not among them."""
        config = _vit_configs()[name]
        kinds = [op.kind for op in site_plan(config)]
        report = GPUModel(GPUConfig(fusion_factor=0.0)).simulate(config)
        assert kinds.count("quantize") > 0
        assert report.kernel_count == (len(kinds) - kinds.count("quantize")
                                       - kinds.count("load")
                                       - kinds.count("store"))

    def test_escalation_prices_the_specialist(self, quantized_model):
        """The escalation runs the float specialist, task head included,
        on the GPU against the compiled generalist on the accelerator."""
        specialist = dataclasses.replace(quantized_model.config,
                                         with_task_head=True)
        assert {op.site for op in float_plan(specialist)
                if op.site and op.site.startswith("task_head.")} == {
            "task_head.fc1", "task_head.fc2"}
        cost = escalation_cost(quantized_model, specialist)
        gpu = GPUModel(GPUConfig.jetson_class())
        accel_config = AcceleratorConfig.edge_default()
        accel = Simulator(accel_config).simulate(
            Compiler(accel_config).compile(quantized_model))
        assert cost["accel_ms"] == accel.latency_ms
        assert cost["gpu_ms"] == gpu.simulate(specialist).latency_ms
        assert cost["gpu_ms"] > gpu.simulate(quantized_model.config).latency_ms
        assert cost["cost_ratio"] == pytest.approx(
            cost["gpu_ms"] / cost["accel_ms"])


class TestPlatform:
    def test_energy_per_frame_floor(self):
        platform = PlatformPower("p", idle_w=1.0, active_extra_w=0.0)
        assert energy_per_frame_j(platform, 1e-3, fps=10) == pytest.approx(0.1)

    def test_active_adder(self):
        idle_only = PlatformPower("a", idle_w=1.0, active_extra_w=0.0)
        with_active = PlatformPower("b", idle_w=1.0, active_extra_w=5.0)
        assert (energy_per_frame_j(with_active, 1e-3, 30)
                > energy_per_frame_j(idle_only, 1e-3, 30))

    def test_cannot_sustain_fps(self):
        with pytest.raises(ValueError):
            energy_per_frame_j(PlatformPower.gpu_board(), 0.2, fps=30)

    def test_streaming_comparison_keys(self):
        result = streaming_comparison(accel_latency_s=3e-5, gpu_latency_s=1e-4)
        assert result["speedup"] == pytest.approx(1e-4 / 3e-5)
        assert 0 < result["energy_reduction_pct"] < 100
