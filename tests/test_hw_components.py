"""Vector unit, memory model, ISA containers, energy table."""

import numpy as np
import pytest
from scipy import special

from repro.hw import (
    AcceleratorConfig,
    DmaDirection,
    DmaOp,
    EnergyTable,
    GemmOp,
    MemoryModel,
    Program,
    VectorKind,
    VectorOp,
    VectorUnit,
    gelu_lut,
)
from repro.hw.vector_unit import GELU_LUT_RANGE, default_passes


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(array_rows=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(clock_mhz=0)

    def test_derived_quantities(self):
        cfg = AcceleratorConfig(array_rows=16, array_cols=16, clock_mhz=500)
        assert cfg.peak_macs_per_cycle == 256
        assert cfg.peak_int8_tops == pytest.approx(2 * 256 * 500e6 / 1e12)
        assert cfg.cycles_to_seconds(500e6) == pytest.approx(1.0)

    def test_presets_ordered_by_size(self):
        assert (AcceleratorConfig.small().peak_macs_per_cycle
                < AcceleratorConfig.edge_default().peak_macs_per_cycle
                < AcceleratorConfig.large().peak_macs_per_cycle)

    def test_energy_mac_scales_with_bits(self):
        table = EnergyTable()
        assert table.mac_pj(4, 8) < table.mac_pj(8, 8) < table.mac_pj(16, 16)


class TestIsa:
    def test_gemm_op_accounting(self):
        op = GemmOp("g", m=4, k=8, n=16, weight_bits=8, act_bits=8)
        assert op.macs == 4 * 8 * 16
        assert op.act_bytes == 4 * 8
        assert op.weight_bytes == 8 * 16
        assert op.out_bytes == 4 * 16 * 4

    def test_gemm_bit_scaling(self):
        op4 = GemmOp("g", m=4, k=8, n=16, weight_bits=4)
        assert op4.weight_bytes == 8 * 16 // 2

    def test_op_validation(self):
        with pytest.raises(ValueError):
            GemmOp("g", m=0, k=1, n=1)
        with pytest.raises(ValueError):
            VectorOp("v", VectorKind.ADD, elements=0)
        with pytest.raises(ValueError):
            DmaOp("d", DmaDirection.LOAD, num_bytes=0)

    def test_program_aggregates(self):
        program = Program("p")
        program.append(GemmOp("g1", m=2, k=3, n=4))
        program.append(VectorOp("v1", VectorKind.ADD, elements=10, passes=2))
        program.append(DmaOp("d1", DmaDirection.LOAD, num_bytes=100))
        assert program.total_macs() == 24
        assert program.total_vector_elements() == 20
        assert program.total_dma_bytes() == 100
        assert program.counts() == {"gemm": 1, "vector": 1, "dma": 1}
        assert "1 GEMMs" in program.summary()
        assert len(program) == 3


class TestVectorUnit:
    def test_cycles_scale_with_elements(self):
        vu = VectorUnit(AcceleratorConfig())
        small = vu.op_cycles(VectorOp("v", VectorKind.ADD, elements=32))
        large = vu.op_cycles(VectorOp("v", VectorKind.ADD, elements=3200))
        assert large > small * 10

    def test_passes_multiply_cost(self):
        vu = VectorUnit(AcceleratorConfig())
        one = vu.op_cycles(VectorOp("v", VectorKind.ADD, elements=128, passes=1))
        three = vu.op_cycles(VectorOp("v", VectorKind.SOFTMAX, elements=128, passes=3))
        assert three == 3 * one

    def test_default_passes(self):
        assert default_passes(VectorKind.LAYERNORM) == 3
        assert default_passes(VectorKind.GELU) == 1


class TestGeluLut:
    def test_accuracy_in_range(self):
        x = np.linspace(GELU_LUT_RANGE[0], GELU_LUT_RANGE[1], 4001)
        exact = 0.5 * x * (1 + special.erf(x / np.sqrt(2)))
        assert np.abs(gelu_lut(x) - exact).max() < 1e-2

    def test_saturation_outside_range(self):
        assert gelu_lut(np.array([100.0]))[0] == pytest.approx(100.0)
        assert gelu_lut(np.array([-100.0]))[0] == 0.0

    def test_monotone_for_positive(self):
        x = np.linspace(0, 8, 100)
        y = gelu_lut(x)
        assert (np.diff(y) >= -1e-7).all()


class TestMemoryModel:
    def test_dma_cycles_include_latency(self):
        cfg = AcceleratorConfig()
        mem = MemoryModel(cfg)
        timing = mem.dma_cycles(DmaOp("d", DmaDirection.LOAD, num_bytes=1))
        assert timing.cycles >= cfg.dram_latency_cycles + 1

    def test_dma_bandwidth_bound(self):
        cfg = AcceleratorConfig(dram_gbps=8.0, clock_mhz=500.0)
        mem = MemoryModel(cfg)
        num_bytes = 16_000_000
        timing = mem.dma_cycles(DmaOp("d", DmaDirection.LOAD, num_bytes=num_bytes))
        min_cycles = num_bytes / cfg.dram_bytes_per_cycle
        assert timing.cycles >= min_cycles

    def test_capacity_checks(self):
        cfg = AcceleratorConfig(weight_sram_kib=1)  # 1 KiB
        mem = MemoryModel(cfg)
        assert mem.weights_fit(1024)
        assert not mem.weights_fit(1025)
