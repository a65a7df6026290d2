"""The simulator's op timeline and design-space exploration."""

import numpy as np
import pytest

from repro.hw import (
    AcceleratorConfig,
    Compiler,
    DesignPoint,
    GemmOp,
    Program,
    Simulator,
    VectorKind,
    VectorOp,
    pareto_front,
    sweep,
)
from repro.hw.simulator import ENGINES
from repro.quant import quantize_vit


@pytest.fixture(scope="module")
def quantized(student_vit):
    rng = np.random.default_rng(0)
    return quantize_vit(student_vit,
                        rng.random((16, 3, 32, 32)).astype(np.float32))


@pytest.fixture(scope="module")
def program(quantized):
    return Compiler(AcceleratorConfig.edge_default()).compile(quantized)


@pytest.fixture(scope="module")
def report(program):
    return Simulator(AcceleratorConfig.edge_default()).simulate(program)


class TestSchedule:
    """The simulator's one walk places every op on the timeline."""

    def test_total_cycles_is_last_end(self, report):
        assert report.total_cycles == report.records[-1].end
        assert report.total_cycles == max(r.end for r in report.records)

    def test_every_op_scheduled(self, program, report):
        assert len(report.records) == len(program)
        for record in report.records:
            assert record.end > record.start >= 0

    def test_same_engine_ops_serialize(self, report):
        for engine in ENGINES:
            records = [r for r in report.records if r.engine == engine]
            for a, b in zip(records, records[1:]):
                assert b.start >= a.end

    def test_occupancy_bounds(self, report):
        for engine in ENGINES:
            assert 0.0 <= report.engine_occupancy(engine) <= 1.0

    def test_gantt_renders(self, report):
        chart = report.gantt()
        assert "gemm" in chart and "vector" in chart and "dma" in chart
        assert "#" in chart

    def test_engine_waits_for_its_previous_op(self):
        """gemm -> short vector -> gemm: the engine switches would pull
        the second GEMM back into the first one's cycles; the array is
        busy until the first GEMM ends, so the two GEMMs run back to back."""
        program = Program(name="gemm-vector-gemm")
        program.append(GemmOp("g0", m=64, k=64, n=64))
        program.append(VectorOp("v", VectorKind.ADD, elements=64))
        program.append(GemmOp("g1", m=64, k=64, n=64))
        report = Simulator(AcceleratorConfig.edge_default()).simulate(program)
        g0, v, g1 = report.records
        assert v.cycles < g0.cycles and v.cycles < g1.cycles
        assert g1.start == g0.end
        assert report.total_cycles == report.engine_cycles["gemm"]


class TestDesignSpace:
    @pytest.fixture(scope="class")
    def points(self, quantized):
        return sweep(quantized, array_sizes=((8, 8), (16, 16)),
                     clocks_mhz=(250.0, 500.0))

    def test_sweep_size(self, points):
        assert len(points) == 4

    def test_rows_well_formed(self, points):
        for point in points:
            row = point.as_row()
            assert row["latency_ms"] > 0
            assert row["energy_uj"] > 0
            assert row["area_mm2"] > 0

    def test_higher_clock_lower_latency(self, points):
        by_key = {(p.config.array_rows, p.config.clock_mhz): p for p in points}
        assert (by_key[(16, 500.0)].latency_ms
                < by_key[(16, 250.0)].latency_ms)

    def test_pareto_front_is_nondominated(self, points):
        front = pareto_front(points)
        assert front
        for a in front:
            assert not any(b.dominates(a) for b in points)

    def test_pareto_front_sorted(self, points):
        front = pareto_front(points)
        latencies = [p.latency_ms for p in front]
        assert latencies == sorted(latencies)

    def test_dominance_semantics(self):
        cfg = AcceleratorConfig.edge_default()
        better = DesignPoint(cfg, latency_ms=1.0, energy_uj=1.0,
                             area_mm2=1.0, utilization=0.5)
        worse = DesignPoint(cfg, latency_ms=2.0, energy_uj=1.0,
                            area_mm2=1.0, utilization=0.5)
        assert better.dominates(worse)
        assert not worse.dominates(better)
        assert not better.dominates(better)
