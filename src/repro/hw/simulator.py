"""Program simulator: latency, utilization, and energy.

Execution model: GEMMs occupy the systolic array, vector ops the vector
unit, DMAs the DRAM channel.  Consecutive operations on *different*
engines overlap under double buffering up to a configurable overlap
efficiency; operations on the same engine serialize.  This captures the
first-order pipelining a real scheduler achieves without simulating a
full dependency graph.

Energy model: per-action constants from the config's
:class:`~repro.hw.config.EnergyTable` — MAC energy (scaled by operand
bits), SRAM traffic for GEMM operands/results, DRAM traffic for DMAs,
vector-lane operations, plus static power integrated over the latency.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import DmaOp, GemmOp, Program, VectorOp
from repro.hw.memory import MemoryModel
from repro.hw.systolic import SystolicArray
from repro.hw.vector_unit import VectorUnit
from repro.obs import get_registry


@dataclasses.dataclass
class OpRecord:
    """Per-operation simulation record."""

    name: str
    engine: str          # "gemm" | "vector" | "dma"
    cycles: int
    energy_pj: float
    utilization: float = 1.0


@dataclasses.dataclass
class PerfReport:
    """Simulation result for one program."""

    config_name: str
    program_name: str
    batch: int
    total_cycles: int
    latency_s: float
    energy_j: float
    records: List[OpRecord]
    engine_cycles: Dict[str, int]
    energy_breakdown_j: Dict[str, float]

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3

    @property
    def throughput_inferences_per_s(self) -> float:
        return self.batch / self.latency_s

    @property
    def energy_per_inference_j(self) -> float:
        return self.energy_j / self.batch

    @property
    def array_utilization(self) -> float:
        """MAC utilization of the systolic array while it is active."""
        gemm_records = [r for r in self.records if r.engine == "gemm"]
        if not gemm_records:
            return 0.0
        weighted = sum(r.utilization * r.cycles for r in gemm_records)
        cycles = sum(r.cycles for r in gemm_records)
        return weighted / cycles

    def summary(self) -> str:
        lines = [
            f"{self.program_name} on {self.config_name} (batch={self.batch})",
            f"  latency       : {self.latency_ms:.3f} ms "
            f"({self.total_cycles} cycles)",
            f"  throughput    : {self.throughput_inferences_per_s:.1f} inf/s",
            f"  energy        : {self.energy_per_inference_j * 1e3:.3f} mJ/inference",
            f"  array util    : {self.array_utilization * 100:.1f} %",
        ]
        for engine, cycles in sorted(self.engine_cycles.items()):
            lines.append(f"  {engine:<6} cycles : {cycles}")
        for component, joules in sorted(self.energy_breakdown_j.items()):
            lines.append(f"  E[{component:<7}]  : {joules * 1e3:.3f} mJ")
        return "\n".join(lines)


class Simulator:
    """Execute a :class:`Program` against an :class:`AcceleratorConfig`."""

    def __init__(self, config: AcceleratorConfig,
                 overlap_efficiency: float = 0.8) -> None:
        if not 0.0 <= overlap_efficiency <= 1.0:
            raise ValueError("overlap_efficiency must be in [0, 1]")
        self.config = config
        self.overlap_efficiency = overlap_efficiency
        self.array = SystolicArray(config)
        self.vector_unit = VectorUnit(config)
        self.memory = MemoryModel(config)

    # ------------------------------------------------------------------
    def _op_record(self, op) -> OpRecord:
        energy = self.config.energy
        if isinstance(op, GemmOp):
            timing = self.array.gemm_cycles(op)
            mac_energy = op.macs * energy.mac_pj(op.weight_bits, op.act_bits)
            sram_traffic = (
                op.act_bytes * energy.sram_read_pj_per_byte
                + op.weight_bytes * energy.sram_read_pj_per_byte
                + op.out_bytes * energy.sram_write_pj_per_byte
            )
            return OpRecord(op.name, "gemm", timing.cycles,
                            mac_energy + sram_traffic, timing.utilization)
        if isinstance(op, VectorOp):
            cycles = self.vector_unit.op_cycles(op)
            pj = op.elements * op.passes * energy.vector_op_pj
            # vector data passes through SRAM once per pass
            pj += op.elements * op.passes * (
                energy.sram_read_pj_per_byte + energy.sram_write_pj_per_byte
            )
            return OpRecord(op.name, "vector", cycles, pj)
        if isinstance(op, DmaOp):
            timing = self.memory.dma_cycles(op)
            pj = op.num_bytes * energy.dram_pj_per_byte
            return OpRecord(op.name, "dma", timing.cycles, pj)
        raise TypeError(f"unknown op type {type(op)!r}")

    # ------------------------------------------------------------------
    def simulate(self, program: Program) -> PerfReport:
        obs = get_registry()
        with obs.span("hw.simulate", program=program.name, batch=program.batch,
                      config=self.config.name) as span:
            with obs.span("hw.op_model"):
                records = [self._op_record(op) for op in program]

            # Latency: serialize within an engine; overlap engine switches.
            with obs.span("hw.step_loop"):
                total = 0.0
                previous_engine: Optional[str] = None
                previous_cycles = 0
                for record in records:
                    if previous_engine is None or record.engine == previous_engine:
                        total += record.cycles
                    else:
                        # Hide part of the shorter op behind the longer one.
                        hidden = self.overlap_efficiency * min(record.cycles, previous_cycles)
                        total += record.cycles - hidden
                    previous_engine = record.engine
                    previous_cycles = record.cycles
            total_cycles = int(round(total))
            obs.count("hw.ops_simulated", len(records))
            span.set_attr(ops=len(records), total_cycles=total_cycles)
        latency_s = self.config.cycles_to_seconds(total_cycles)

        dynamic_pj: Dict[str, float] = {"gemm": 0.0, "vector": 0.0, "dma": 0.0}
        engine_cycles: Dict[str, int] = {"gemm": 0, "vector": 0, "dma": 0}
        for record in records:
            dynamic_pj[record.engine] += record.energy_pj
            engine_cycles[record.engine] += record.cycles

        static_j = self.config.energy.static_mw * 1e-3 * latency_s
        breakdown = {k: v * 1e-12 for k, v in dynamic_pj.items()}
        breakdown["static"] = static_j
        energy_j = sum(breakdown.values())

        return PerfReport(
            config_name=self.config.name,
            program_name=program.name,
            batch=program.batch,
            total_cycles=total_cycles,
            latency_s=latency_s,
            energy_j=energy_j,
            records=records,
            engine_cycles=engine_cycles,
            energy_breakdown_j=breakdown,
        )
