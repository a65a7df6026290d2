"""Program simulator: latency, utilization, and energy.

Execution model: GEMMs occupy the systolic array, vector ops the vector
unit, DMAs the DRAM channel.  :meth:`Simulator.simulate` walks the
program once and places every op on one timeline: an op starts where the
previous op ended, or, after an engine switch, up to
:data:`OVERLAP_EFFICIENCY` of the shorter of the two ops earlier (double
buffering); it never starts before its own engine's previous op has
ended.  This captures the first-order pipelining a real scheduler
achieves without simulating a full dependency graph, and the report's
records carry the placement (:meth:`PerfReport.gantt`).

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

# Fraction of the shorter of two consecutive ops on different engines
# that double buffering hides behind the longer one.
OVERLAP_EFFICIENCY = 0.8

ENGINES = ("gemm", "vector", "dma")


@dataclasses.dataclass
class OpRecord:
    """Per-operation simulation record and its place on the timeline."""

    name: str
    engine: str          # "gemm" | "vector" | "dma"
    cycles: int
    energy_pj: float
    utilization: float = 1.0
    start: int = 0       # cycle the op starts; set by Simulator.simulate
    end: int = 0


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

    def engine_occupancy(self, engine: str) -> float:
        """Fraction of the makespan ``engine`` is busy."""
        if not self.total_cycles:
            return 0.0
        return self.engine_cycles[engine] / self.total_cycles

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of the records, one row per engine."""
        if not self.records or self.total_cycles == 0:
            return "(empty timeline)"
        scale = width / self.total_cycles
        lines = [f"timeline: {self.total_cycles} cycles "
                 f"('#' = ~{max(1, int(1 / scale))} cycles)"]
        for engine in ENGINES:
            row = [" "] * width
            for r in self.records:
                if r.engine == engine:
                    lo = min(width - 1, int(r.start * scale))
                    hi = min(width, max(lo + 1, int(r.end * scale)))
                    row[lo:hi] = "#" * (hi - lo)
            occupancy = self.engine_occupancy(engine) * 100.0
            lines.append(f"{engine:<6} |{''.join(row)}| {occupancy:5.1f} %")
        return "\n".join(lines)

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

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
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

            with obs.span("hw.step_loop"):
                clock = 0.0
                engine_free = dict.fromkeys(ENGINES, 0.0)
                previous: Optional[OpRecord] = None
                for record in records:
                    start = clock
                    if previous is not None and record.engine != previous.engine:
                        # Hide part of the shorter op behind the longer one.
                        start -= OVERLAP_EFFICIENCY * min(record.cycles,
                                                          previous.cycles)
                    # An engine finishes its previous op before it
                    # starts the next one.
                    start = max(start, engine_free[record.engine])
                    clock = engine_free[record.engine] = start + record.cycles
                    record.start, record.end = int(round(start)), int(round(clock))
                    previous = record
            total_cycles = int(round(clock))
            obs.count("hw.ops_simulated", len(records))
            span.set_attr(ops=len(records), total_cycles=total_cycles)
        latency_s = self.config.cycles_to_seconds(total_cycles)

        dynamic_pj: Dict[str, float] = dict.fromkeys(ENGINES, 0.0)
        engine_cycles: Dict[str, int] = dict.fromkeys(ENGINES, 0)
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
