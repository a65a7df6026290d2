"""Memory hierarchy model: SRAM scratchpads and the DRAM channel."""

from __future__ import annotations

import dataclasses
import math

from repro.hw.config import AcceleratorConfig
from repro.hw.isa import DmaOp


@dataclasses.dataclass(frozen=True)
class DmaTiming:
    cycles: int
    num_bytes: int


class MemoryModel:
    """DMA timing plus the weight SRAM capacity check."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def dma_cycles(self, op: DmaOp) -> DmaTiming:
        cfg = self.config
        transfer = math.ceil(op.num_bytes / cfg.dram_bytes_per_cycle)
        return DmaTiming(cycles=cfg.dram_latency_cycles + transfer,
                         num_bytes=op.num_bytes)

    # ------------------------------------------------------------------
    def weights_fit(self, total_weight_bytes: int) -> bool:
        return total_weight_bytes <= self.config.weight_sram_kib * 1024
