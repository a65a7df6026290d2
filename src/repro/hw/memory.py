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
    """DMA timing plus SRAM capacity checks."""

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

    def check_layer(self, weight_bytes: int, act_bytes: int,
                    out_bytes: int) -> None:
        """Raise if a single layer cannot be resident during execution."""
        cfg = self.config
        if weight_bytes > cfg.weight_sram_kib * 1024:
            raise ValueError(
                f"layer weights ({weight_bytes} B) exceed weight SRAM "
                f"({cfg.weight_sram_kib} KiB); tiling over DRAM required"
            )
        if act_bytes > cfg.act_sram_kib * 1024:
            raise ValueError(
                f"layer activations ({act_bytes} B) exceed activation SRAM "
                f"({cfg.act_sram_kib} KiB)"
            )
        if out_bytes > cfg.accum_sram_kib * 1024:
            raise ValueError(
                f"layer accumulators ({out_bytes} B) exceed accumulator SRAM "
                f"({cfg.accum_sram_kib} KiB)"
            )
