"""Accelerator configuration (paper Table II defaults).

The shipped defaults reproduce the synthesized CapsAcc instance: a 16x16
systolic array at 250 MHz, 8-bit data/weights, 25-bit partial sums, 8 MB of
on-chip memory, and the three buffers between memory and datapath.  Buffer
capacities are not printed in the paper; the defaults are sized from the
Table III area ratios (the data buffer is by far the largest) and are
configurable for the ablation sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class AcceleratorConfig:
    """Static parameters of one CapsAcc instance."""

    rows: int = 16
    cols: int = 16
    clock_mhz: float = 250.0
    data_bits: int = 8
    weight_bits: int = 8
    acc_bits: int = 25
    #: Words per cycle deliverable by the data buffer to the array edge.
    data_bus_words: int = 16
    #: Words per cycle deliverable by the weight buffer to the array top.
    weight_bus_words: int = 16
    #: Weight double-buffering (the Weight2 register of Fig 11b).  When
    #: false, weight loads stall compute (ablation abl-reuse).
    weight_double_buffer: bool = True
    #: Feedback path from activation outputs back to the array inputs
    #: (the multiplexers of Fig 10).  When false, reused operands must
    #: round-trip through the data buffer (costing buffer bandwidth).
    feedback_path: bool = True
    #: Depth of each per-column accumulator FIFO (paper Fig 11c): how many
    #: pending partial sums one column can hold during a K-chunk sequence.
    #: ``None`` sizes the FIFO to the job (the idealized accounting used
    #: for paper calibration); a fixed depth forces streams longer than
    #: the FIFO to M-tile, re-loading every weight tile once per M-pass.
    acc_fifo_depth: int | None = None
    data_buffer_kb: float = 256.0
    routing_buffer_kb: float = 64.0
    weight_buffer_kb: float = 24.0
    onchip_memory_mb: float = 8.0
    voltage_v: float = 1.05
    technology_nm: int = 32

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("array dimensions must be positive")
        if self.clock_mhz <= 0:
            raise ConfigError("clock frequency must be positive")
        if min(self.data_bits, self.weight_bits, self.acc_bits) < 2:
            raise ConfigError("bit widths must be at least 2")
        if self.acc_bits < self.data_bits + self.weight_bits:
            raise ConfigError(
                "accumulator must hold a full data x weight product"
            )
        if self.data_bus_words < 1 or self.weight_bus_words < 1:
            raise ConfigError("bus widths must be positive")
        if self.acc_fifo_depth is not None and self.acc_fifo_depth < 1:
            raise ConfigError("accumulator FIFO depth must be positive")

    @property
    def num_pes(self) -> int:
        """Number of processing elements."""
        return self.rows * self.cols

    @property
    def cycle_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1e3 / self.clock_mhz

    @property
    def peak_macs_per_second(self) -> float:
        """Peak MAC throughput."""
        return self.num_pes * self.clock_mhz * 1e6

    def cycles_to_us(self, cycles: int | float) -> float:
        """Convert a cycle count to microseconds."""
        return cycles * self.cycle_ns / 1e3

    def cycles_to_ms(self, cycles: int | float) -> float:
        """Convert a cycle count to milliseconds."""
        return cycles * self.cycle_ns / 1e6

    def with_array(self, rows: int, cols: int) -> "AcceleratorConfig":
        """A copy with a different systolic array size (ablations)."""
        return replace(self, rows=rows, cols=cols)

    def without_weight_reuse(self) -> "AcceleratorConfig":
        """A copy with the Weight2 double-buffer removed (ablation)."""
        return replace(self, weight_double_buffer=False)


def paper_config() -> AcceleratorConfig:
    """The synthesized configuration of paper Table II."""
    return AcceleratorConfig()
