"""Buffers with bandwidth limits and access counting.

The paper's architecture (Fig 10) places three buffers between the on-chip
memories and the datapath: the Data Buffer (left edge of the array), the
Weight Buffer (top edge) and the Routing Buffer (coupling coefficients and
capsule state during routing).  Buffers avoid repeated memory reads — the
data-reuse theme of the paper — so the simulator counts every word moved
per buffer; the synthesis model converts counts into dynamic energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass
class Buffer:
    """An on-chip buffer with a fixed per-cycle word bandwidth."""

    name: str
    size_kb: float
    word_bits: int
    bandwidth_words: int
    reads: int = 0
    writes: int = 0

    @property
    def capacity_words(self) -> int:
        """Number of words the buffer can hold."""
        return int(self.size_kb * 1024 * 8 // self.word_bits)

    def read_cycles(self, words: int) -> int:
        """Cycles to stream ``words`` out at the configured bandwidth."""
        self._check(words)
        self.reads += words
        return math.ceil(words / self.bandwidth_words)

    def write_cycles(self, words: int) -> int:
        """Cycles to stream ``words`` in at the configured bandwidth."""
        self._check(words)
        self.writes += words
        return math.ceil(words / self.bandwidth_words)

    def _check(self, words: int) -> None:
        if words < 0:
            raise SimulationError(f"negative word count on buffer {self.name}")

    def reset_counters(self) -> None:
        """Zero the access counters."""
        self.reads = 0
        self.writes = 0

