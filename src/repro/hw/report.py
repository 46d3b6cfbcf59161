"""Execution reports of the compiled-stream executor and its pricing.

:class:`TraceEvent` is one priced unit of work of a compiled program
(:mod:`repro.compiler.cost`); :class:`LayerReport` and :class:`BatchResult`
are what :class:`~repro.compiler.executor.StreamExecutor` returns per batch.

:class:`BatchResult` carries a generic ``outputs`` dict (the tensors a
compiled program ``STORE``\\ s); the CapsNet-named fields (``conv1_raw``,
``u_hat_raw``, ...) are kept as plain dataclass fields for the paper network
and are ``None`` for zoo networks that do not produce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.accelerator import TilingPlan
from repro.hw.stats import CycleStats


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled unit of work, in execution order.

    ``kind`` is ``"gemm"`` (with the job's tiling ``plan``, sequential
    ``groups`` and ``weight_source``) or ``"activation"`` (with its
    ``cycles``).  The trace is shape-driven — data never changes it — so
    one probe per batch size describes every batch of that size.
    """

    kind: str
    name: str
    plan: TilingPlan | None = None
    groups: int = 1
    weight_source: str = "weight_buffer"
    cycles: int = 0


@dataclass
class LayerReport:
    """Per-layer accounting of one scheduled batch."""

    name: str
    #: Sequential accounting (weight loads stall compute); activation-unit
    #: cycles are folded into ``stats.total_cycles`` and broken out in
    #: ``stats.activation_cycles``.
    stats: CycleStats = field(default_factory=CycleStats)
    #: Double-buffered accounting: tile loads hide under the previous
    #: tile's stream (the Weight2 register of paper Fig 11b).
    overlapped_cycles: int = 0
    #: GEMM jobs issued for the layer (post-batching).
    jobs: int = 0

    @property
    def gemm_cycles(self) -> int:
        """Sequential cycles spent on the array (excluding activations)."""
        return self.stats.total_cycles - self.stats.activation_cycles

    def merge(self, other: "LayerReport") -> None:
        """Fold another report (e.g. the same layer of a later batch) in."""
        self.stats = self.stats + other.stats
        self.overlapped_cycles += other.overlapped_cycles
        self.jobs += other.jobs

    def utilization(self, num_pes: int) -> float:
        """Achieved MACs per PE-cycle under double-buffered accounting."""
        if self.overlapped_cycles == 0:
            return 0.0
        return self.stats.mac_count / (self.overlapped_cycles * num_pes)


@dataclass
class BatchResult:
    """Outputs and per-layer statistics of one scheduled batch."""

    batch: int
    predictions: np.ndarray
    #: CapsNet-named raw tensors (``None`` for zoo networks without them).
    conv1_raw: np.ndarray | None = None
    primary_raw: np.ndarray | None = None
    u_hat_raw: np.ndarray | None = None
    class_caps_raw: np.ndarray | None = None
    coupling_raw: np.ndarray | None = None
    length_sumsq_raw: np.ndarray | None = None
    layers: dict[str, LayerReport] = field(default_factory=dict)
    #: Every tensor the compiled program stored, keyed by output alias
    #: (includes the CapsNet-named ones when the network produces them).
    outputs: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def total_stats(self) -> CycleStats:
        """Summed sequential statistics over all layers."""
        total = CycleStats()
        for report in self.layers.values():
            total = total + report.stats
        return total

    @property
    def total_cycles(self) -> int:
        """Sequential cycles for the whole batch."""
        return self.total_stats.total_cycles

    @property
    def overlapped_cycles(self) -> int:
        """Double-buffered cycles for the whole batch."""
        return sum(report.overlapped_cycles for report in self.layers.values())

    def cycles_per_image(self, overlap: bool = True) -> float:
        """Amortized cycles per image."""
        cycles = self.overlapped_cycles if overlap else self.total_cycles
        return cycles / self.batch

    def images_per_second(self, clock_mhz: float, overlap: bool = True) -> float:
        """Modeled hardware throughput at the given clock."""
        return clock_mhz * 1e6 / self.cycles_per_image(overlap)

    def utilization(self, num_pes: int) -> float:
        """Overall achieved MACs per PE-cycle (double-buffered)."""
        if self.overlapped_cycles == 0:
            return 0.0
        return self.total_stats.mac_count / (self.overlapped_cycles * num_pes)
