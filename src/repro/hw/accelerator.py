"""Top-level CapsAcc accelerator: GEMM tiling and cycle accounting.

A GEMM is a dense ``(M x K) @ (K x N)`` product in raw fixed point,
tiled over the systolic array: ``K`` over the array rows (with
accumulator chunk summing) and ``N`` over the array columns
(:func:`plan_tiling`).  A batch of ``B`` images against one weight matrix
is a single ``(B*M, K)`` stacked stream that loads each tile once per
batch; ``G`` independent same-shape GEMMs account as ``G`` single ones
(:func:`gemm_stats` with ``count=G``).  The compiled-stream executor
(:mod:`repro.compiler.executor`) runs every GEMM on one of two engines
with *identical results and identical cycle accounting*:

* ``stepped`` — :meth:`CapsAccAccelerator.stepped_gemm` drives the
  bit-accurate :class:`~repro.hw.systolic.SystolicArray` clock edge by
  clock edge (used by tests and small workloads);
* ``fast`` — saturating numpy GEMMs
  (:func:`~repro.capsnet.hwops.saturating_matmul`) with cycles from the
  closed-form model (used for full-layer simulations).

Cycle model.  One tile pass streams ``M`` data vectors through a latched
``R x C`` weight tile and needs ``M + R + C - 1`` cycles; loading a tile
takes ``R + 1`` cycles (one shift per row plus the latch edge).  With the
Weight2 double-buffer register (paper Fig 11b) the *next* tile's load
overlaps the current stream, so a tile's marginal cost is
``max(M, R + 1)`` plus one exposed fill/drain per K-chunk sequence; the
RTL achieves the overlap with a staggered latch, which a global-latch
step simulator cannot reproduce bit-accurately, so the stepped engine runs
tiles sequentially; :func:`gemm_cycles` gives both sequential and
overlapped accounting (the overlapped numbers are what
:mod:`repro.compiler.cost` uses; the equality of the *sequential*
accounting against true stepped execution is asserted in tests,
validating the shared formulas).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.capsnet.hwops import QuantizedFormats
from repro.errors import MappingError
from repro.fixedpoint.formats import QFormat
from repro.hw.accumulator import AccumulatorBank
from repro.hw.activation import ActivationUnit
from repro.hw.buffers import Buffer
from repro.hw.config import AcceleratorConfig
from repro.hw.stats import CycleStats
from repro.hw.systolic import SystolicArray


@dataclass
class TilingPlan:
    """Derived tiling quantities for a GEMM on a given array."""

    m: int
    k: int
    n: int
    k_chunks: int
    n_tiles: int
    #: Row counts of the M-passes a bounded accumulator FIFO forces: every
    #: pass streams at most ``acc_fifo_depth`` rows and re-loads every
    #: weight tile.  ``(m,)`` when the FIFO is sized to the job.
    m_passes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.m_passes:
            self.m_passes = (self.m,)

    @property
    def tiles(self) -> int:
        """Weight tiles loaded per M-pass."""
        return self.k_chunks * self.n_tiles

    @property
    def total_tile_loads(self) -> int:
        """Weight tiles loaded over all M-passes."""
        return self.tiles * len(self.m_passes)


def chunk_sizes(total: int, step: int) -> list[int]:
    """Sizes of consecutive chunks covering ``total`` in steps of ``step``."""
    sizes = [step] * (total // step)
    if total % step:
        sizes.append(total % step)
    return sizes


def plan_tiling(config: AcceleratorConfig, m: int, k: int, n: int) -> TilingPlan:
    """Tile a GEMM over the array: K across rows, N across columns.

    A fixed ``config.acc_fifo_depth`` additionally tiles M: one column
    FIFO can only hold that many pending partial sums, so longer streams
    split into M-passes that each re-load the full weight tile sequence.
    """
    if min(m, k, n) < 1:
        raise MappingError("GEMM dimensions must be positive")
    depth = config.acc_fifo_depth
    return TilingPlan(
        m=m,
        k=k,
        n=n,
        k_chunks=math.ceil(k / config.rows),
        n_tiles=math.ceil(n / config.cols),
        m_passes=tuple(chunk_sizes(m, depth)) if depth else (m,),
    )


def gemm_cycles(
    config: AcceleratorConfig, m: int, k: int, n: int, overlap: bool | None = None
) -> dict[str, int]:
    """Closed-form cycle accounting for one GEMM.

    Loading a tile whose K-chunk occupies ``r`` rows costs ``r + 1`` cycles
    (one shift per active row plus the latch edge); streaming costs ``M``
    cycles per tile plus one exposed array fill/drain of ``R + C - 1``
    cycles.  With double-buffering (``overlap``) each load hides under the
    previous tile's stream, exposing only ``max(0, load - M)``; without it,
    every load stalls the array.  A fixed ``config.acc_fifo_depth`` splits
    the stream into M-passes of at most that many rows, each pass paying
    its own tile loads and fill/drain (the cost a bounded column FIFO
    imposes on large batches).  Returns ``total``, ``compute``,
    ``weight_stall`` and ``fill_drain`` entries.  ``overlap=None`` uses the
    configuration's double-buffering setting.
    """
    if overlap is None:
        overlap = config.weight_double_buffer
    plan = plan_tiling(config, m, k, n)
    rows, cols = config.rows, config.cols
    loads = [size + 1 for size in chunk_sizes(k, rows)] * plan.n_tiles
    compute = 0
    stall = 0
    fill_drain = 0
    for pass_m in plan.m_passes:
        compute += plan.tiles * pass_m
        if overlap:
            # The first load is fully exposed; later loads hide under the
            # previous tile's stream.  One array fill/drain is exposed at
            # the end of each pass (intermediate drains pipeline through
            # the accumulators).
            stall += loads[0] + sum(max(0, load - pass_m) for load in loads[1:])
            fill_drain += rows + cols - 1
        else:
            stall += sum(loads)
            fill_drain += plan.tiles * (rows + cols - 1)
    total = compute + stall + fill_drain
    return {
        "total": total,
        "compute": compute,
        "weight_stall": stall,
        "fill_drain": fill_drain,
    }


def gemm_stats(
    config: AcceleratorConfig,
    plan: TilingPlan,
    data_source: str = "data_buffer",
    weight_source: str = "weight_buffer",
    count: int = 1,
) -> CycleStats:
    """Sequential cycle and access accounting of one GEMM.

    ``data_source``/``weight_source`` name the buffer each operand
    streams from; a ``"feedback"`` source (the horizontal feedback
    multiplexer of Fig 10) costs no buffer reads.  ``count`` repeats the
    whole accounting for grouped GEMMs — ``count`` identical-shape GEMMs
    executed back to back, each paying its own weight loads.
    """
    cycles = gemm_cycles(config, plan.m, plan.k, plan.n, overlap=False)
    stats = CycleStats(
        total_cycles=cycles["total"] * count,
        compute_cycles=cycles["compute"] * count,
        weight_stall_cycles=cycles["weight_stall"] * count,
        fill_drain_cycles=cycles["fill_drain"] * count,
        mac_count=plan.m * plan.k * plan.n * count,
    )
    # Weight traffic: every tile pass loads its (actual) weight words,
    # once per M-pass when a bounded FIFO forces re-streaming.
    if weight_source != "feedback":
        stats.add_access(
            f"{weight_source}.read", plan.k * plan.n * len(plan.m_passes) * count
        )
    # Data traffic: the full (M, K) operand streams once per N-tile.
    if data_source != "feedback":
        stats.add_access(f"{data_source}.read", plan.m * plan.k * plan.n_tiles * count)
    stats.add_access("accumulator.write", plan.m * plan.n * plan.k_chunks * count)
    return stats


class CapsAccAccelerator:
    """The complete accelerator: array, accumulators, buffers, activation."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        formats: QuantizedFormats | None = None,
    ) -> None:
        self.config = config if config is not None else AcceleratorConfig()
        self.formats = formats if formats is not None else QuantizedFormats()
        self.activation = ActivationUnit(self.formats)
        self.data_buffer = Buffer(
            "data_buffer",
            self.config.data_buffer_kb,
            self.config.data_bits,
            self.config.data_bus_words,
        )
        self.weight_buffer = Buffer(
            "weight_buffer",
            self.config.weight_buffer_kb,
            self.config.weight_bits,
            self.config.weight_bus_words,
        )
        self.routing_buffer = Buffer(
            "routing_buffer",
            self.config.routing_buffer_kb,
            self.config.data_bits,
            self.config.data_bus_words,
        )
        self._reads_lock = threading.Lock()

    def stepped_gemm(
        self,
        data: np.ndarray,
        weights: np.ndarray,
        data_fmt: QFormat,
        weight_fmt: QFormat,
        acc_fmt: QFormat,
        plan: TilingPlan,
    ) -> np.ndarray:
        """Clock-edge-accurate execution on the systolic array.

        A bounded accumulator FIFO runs the plan's M-passes back to back;
        row results are independent, so the output is bit-identical to a
        single job-sized pass.
        """
        config = self.config
        rows, cols = config.rows, config.cols
        array = SystolicArray(config, data_fmt, weight_fmt, acc_fmt)
        depth = config.acc_fifo_depth or max(plan.m, 1)
        acc_bank = AccumulatorBank(cols, depth=depth, acc_fmt=acc_fmt)
        result = np.zeros((plan.m, plan.n), dtype=np.int64)
        m_lo = 0
        for pass_m in plan.m_passes:
            m_hi = m_lo + pass_m
            for n_tile in range(plan.n_tiles):
                n_lo = n_tile * cols
                n_hi = min(n_lo + cols, plan.n)
                for chunk in range(plan.k_chunks):
                    k_lo = chunk * rows
                    k_hi = min(k_lo + rows, plan.k)
                    tile = np.zeros((rows, cols), dtype=np.int64)
                    tile[: k_hi - k_lo, : n_hi - n_lo] = weights[k_lo:k_hi, n_lo:n_hi]
                    array.load_weights(tile, active_rows=k_hi - k_lo)
                    stream = np.zeros((pass_m, rows), dtype=np.int64)
                    stream[:, : k_hi - k_lo] = data[m_lo:m_hi, k_lo:k_hi]
                    tile_out = array.run_tile(stream)
                    acc_bank.accumulate(tile_out.psums, first_chunk=(chunk == 0))
                result[m_lo:m_hi, n_lo:n_hi] = acc_bank.drain()[:, : n_hi - n_lo]
            m_lo = m_hi
        return result

    def count_reads(self, accesses: dict[str, int]) -> None:
        """Add the ``<buffer>.read`` words of ``accesses`` to the buffers.

        Locked, so batches executing concurrently on one accelerator
        never lose a count.
        """
        with self._reads_lock:
            for key, words in accesses.items():
                name, _, kind = key.partition(".")
                if kind == "read":
                    self._buffer(name).reads += words

    def _buffer(self, name: str) -> Buffer:
        buffers = {
            "data_buffer": self.data_buffer,
            "weight_buffer": self.weight_buffer,
            "routing_buffer": self.routing_buffer,
        }
        if name not in buffers:
            raise MappingError(f"unknown buffer {name!r}")
        return buffers[name]

    def reset_counters(self) -> None:
        """Zero all buffer access counters."""
        for buffer in (self.data_buffer, self.weight_buffer, self.routing_buffer):
            buffer.reset_counters()
