"""Vectorized cycle-stepped systolic array (paper Fig 11a).

The array is a grid of ``rows x cols`` processing elements.  Data flows
left-to-right, weights and partial sums top-to-bottom.  The implementation
keeps the four register planes as numpy arrays and advances all PEs on a
shared clock edge with semantics identical to the scalar
:class:`repro.hw.pe.ProcessingElement` (tested for exact equivalence).

The convenience method :meth:`SystolicArray.run_tile` executes one
weight-stationary GEMM tile pass: it streams ``M`` skewed data vectors and
returns the ``M x cols`` partial products observed at the bottom edge, with
the exact cycle count consumed.  :func:`repro.hw.accelerator.gemm_cycles`
reproduces these counts closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, SimulationError
from repro.fixedpoint.formats import QFormat
from repro.hw.config import AcceleratorConfig


@dataclass
class TileResult:
    """Output of one weight-stationary tile pass."""

    #: Partial sums per (data vector, column), shape ``(M, cols)``.
    psums: np.ndarray
    #: Cycles consumed by the pass (streaming + skew drain).
    cycles: int


class SystolicArray:
    """Bit-accurate systolic array with weight-stationary dataflow."""

    def __init__(
        self,
        config: AcceleratorConfig,
        data_fmt: QFormat,
        weight_fmt: QFormat,
        acc_fmt: QFormat,
    ) -> None:
        self.config = config
        self.data_fmt = data_fmt
        self.weight_fmt = weight_fmt
        self.acc_fmt = acc_fmt
        rows, cols = config.rows, config.cols
        self.data = np.zeros((rows, cols), dtype=np.int64)
        self.psum = np.zeros((rows, cols), dtype=np.int64)
        self.weight_shift = np.zeros((rows, cols), dtype=np.int64)
        self.weight_hold = np.zeros((rows, cols), dtype=np.int64)
        self.cycle = 0

    # ---- clocking ------------------------------------------------------------

    def reset(self) -> None:
        """Clear all register planes and the cycle counter."""
        for plane in (self.data, self.psum, self.weight_shift, self.weight_hold):
            plane.fill(0)
        self.cycle = 0

    def step(
        self,
        data_in: np.ndarray | None = None,
        weight_in: np.ndarray | None = None,
        latch_weights: bool = False,
    ) -> np.ndarray:
        """Advance one clock edge; returns the bottom-edge partial sums.

        ``data_in`` has one word per row (left edge), ``weight_in`` one word
        per column (top edge); ``None`` feeds zeros.  The returned vector is
        the new contents of the bottom psum registers (one per column).
        """
        rows, cols = self.config.rows, self.config.cols
        data_in = self._edge_vector(data_in, rows, self.data_fmt, "data_in")
        weight_in = self._edge_vector(weight_in, cols, self.weight_fmt, "weight_in")

        # Partial sums entering each row: zero at the top, the previous
        # cycle's psum register of the row above elsewhere.
        psum_in = np.vstack([np.zeros((1, cols), dtype=np.int64), self.psum[:-1]])
        mac = psum_in + self.data * self.weight_hold
        np.clip(mac, self.acc_fmt.raw_min, self.acc_fmt.raw_max, out=mac)

        new_data = np.hstack([data_in[:, np.newaxis], self.data[:, :-1]])
        new_weight_shift = np.vstack([weight_in[np.newaxis, :], self.weight_shift[:-1]])
        if latch_weights:
            self.weight_hold = self.weight_shift.copy()
        self.psum = mac
        self.data = new_data
        self.weight_shift = new_weight_shift
        self.cycle += 1
        return self.psum[-1].copy()

    def _edge_vector(
        self, values: np.ndarray | None, length: int, fmt: QFormat, name: str
    ) -> np.ndarray:
        if values is None:
            return np.zeros(length, dtype=np.int64)
        arr = np.asarray(values, dtype=np.int64)
        if arr.shape != (length,):
            raise ShapeError(f"{name} must have shape ({length},), got {arr.shape}")
        return np.clip(arr, fmt.raw_min, fmt.raw_max)

    # ---- tile-level operations -----------------------------------------------

    def load_weights(self, tile: np.ndarray, active_rows: int | None = None) -> int:
        """Shift a weight tile in from the top and latch it.

        Row ``r`` of ``tile`` ends up in array row ``r``, so the *last* tile
        row is pushed first.  When the tile only occupies its first
        ``active_rows`` rows (a partial K-chunk), only those rows are
        shifted in — the remaining shift registers already hold zeros,
        flushed by the zero-fed cycles of the previous tile pass (every
        pass lasts at least ``rows`` cycles).  Returns the cycles consumed
        (``active_rows`` shifts plus one latch edge).  With double-buffering
        the caller may overlap these cycles with compute; that accounting
        lives in the executor.
        """
        rows, cols = self.config.rows, self.config.cols
        if tile.shape != (rows, cols):
            raise ShapeError(f"weight tile must be {rows}x{cols}, got {tile.shape}")
        if active_rows is None:
            active_rows = rows
        if not 1 <= active_rows <= rows:
            raise ShapeError(f"active_rows must be in [1, {rows}], got {active_rows}")
        if np.any(tile[active_rows:]):
            raise ShapeError("tile rows beyond active_rows must be zero")
        for row in range(active_rows - 1, -1, -1):
            self.step(weight_in=tile[row])
        self.step(latch_weights=True)
        return active_rows + 1

    def run_tile(self, data_vectors: np.ndarray, flush: bool = True) -> TileResult:
        """Stream ``M`` data vectors through the latched weight tile.

        ``data_vectors`` has shape ``(M, rows)``: vector ``m`` carries the
        ``rows`` contraction operands of output ``m``.  The stream is skewed
        internally (row ``r`` is presented ``r`` cycles after row 0).  The
        result contains, for every vector ``m`` and column ``c``, the inner
        product against the held column weights — bit-exact including
        25-bit saturation order.
        """
        rows, cols = self.config.rows, self.config.cols
        vectors = np.asarray(data_vectors, dtype=np.int64)
        if vectors.ndim != 2 or vectors.shape[1] != rows:
            raise ShapeError(
                f"data vectors must be (M, {rows}), got {vectors.shape}"
            )
        num_vectors = vectors.shape[0]
        # Output m leaves column c at local step m + rows + c (0-indexed),
        # so the last output appears at step (M-1) + rows + (cols-1) and a
        # full pass takes M + rows + cols - 1 steps.
        total_steps = num_vectors + rows + cols - 1
        outputs = np.zeros((num_vectors, cols), dtype=np.int64)
        start_cycle = self.cycle
        for t in range(total_steps):
            data_in = np.zeros(rows, dtype=np.int64)
            for row in range(rows):
                vector_index = t - row
                if 0 <= vector_index < num_vectors:
                    data_in[row] = vectors[vector_index, row]
            bottom = self.step(data_in=data_in)
            for col in range(cols):
                vector_index = t - rows - col
                if 0 <= vector_index < num_vectors:
                    outputs[vector_index, col] = bottom[col]
        if not flush:
            raise SimulationError("non-flushing tile passes are not supported")
        return TileResult(psums=outputs, cycles=self.cycle - start_cycle)

    def compute_tile_reference(self, tile: np.ndarray, data_vectors: np.ndarray) -> np.ndarray:
        """Pure-numpy expected result of :meth:`run_tile` (for tests)."""
        vectors = np.asarray(data_vectors, dtype=np.int64)
        products = vectors @ np.asarray(tile, dtype=np.int64)
        return np.clip(products, self.acc_fmt.raw_min, self.acc_fmt.raw_max)
