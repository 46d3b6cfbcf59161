"""Accounting and equivalence of batched and grouped GEMMs on the array.

A batch of ``B`` images against one weight matrix runs as a single
stacked ``(B*M, K)`` GEMM; ``G`` independent same-shape GEMMs account as
``gemm_stats(count=G)``.  The guarantees:

* a stacked batch is bit-identical to ``B`` independent single-image runs,
  on both engines;
* the closed-form cycle accounting equals what the stepped engine actually
  consumes for the stacked stream, tile by tile;
* batching amortizes weight-tile loads: cycles and weight traffic are
  strictly below ``B`` independent runs;
* grouped accounting is exactly ``G`` single GEMMs;
* the chunked saturating matmul (including its no-saturation BLAS fast
  path) matches the pure-int64 per-chunk reference even when values clip
  mid-accumulation.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.capsnet.hwops import QuantizedFormats, chunked_saturating_matmul
from repro.errors import ConfigError, MappingError, ShapeError
from repro.fixedpoint.formats import QFormat
from repro.hw.accelerator import (
    CapsAccAccelerator,
    chunk_sizes,
    gemm_cycles,
    gemm_stats,
    plan_tiling,
)
from repro.hw.config import AcceleratorConfig
from repro.hw.systolic import SystolicArray

FMTS = QuantizedFormats()
DATA = FMTS.caps_data
WEIGHT = FMTS.classcaps_weight
ACC = FMTS.acc(DATA, WEIGHT)


def reference_chunked(data, weights, acc_fmt, rows):
    """Pure-int64 per-chunk clipped accumulation (the array's order)."""
    data = np.asarray(data, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    k = data.shape[-1]
    acc = np.zeros(data.shape[:-1] + weights.shape[-1:], dtype=np.int64)
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        partial = data[..., :, lo:hi] @ weights[..., lo:hi, :]
        np.clip(partial, acc_fmt.raw_min, acc_fmt.raw_max, out=partial)
        acc += partial
        np.clip(acc, acc_fmt.raw_min, acc_fmt.raw_max, out=acc)
    return acc


def make_batch(rng, batch, m, k, n):
    """``(B, M, K)`` activations and one shared ``(K, N)`` weight matrix."""
    return rng.integers(-60, 60, size=(batch, m, k)), rng.integers(-60, 60, size=(k, n))


def stacked(data):
    """The batch as one ``(B*M, K)`` stream per weight tile."""
    batch, m, k = data.shape
    return data.reshape(batch * m, k)


def fast(config, data, weights, acc_fmt=ACC):
    """The fast engine's GEMM, chunked over the array rows."""
    return chunked_saturating_matmul(data, weights, acc_fmt, config.rows)


def stepped(config, data, weights, data_fmt=DATA, weight_fmt=WEIGHT, acc_fmt=ACC):
    """The stepped engine's GEMM, clock edge by clock edge."""
    plan = plan_tiling(config, data.shape[0], data.shape[1], weights.shape[1])
    return CapsAccAccelerator(config).stepped_gemm(
        data, weights, data_fmt, weight_fmt, acc_fmt, plan
    )


def stats_of(config, m, k, n):
    """Sequential accounting of one ``(m, k) @ (k, n)`` GEMM."""
    return gemm_stats(config, plan_tiling(config, m, k, n))


class TestChunkedSaturatingMatmul:
    # The last two shapes take the BLAS path in serial-sized groups of
    # matrices, and as one product of matrices each above the serial size.
    @pytest.mark.parametrize(
        "shape", [(5, 9, 7), (3, 4, 33, 6), (1, 1, 1), (40, 64, 25), (2, 600, 100)]
    )
    def test_matches_reference_without_saturation(self, rng, shape):
        # data is (..., M, K); weights (K, N) broadcast across leading axes
        data = rng.integers(-60, 60, size=shape)
        weights = rng.integers(-60, 60, size=(shape[-1], 5))
        out = chunked_saturating_matmul(data, weights, ACC, 4)
        assert np.array_equal(out, reference_chunked(data, weights, ACC, 4))

    def test_matches_reference_with_saturation(self, rng):
        """Large magnitudes force mid-accumulation clipping; the fast path
        must bow out and the chunked path must clip in array order."""
        acc_fmt = QFormat(12, 0)  # tiny accumulator: clips constantly
        data = rng.integers(-120, 120, size=(6, 40))
        weights = rng.integers(-120, 120, size=(40, 3))
        out = chunked_saturating_matmul(data, weights, acc_fmt, 4)
        assert np.array_equal(out, reference_chunked(data, weights, acc_fmt, 4))
        # sanity: saturation genuinely occurred, so the plain product differs
        assert not np.array_equal(out, data @ weights)

    def test_saturating_case_matches_stepped_engine(self, rng, small_accel_config):
        """The stepped systolic array is ground truth for clipping order."""
        acc_fmt = QFormat(16, 0)
        data = rng.integers(-128, 127, size=(5, 13))
        weights = rng.integers(-128, 127, size=(13, 4))
        fmt = QFormat(8, 0)
        assert np.array_equal(
            fast(small_accel_config, data, weights, acc_fmt),
            stepped(small_accel_config, data, weights, fmt, fmt, acc_fmt),
        )

    def test_unsigned_accumulator_clips_from_below(self):
        """The fast path must respect raw_min too: with an unsigned
        accumulator a negative partial clips to 0 mid-accumulation."""
        acc_fmt = QFormat(8, 0, signed=False)
        data = np.array([[-3, 2]], dtype=np.int64)
        weights = np.array([[4], [1]], dtype=np.int64)
        out = chunked_saturating_matmul(data, weights, acc_fmt, 1)
        assert np.array_equal(out, reference_chunked(data, weights, acc_fmt, 1))
        assert out[0, 0] == 2  # -12 clips to 0, then +2

    def test_grouped_weights_broadcast(self, rng):
        data = rng.integers(-60, 60, size=(4, 3, 9))
        weights = rng.integers(-60, 60, size=(4, 9, 2))
        out = chunked_saturating_matmul(data, weights, ACC, 4)
        for g in range(4):
            assert np.array_equal(
                out[g], reference_chunked(data[g], weights[g], ACC, 4)
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            chunked_saturating_matmul(
                np.zeros((2, 3), dtype=np.int64), np.zeros((4, 2), dtype=np.int64), ACC, 4
            )


class TestBatchedGemm:
    @pytest.mark.parametrize("batch,m,k,n", [(1, 4, 5, 6), (3, 5, 9, 7), (4, 1, 8, 18)])
    def test_matches_independent_single_runs(
        self, rng, small_accel_config, batch, m, k, n
    ):
        data, weights = make_batch(rng, batch, m, k, n)
        acc = fast(small_accel_config, stacked(data), weights).reshape(batch, m, n)
        for b in range(batch):
            single = fast(small_accel_config, data[b], weights)
            assert np.array_equal(acc[b], single)

    def test_engines_agree(self, rng, small_accel_config):
        data, weights = make_batch(rng, 3, 4, 9, 6)
        assert np.array_equal(
            fast(small_accel_config, stacked(data), weights),
            stepped(small_accel_config, stacked(data), weights),
        )

    @pytest.mark.parametrize("batch,m,k,n", [(2, 3, 9, 5), (3, 2, 4, 18)])
    def test_closed_form_matches_stepped_execution(
        self, rng, small_accel_config, batch, m, k, n
    ):
        """Sequential batched accounting equals real stepped cycles for the
        stacked ``(B*M, K)`` stream, tile by tile."""
        config = small_accel_config
        data, weights = make_batch(rng, batch, m, k, n)
        data = stacked(data)
        array = SystolicArray(config, DATA, WEIGHT, ACC)
        measured = 0
        plan = plan_tiling(config, batch * m, k, n)
        for n_tile in range(plan.n_tiles):
            for chunk_index, chunk in enumerate(chunk_sizes(k, config.rows)):
                k_lo = chunk_index * config.rows
                n_lo = n_tile * config.cols
                tile = np.zeros((config.rows, config.cols), dtype=np.int64)
                block = weights[k_lo : k_lo + chunk, n_lo : n_lo + config.cols]
                tile[: block.shape[0], : block.shape[1]] = block
                measured += array.load_weights(tile, active_rows=chunk)
                stream = np.zeros((batch * m, config.rows), dtype=np.int64)
                stream[:, :chunk] = data[:, k_lo : k_lo + chunk]
                measured += array.run_tile(stream).cycles
        formula = gemm_cycles(config, batch * m, k, n, overlap=False)
        assert formula["total"] == measured
        assert stats_of(config, batch * m, k, n).total_cycles == measured

    def test_batching_amortizes_tile_loads(self, small_accel_config):
        """A batch costs strictly less than B independent runs — in cycles
        (fewer exposed loads/drains) and in weight-buffer traffic."""
        accel = CapsAccAccelerator(small_accel_config)
        batch, m, k, n = 4, 3, 9, 6
        batched = stats_of(small_accel_config, batch * m, k, n)
        accel.count_reads(batched.accesses)
        single = gemm_cycles(small_accel_config, m, k, n, overlap=False)["total"]
        assert batched.total_cycles < batch * single
        assert accel.weight_buffer.reads == k * n  # once per batch, not per image
        batched_ovl = gemm_cycles(small_accel_config, batch * m, k, n, overlap=True)
        single_ovl = gemm_cycles(small_accel_config, m, k, n, overlap=True)["total"]
        assert batched_ovl["total"] < batch * single_ovl

    def test_mac_count_scales_with_batch(self, small_accel_config):
        assert stats_of(small_accel_config, 3 * 4, 5, 6).mac_count == 3 * 4 * 5 * 6

    def test_bad_shapes_rejected(self, rng, small_accel_config):
        """A stacked batch runs only against matching ``K``."""
        data, weights = make_batch(rng, 2, 3, 4, 5)
        with pytest.raises(ShapeError):
            fast(small_accel_config, stacked(data), weights[:3])

    def test_zero_batch_rejected(self, small_accel_config):
        with pytest.raises(MappingError):
            gemm_cycles(small_accel_config, 0 * 2, 2, 2)


class TestFifoDepth:
    """A bounded accumulator FIFO forces M-tiling on long streams."""

    def test_plan_splits_m_passes(self, small_accel_config):
        bounded = replace(small_accel_config, acc_fifo_depth=5)
        plan = plan_tiling(bounded, 12, 9, 6)
        assert plan.m_passes == (5, 5, 2)
        assert plan.total_tile_loads == 3 * plan.tiles
        ideal = plan_tiling(small_accel_config, 12, 9, 6)
        assert ideal.m_passes == (12,)
        assert ideal.total_tile_loads == ideal.tiles

    def test_deep_fifo_matches_idealized_cycles(self, small_accel_config):
        deep = replace(small_accel_config, acc_fifo_depth=12)
        for overlap in (False, True):
            assert gemm_cycles(deep, 12, 9, 6, overlap=overlap) == gemm_cycles(
                small_accel_config, 12, 9, 6, overlap=overlap
            )

    def test_bounded_fifo_costs_more(self, small_accel_config):
        bounded = replace(small_accel_config, acc_fifo_depth=5)
        for overlap in (False, True):
            assert (
                gemm_cycles(bounded, 12, 9, 6, overlap=overlap)["total"]
                > gemm_cycles(small_accel_config, 12, 9, 6, overlap=overlap)["total"]
            )
        # Compute cycles are work, not overhead: they never change.
        assert (
            gemm_cycles(bounded, 12, 9, 6, overlap=False)["compute"]
            == gemm_cycles(small_accel_config, 12, 9, 6, overlap=False)["compute"]
        )

    def test_engines_bit_identical_with_bounded_fifo(self, rng, small_accel_config):
        bounded = replace(small_accel_config, acc_fifo_depth=5)
        data, weights = make_batch(rng, 3, 4, 9, 6)  # B*M = 12 > depth 5
        data = stacked(data)
        fast_acc = fast(bounded, data, weights)
        assert np.array_equal(fast_acc, stepped(bounded, data, weights))
        assert np.array_equal(fast_acc, stepped(small_accel_config, data, weights))

    def test_weight_traffic_scales_with_passes(self, small_accel_config):
        bounded = replace(small_accel_config, acc_fifo_depth=5)
        accel = CapsAccAccelerator(bounded)
        accel.count_reads(stats_of(bounded, 3 * 4, 9, 6).accesses)
        assert accel.weight_buffer.reads == 3 * 9 * 6  # three M-passes

    def test_invalid_depth_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(acc_fifo_depth=0)


class TestGroupedGemm:
    """``G`` same-shape GEMMs with per-group weights (the routing jobs)."""

    def test_matches_independent_runs_and_sums_stats(self, rng, small_accel_config):
        groups, m, k, n = 5, 3, 9, 4
        data = rng.integers(-60, 60, size=(groups, m, k))
        weights = rng.integers(-60, 60, size=(groups, k, n))
        grouped = fast(small_accel_config, data, weights)
        total = None
        for g in range(groups):
            assert np.array_equal(grouped[g], fast(small_accel_config, data[g], weights[g]))
            single = stats_of(small_accel_config, m, k, n)
            total = single if total is None else total + single
        plan = plan_tiling(small_accel_config, m, k, n)
        stats = gemm_stats(small_accel_config, plan, count=groups)
        assert stats == total
        assert stats.mac_count == groups * m * k * n

    def test_engines_agree(self, rng, small_accel_config):
        data = rng.integers(-60, 60, size=(3, 2, 7))
        weights = rng.integers(-60, 60, size=(3, 7, 5))
        grouped = fast(small_accel_config, data, weights)
        for g in range(3):
            assert np.array_equal(
                grouped[g], stepped(small_accel_config, data[g], weights[g])
            )

    def test_no_cross_group_weight_amortization(self, small_accel_config):
        groups, m, k, n = 3, 2, 5, 4
        plan = plan_tiling(small_accel_config, m, k, n)
        stats = gemm_stats(small_accel_config, plan, count=groups)
        assert stats.accesses["weight_buffer.read"] == groups * k * n
