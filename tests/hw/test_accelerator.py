"""Unit tests for the top-level accelerator and its cycle accounting.

The key guarantees:

* both engines the executor runs GEMMs on (the fast chunked saturating
  matmul and the stepped array) produce identical, reference-exact
  results;
* the sequential cycle accounting equals what the stepped engine actually
  consumes, tile by tile (validating the shared closed-form model);
* buffer access counters follow each GEMM's operand sources.
"""

import numpy as np
import pytest

from repro.capsnet.hwops import QuantizedFormats, chunked_saturating_matmul
from repro.compiler.executor import StreamExecutor
from repro.errors import MappingError
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


def make_operands(rng, m, k, n):
    return rng.integers(-60, 60, size=(m, k)), rng.integers(-60, 60, size=(k, n))


def run_counted(accel, m, k, n, **sources):
    """Book one ``(m, k) @ (k, n)`` GEMM's reads on ``accel``; its stats."""
    stats = gemm_stats(accel.config, plan_tiling(accel.config, m, k, n), **sources)
    accel.count_reads(stats.accesses)
    return stats


class TestChunking:
    def test_chunk_sizes_exact_multiple(self):
        assert chunk_sizes(32, 16) == [16, 16]

    def test_chunk_sizes_remainder(self):
        assert chunk_sizes(81, 16) == [16, 16, 16, 16, 16, 1]

    def test_chunk_sizes_small(self):
        assert chunk_sizes(8, 16) == [8]

    def test_plan_tiling(self):
        plan = plan_tiling(AcceleratorConfig(), m=400, k=81, n=256)
        assert plan.k_chunks == 6
        assert plan.n_tiles == 16
        assert plan.tiles == 96

    def test_plan_rejects_zero(self):
        with pytest.raises(MappingError):
            plan_tiling(AcceleratorConfig(), 0, 1, 1)


class TestEngines:
    @pytest.mark.parametrize(
        "m,k,n",
        [(1, 4, 18), (9, 11, 6), (5, 20, 3), (16, 4, 4), (3, 33, 10)],
    )
    def test_fast_and_stepped_match_reference(self, rng, small_accel_config, m, k, n):
        accel = CapsAccAccelerator(small_accel_config)
        data, weights = make_operands(rng, m, k, n)
        fast = chunked_saturating_matmul(data, weights, ACC, small_accel_config.rows)
        stepped = accel.stepped_gemm(
            data, weights, DATA, WEIGHT, ACC, plan_tiling(small_accel_config, m, k, n)
        )
        reference = np.clip(data.astype(np.int64) @ weights, ACC.raw_min, ACC.raw_max)
        assert np.array_equal(fast, reference)
        assert np.array_equal(stepped, reference)

    def test_unknown_engine_rejected(self):
        with pytest.raises(MappingError, match="warp"):
            StreamExecutor.for_network("tiny", engine="warp")


class TestCycleAccounting:
    @pytest.mark.parametrize("m,k,n", [(7, 9, 5), (1, 4, 18), (20, 3, 3)])
    def test_sequential_formula_matches_stepped_execution(
        self, rng, small_accel_config, m, k, n
    ):
        """The closed-form (overlap=False) total equals real stepped cycles."""
        config = small_accel_config
        data, weights = make_operands(rng, m, k, n)
        array = SystolicArray(config, DATA, WEIGHT, ACC)
        measured = 0
        plan = plan_tiling(config, m, k, n)
        for n_tile in range(plan.n_tiles):
            for chunk_index, chunk in enumerate(chunk_sizes(k, config.rows)):
                k_lo = chunk_index * config.rows
                n_lo = n_tile * config.cols
                tile = np.zeros((config.rows, config.cols), dtype=np.int64)
                block = weights[k_lo : k_lo + chunk, n_lo : n_lo + config.cols]
                tile[: block.shape[0], : block.shape[1]] = block
                measured += array.load_weights(tile, active_rows=chunk)
                stream = np.zeros((m, config.rows), dtype=np.int64)
                stream[:, :chunk] = data[:, k_lo : k_lo + chunk]
                measured += array.run_tile(stream).cycles
        formula = gemm_cycles(config, m, k, n, overlap=False)
        assert formula["total"] == measured

    def test_overlap_never_slower(self, small_accel_config):
        for m, k, n in [(1, 4, 18), (100, 81, 256), (16, 1152, 1)]:
            seq = gemm_cycles(small_accel_config, m, k, n, overlap=False)["total"]
            ovl = gemm_cycles(small_accel_config, m, k, n, overlap=True)["total"]
            assert ovl <= seq

    def test_overlap_hides_loads_under_long_streams(self):
        config = AcceleratorConfig()
        cycles = gemm_cycles(config, m=400, k=81, n=256, overlap=True)
        # 96 tiles x 400 streaming cycles; only the first load and one
        # fill/drain are exposed.
        assert cycles["compute"] == 96 * 400
        assert cycles["weight_stall"] == 17
        assert cycles["fill_drain"] == 31

    def test_default_overlap_follows_config(self):
        config = AcceleratorConfig()
        assert (
            gemm_cycles(config, 10, 10, 10)
            == gemm_cycles(config, 10, 10, 10, overlap=True)
        )
        no_reuse = config.without_weight_reuse()
        assert (
            gemm_cycles(no_reuse, 10, 10, 10)
            == gemm_cycles(no_reuse, 10, 10, 10, overlap=False)
        )

    def test_mac_count(self, small_accel_config):
        stats = gemm_stats(small_accel_config, plan_tiling(small_accel_config, 5, 6, 7))
        assert stats.mac_count == 5 * 6 * 7

    def test_utilization_bounded(self, small_accel_config):
        plan = plan_tiling(small_accel_config, 32, 16, 16)
        util = gemm_stats(small_accel_config, plan).utilization(
            small_accel_config.num_pes
        )
        assert 0.0 < util <= 1.0


class TestAccessCounting:
    def test_weight_and_data_traffic(self, small_accel_config):
        accel = CapsAccAccelerator(small_accel_config)
        m, k, n = 6, 8, 10  # 2 k-chunks x 3 n-tiles on a 4x4 array
        run_counted(accel, m, k, n)
        assert accel.weight_buffer.reads == k * n
        assert accel.data_buffer.reads == m * k * 3

    def test_feedback_source_costs_nothing(self, small_accel_config):
        accel = CapsAccAccelerator(small_accel_config)
        run_counted(accel, 4, 4, 4, data_source="feedback")
        assert accel.data_buffer.reads == 0

    def test_routing_buffer_source(self, small_accel_config):
        accel = CapsAccAccelerator(small_accel_config)
        run_counted(accel, 4, 4, 4, weight_source="routing_buffer")
        assert accel.routing_buffer.reads == 16
        assert accel.weight_buffer.reads == 0

    def test_reset_counters(self, small_accel_config):
        accel = CapsAccAccelerator(small_accel_config)
        run_counted(accel, 4, 4, 4)
        accel.reset_counters()
        assert accel.data_buffer.reads == 0

    def test_stats_accesses_keyed_by_source(self, small_accel_config):
        stats = run_counted(CapsAccAccelerator(small_accel_config), 4, 4, 4)
        assert "weight_buffer.read" in stats.accesses
        assert "data_buffer.read" in stats.accesses
        assert "accumulator.write" in stats.accesses
