"""Closed-form program pricing must equal actually-executed accounting."""

from __future__ import annotations

import pytest

from repro.compiler.cost import (
    program_batch_cycles,
    program_ops,
    program_stats,
    program_steady_cycles,
    program_stream_timing,
)
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import get_network
from repro.hw.pipeline import simulate_stream
from tests.compiler.conftest import zoo_images


@pytest.fixture(scope="module", params=["tiny", "mlp"])
def priced(request, tiny_qnet):
    """One execution per network to price against."""
    name = request.param
    network = get_network(name) if name != "tiny" else tiny_qnet
    executor = StreamExecutor.for_network(network)
    images = zoo_images(name, count=3)
    return executor, executor.run_batch(images)


class TestClosedFormPricing:
    def test_batch_cycles_match_execution(self, priced):
        executor, result = priced
        cycles = program_batch_cycles(
            executor.accelerator.config, executor.program, result.batch
        )
        assert cycles["sequential"] == result.total_cycles
        assert cycles["overlapped"] == result.overlapped_cycles

    def test_stats_match_execution(self, priced):
        executor, result = priced
        stats = program_stats(executor.accelerator.config, executor.program, result.batch)
        assert stats == result.total_stats

    def test_stream_timing_matches_pipelined_probe(self, priced):
        executor, result = priced
        config, program = executor.accelerator.config, executor.program
        sizes = [result.batch] * 7
        timing = program_stream_timing(config, program, sizes)
        direct = simulate_stream([program_ops(config, program, size) for size in sizes], sizes)
        assert timing == direct
        assert (
            program_steady_cycles(config, program, result.batch)
            == timing.steady_marginal_cycles
        )
