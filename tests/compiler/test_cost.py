"""Closed-form program pricing must equal actually-executed accounting."""

from __future__ import annotations

import pytest

from repro.compiler.cost import (
    program_batch_cycles,
    program_stats,
    program_steady_cycles,
    program_stream_timing,
)
from repro.compiler.zoo import get_network
from repro.hw.scheduler import BatchScheduler, PipelinedStreamScheduler
from tests.compiler.conftest import zoo_images


@pytest.fixture(scope="module", params=["tiny", "mlp"])
def priced(request, tiny_qnet):
    """One execution per network to price against."""
    name = request.param
    network = get_network(name) if name != "tiny" else tiny_qnet
    scheduler = BatchScheduler(network)
    images = zoo_images(name, count=3)
    return scheduler, scheduler.run_batch(images)


class TestClosedFormPricing:
    def test_batch_cycles_match_execution(self, priced):
        scheduler, result = priced
        cycles = program_batch_cycles(
            scheduler.accelerator.config, scheduler.compiled.program, result.batch
        )
        assert cycles["sequential"] == result.total_cycles
        assert cycles["overlapped"] == result.overlapped_cycles

    def test_stats_match_execution(self, priced):
        scheduler, result = priced
        stats = program_stats(
            scheduler.accelerator.config, scheduler.compiled.program, result.batch
        )
        assert stats == result.total_stats

    def test_stream_timing_matches_pipelined_probe(self, priced):
        scheduler, result = priced
        pipelined = PipelinedStreamScheduler(scheduler.compiled)
        sizes = [result.batch] * 7
        timing = program_stream_timing(
            pipelined.accelerator.config, scheduler.compiled.program, sizes
        )
        assert timing == pipelined.probe_timing(sizes)
        assert program_steady_cycles(
            pipelined.accelerator.config, scheduler.compiled.program, result.batch
        ) == pipelined.steady_state_cycles(result.batch)
