"""Memoized op timelines and stream schedules stay bit-identical."""

import pytest

from repro.compiler.cost import program_ops, program_stream_timing
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import as_compiled
from repro.hw.config import AcceleratorConfig
from repro.hw.pipeline import (
    DEFAULT_PRESTAGE_DEPTH,
    DEFAULT_WINDOW,
    cached_stream_timing,
    clear_timeline_caches,
    job_ops,
    simulate_stream,
    timeline_cache_stats,
)
from repro.serve.costs import ScheduledBatchCost, clear_probe_cache


def tiny_ops(qnet, batch: int):
    """One batch's pipeline ops of ``qnet``'s compiled program."""
    return program_ops(AcceleratorConfig(), as_compiled(qnet).program, batch)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_timeline_caches()
    yield
    clear_timeline_caches()


def timings_equal(a, b):
    assert len(a.batches) == len(b.batches)
    for batch_a, batch_b in zip(a.batches, b.batches):
        assert batch_a == batch_b
    return True


class TestJobOpsCache:
    def test_repeated_calls_share_the_expansion(self, tiny_qnet):
        from repro.hw.accelerator import CapsAccAccelerator, plan_tiling

        accelerator = CapsAccAccelerator(formats=tiny_qnet.formats)
        config = accelerator.config
        plan = plan_tiling(config, 8, 12, 10)
        first = job_ops(config, plan, groups=2, layer="conv1")
        second = job_ops(config, plan, groups=2, layer="conv1")
        assert second is first  # one shared expansion
        assert job_ops(config, plan, groups=3, layer="conv1") is not first
        assert timeline_cache_stats()["job_ops"] == 2

    def test_clear_resets(self, tiny_qnet):
        from repro.hw.accelerator import CapsAccAccelerator, plan_tiling

        accelerator = CapsAccAccelerator(formats=tiny_qnet.formats)
        plan = plan_tiling(accelerator.config, 4, 4, 4)
        job_ops(accelerator.config, plan)
        clear_timeline_caches()
        assert timeline_cache_stats()["job_ops"] == 0


class TestStreamTimingCache:
    def test_cached_timing_is_bit_identical_to_direct_simulation(self, tiny_qnet):
        ops = [tiny_ops(tiny_qnet, size) for size in (2, 2, 1)]
        direct = simulate_stream(ops, [2, 2, 1])
        cached = cached_stream_timing(ops, [2, 2, 1])
        assert timings_equal(direct, cached)
        # A repeat is the same object — bit-identity by construction.
        assert cached_stream_timing(ops, [2, 2, 1]) is cached

    def test_probe_timing_matches_pr3_scheduler_output(self, tiny_qnet):
        """Memoized timelines equal a cold stream simulation exactly."""
        sizes = [2] * 7
        program = as_compiled(tiny_qnet).program
        memoized = program_stream_timing(AcceleratorConfig(), program, sizes)
        clear_timeline_caches()
        cold = simulate_stream(
            [tiny_ops(tiny_qnet, size) for size in sizes],
            sizes,
            window=DEFAULT_WINDOW,
            prestage_depth=DEFAULT_PRESTAGE_DEPTH,
        )
        assert timings_equal(cold, memoized)
        assert cold.steady_marginal_cycles == memoized.steady_marginal_cycles

    def test_pricing_paths_share_program_ops(self, tiny_qnet):
        """Every program-priced path hands out one op list per batch size."""
        ops = tiny_ops(tiny_qnet, 2)
        assert tiny_ops(tiny_qnet, 2) is ops
        assert ScheduledBatchCost(tiny_qnet, pipeline=True).pipeline_ops(2) is ops

    def test_rebuilt_program_costs_add_no_stream_timings(self):
        assert (
            ScheduledBatchCost("tiny", pipeline=True).pipeline_ops(2)
            is ScheduledBatchCost("tiny", pipeline=True).pipeline_ops(2)
        )
        sizes = []
        for _ in range(3):
            clear_probe_cache()
            cost = ScheduledBatchCost("tiny", pipeline=True)
            cost.warm_batch_cycles(2)
            cost.warm_batch_cycles(2, prev_size=3)
            stats = timeline_cache_stats()
            sizes.append((stats["stream_timings"], stats["ops_tokens"]))
        assert sizes[1] == sizes[0] and sizes[2] == sizes[0]

    def test_run_stream_outputs_unchanged_by_caching(self, tiny_qnet, tiny_images):
        executor = StreamExecutor.for_network(tiny_qnet)
        batches = [tiny_images[:2], tiny_images[2:4]]
        results = [executor.run_batch(images) for images in batches]
        timing = program_stream_timing(AcceleratorConfig(), executor.program, [2, 2])
        reference = StreamExecutor.for_network(tiny_qnet)
        for result, images in zip(results, batches):
            expected = reference.run_batch(images)
            assert (result.predictions == expected.predictions).all()
            assert result.overlapped_cycles == expected.overlapped_cycles
        # The same stream again returns identical (cached) timing.
        again = program_stream_timing(AcceleratorConfig(), executor.program, [2, 2])
        assert timings_equal(timing, again)

