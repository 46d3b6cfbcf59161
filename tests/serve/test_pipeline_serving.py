"""Pipelined serving: warm/cold charging, drain-saved accounting, dispatch."""

import numpy as np
import pytest

from repro.compiler.cost import program_stream_timing
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import as_compiled
from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.serve import (
    BatchPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    poisson_trace,
    replay_trace,
    uniform_trace,
)
from repro.serve.dispatcher import ArrayPool


@pytest.fixture(scope="module")
def cost(tiny_qnet):
    return ScheduledBatchCost(qnet=tiny_qnet, pipeline=True)


def saturating_trace(cost, count=40, multiplier=3.0, seed=11):
    rate = multiplier * cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
    return poisson_trace(rate, count, np.random.default_rng(seed))


class TestWarmCosts:
    def test_warm_at_most_cold(self, cost):
        for batch in (1, 2, 8):
            assert cost.warm_batch_cycles(batch) <= cost.batch_cycles(batch)
            assert cost.drain_saved_cycles(batch) == (
                cost.batch_cycles(batch) - cost.warm_batch_cycles(batch)
            )

    def test_warm_needs_pipeline_flag(self, tiny_qnet):
        plain = ScheduledBatchCost(qnet=tiny_qnet)
        with pytest.raises(ConfigError):
            plain.warm_batch_cycles(1)

    def test_sequential_accounting_rejected(self, tiny_qnet):
        with pytest.raises(ConfigError):
            ScheduledBatchCost(qnet=tiny_qnet, accounting="sequential", pipeline=True)

    def test_warm_cycles_per_image_improve_with_batch(self, cost):
        assert cost.warm_batch_cycles(8) / 8 < cost.warm_batch_cycles(1)

    def test_analytic_warm_at_most_cold(self):
        residual = ScheduledBatchCost("tiny-res", pipeline=True)
        for batch in (1, 4):
            assert residual.warm_batch_cycles(batch) <= residual.batch_cycles(batch)

    def test_analytic_warm_needs_pipeline_flag(self):
        with pytest.raises(ConfigError):
            ScheduledBatchCost("tiny").warm_batch_cycles(1)

    def test_execute_returns_warm_cycles_and_identical_outputs(self, cost, tiny_images):
        """Execute mode charges the same warm and cold cycles as a
        cost-only run; only the predictions are added."""
        images = np.concatenate([tiny_images] * 5)
        trace = saturating_trace(cost, count=len(images))

        def run(execute: bool):
            return ServingSimulator(
                trace,
                server=ServerConfig(
                    cost=cost,
                    batching=BatchPolicy(max_batch=4, max_wait_us=20.0),
                    pipeline=True,
                ),
                images=images,
                execute=execute,
            ).run()

        executed, priced = run(True), run(False)
        assert executed.warm_batches > 0
        assert executed.batches == priced.batches
        assert executed.makespan_us == priced.makespan_us


class TestWarmDispatch:
    def test_back_to_back_batches_run_warm(self, cost):
        report = ServingSimulator(
            saturating_trace(cost),
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=4, max_wait_us=20.0),
                pipeline=True,
            ),
        ).run()
        # Under saturation every batch after the first finds the queue
        # non-empty and dispatches the instant the array frees.
        assert report.warm_batches == len(report.batches) - 1
        for batch in report.batches[1:]:
            assert batch.warm
            assert batch.cycles == cost.warm_batch_cycles(batch.size)
            assert batch.drain_saved_us == pytest.approx(
                cost.config.cycles_to_us(cost.drain_saved_cycles(batch.size))
            )
        assert not report.batches[0].warm
        assert report.batches[0].cycles == cost.batch_cycles(report.batches[0].size)

    def test_idle_gaps_dispatch_cold(self, cost):
        # Arrivals far apart: the array always drains before the next
        # request shows up, so nothing runs warm.
        gap = 10 * cost.config.cycles_to_us(cost.batch_cycles(1))
        trace = replay_trace(np.arange(1, 9) * gap)
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=1, max_wait_us=0.0),
                pipeline=True,
            ),
        ).run()
        assert report.warm_batches == 0
        assert report.drain_saved_total_us == 0.0

    def test_pipeline_improves_saturated_throughput(self, cost, tiny_qnet):
        trace = saturating_trace(cost)
        policy = BatchPolicy(max_batch=4, max_wait_us=20.0)
        cold = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=ScheduledBatchCost(qnet=tiny_qnet),
                batching=policy,
            ),
        ).run()
        warm = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=policy, pipeline=True),
        ).run()
        assert warm.throughput_rps > cold.throughput_rps
        assert warm.drain_saved_total_us > 0.0

    def test_pipeline_off_unchanged_by_pipeline_capable_cost(self, cost, tiny_qnet):
        trace = saturating_trace(cost)
        policy = BatchPolicy(max_batch=4, max_wait_us=20.0)
        plain = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=ScheduledBatchCost(qnet=tiny_qnet),
                batching=policy,
            ),
        ).run()
        off = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=policy, pipeline=False),
        ).run()
        a, b = plain.to_dict(), off.to_dict()
        for key in ("wall_seconds", "wall_rps"):
            a.pop(key), b.pop(key)
        assert a == b

    def test_pipeline_needs_pipeline_cost(self, tiny_qnet):
        plain = ScheduledBatchCost(qnet=tiny_qnet)
        trace = uniform_trace(100.0, 4)
        with pytest.raises(ConfigError):
            ServingSimulator(
                trace,
                server=ServerConfig(cost=plain, batching=BatchPolicy(), pipeline=True),
            )

    def test_execute_mode_predictions_bit_exact(self, cost, tiny_qnet, tiny_images):
        trace = saturating_trace(cost, count=4)
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=4, max_wait_us=20.0),
                pipeline=True,
            ),
            images=tiny_images,
            execute=True,
        ).run()
        assert report.warm_batches >= 0  # ran to completion
        executor = StreamExecutor.for_network(tiny_qnet)
        for batch in report.batches:
            expected = executor.run_batch(tiny_images[batch.request_indices])
            np.testing.assert_array_equal(
                report.predictions[batch.request_indices], expected.predictions
            )

    def test_report_fields(self, cost):
        report = ServingSimulator(
            saturating_trace(cost),
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=4, max_wait_us=20.0),
                pipeline=True,
            ),
        ).run()
        payload = report.to_dict()
        assert payload["pipeline"] is True
        assert payload["warm_batches"] == report.warm_batches
        assert payload["drain_saved_us"] == pytest.approx(report.drain_saved_total_us)
        assert "drain_saved" in report.latency_summary()
        assert "warm batches" in report.format_table()
        # The three-way decomposition still sums to the latency.
        for record in report.requests:
            assert record.queueing_us + record.batching_us + record.compute_us == (
                pytest.approx(record.latency_us)
            )


class TestPairKeyedWarmCosts:
    """The warm cost is keyed by the (prev_batch_size, batch_size) pair."""

    def test_pair_reduces_to_homogeneous_when_sizes_match(self, cost):
        by_name = ScheduledBatchCost("tiny-res", pipeline=True)
        for model in (cost, by_name):
            assert model.warm_batch_cycles(4, 4) == model.warm_batch_cycles(4)
            assert model.warm_batch_cycles(2, None) == model.warm_batch_cycles(2)

    def test_mixed_pairs_differ_from_homogeneous_probe(self, cost):
        """A batch following a different-size predecessor genuinely costs
        differently than the homogeneous-stream assumption (the ROADMAP
        open item this closes): a small batch after a large one hides
        more prestage under the longer routing tail, and vice versa."""
        assert cost.warm_batch_cycles(1, 4) != cost.warm_batch_cycles(1)
        assert cost.warm_batch_cycles(4, 1) != cost.warm_batch_cycles(4)

    def test_pair_never_exceeds_cold(self, cost):
        for prev, current in [(1, 4), (4, 1), (8, 2), (2, 8)]:
            warm = cost.warm_batch_cycles(current, prev)
            assert warm <= cost.batch_cycles(current)
            assert cost.drain_saved_cycles(current, prev) == (
                cost.batch_cycles(current) - warm
            )

    def test_pair_crosschecks_against_stream_scheduler(self, cost, tiny_qnet):
        """The scheduled pair cost is exactly the settled transition-batch
        marginal of a mixed-size stream of the compiled program."""
        from repro.serve.costs import PAIR_PROBE_PREFIX, PAIR_PROBE_SUFFIX

        program = as_compiled(tiny_qnet).program
        for prev, current in [(4, 1), (1, 4)]:
            timing = program_stream_timing(
                AcceleratorConfig(),
                program,
                [prev] * PAIR_PROBE_PREFIX + [current] * PAIR_PROBE_SUFFIX,
            )
            expected = min(
                timing.batches[PAIR_PROBE_PREFIX].marginal_cycles,
                cost.batch_cycles(current),
            )
            assert cost.warm_batch_cycles(current, prev) == expected

    def test_invalid_prev_size_rejected(self, cost):
        with pytest.raises(ConfigError, match="previous batch size"):
            cost.warm_batch_cycles(4, 0)
        with pytest.raises(ConfigError, match="batch size must be positive"):
            cost.warm_batch_cycles(0, 4)

    def test_simulator_charges_pair_cost_on_mixed_handoff(self, cost):
        """A solo batch, then four requests queued while it runs: the
        4-batch dispatches warm the instant the 1-batch finishes and is
        charged the (1, 4) pair cost, not the homogeneous 4-stream figure."""
        # Requests 1-4 arrive while request 0's batch occupies the array.
        trace = replay_trace([0.0, 1.0, 2.0, 3.0, 4.0])
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=4, max_wait_us=0.0),
                pipeline=True,
            ),
        ).run()
        assert [batch.size for batch in report.batches] == [1, 4]
        tail = report.batches[1]
        assert tail.warm
        assert tail.cycles == cost.warm_batch_cycles(4, prev_size=1)
        assert tail.cycles != cost.warm_batch_cycles(4)
        assert tail.drain_saved_us == pytest.approx(
            cost.config.cycles_to_us(cost.drain_saved_cycles(4, prev_size=1))
        )

    def test_execute_charges_pair_cost(self, cost, tiny_qnet, tiny_images):
        images = np.concatenate([tiny_images, tiny_images[:1]])
        report = ServingSimulator(
            replay_trace([0.0, 1.0, 2.0, 3.0, 4.0]),
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=4, max_wait_us=0.0),
                pipeline=True,
            ),
            images=images,
            execute=True,
        ).run()
        assert [batch.size for batch in report.batches] == [1, 4]
        assert report.batches[1].cycles == cost.warm_batch_cycles(4, prev_size=1)
        np.testing.assert_array_equal(
            report.predictions, tiny_qnet.predict_batch(images)
        )


class TestWarmArrayPreference:
    def test_prefers_just_freed_array(self):
        pool = ArrayPool(2)
        a, warm = pool.select(0.0)
        assert (a, warm) == (0, False)
        pool.charge(a, 1, 10.0)
        pool.release(a, 10.0)
        # Array 0 was just released at t=10; prefer it over cold array 1.
        array, warm = pool.select(10.0, prefer_warm=True)
        assert (array, warm) == (0, True)

    def test_without_preference_least_recently_released_wins(self):
        pool = ArrayPool(2)
        first, _ = pool.select(0.0)
        pool.release(first, 5.0)
        # Array 1 has been idle since the start — longer than array 0,
        # which was just released — so it wins the cold selection even
        # though array 0 happens to be warm.
        array, warm = pool.select(5.0)
        assert (array, warm) == (1, False)
        array, warm = pool.select(5.0)
        assert (array, warm) == (0, True)

    def test_warm_counter_tracked(self):
        pool = ArrayPool(1)
        array, _ = pool.select(0.0)
        pool.charge(array, 2, 7.0, warm=False)
        pool.release(array, 7.0)
        array, warm = pool.select(7.0, prefer_warm=True)
        assert warm
        pool.charge(array, 2, 5.0, warm=True)
        assert pool.stats[0].warm_batches == 1
        assert pool.stats[0].batches == 2

    def test_charge_accumulates_requests(self):
        pool = ArrayPool(2)
        array, _ = pool.select(0.0)
        pool.charge(array, 3, 12.0)
        assert array == 0
        assert pool.stats[0].busy_us == 12.0
        assert pool.stats[0].requests == 3
