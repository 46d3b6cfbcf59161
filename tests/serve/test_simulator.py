"""End-to-end serving simulations: determinism, decomposition, sharding."""

import numpy as np
import pytest

from repro.compiler.executor import StreamExecutor
from repro.errors import ConfigError, ShapeError
from repro.serve import (
    BatchPolicy,
    MeasuredBatchCost,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    poisson_trace,
    replay_trace,
)


@pytest.fixture(scope="module")
def cost(tiny_qnet):
    return ScheduledBatchCost(qnet=tiny_qnet)


def overload_trace(cost, count: int = 64, multiplier: float = 3.0, seed: int = 11):
    rate = multiplier * cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
    return poisson_trace(rate, count, np.random.default_rng(seed))


class TestDeterminism:
    def test_same_seed_same_report(self, cost):
        trace = overload_trace(cost)
        policy = BatchPolicy(max_batch=8, max_wait_us=30.0)
        first = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=policy),
        ).run()
        second = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=policy),
        ).run()
        a, b = first.to_dict(), second.to_dict()
        a.pop("wall_seconds"), a.pop("wall_rps")
        b.pop("wall_seconds"), b.pop("wall_rps")
        assert a == b


class TestExactCycles:
    def test_batch_cycles_bit_identical_to_scheduler(self, cost, tiny_qnet):
        """Every dispatched batch occupies an array for exactly the cycles
        the executor reports standalone for that batch size."""
        report = ServingSimulator(
            overload_trace(cost),
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=8, max_wait_us=30.0),
            ),
        ).run()
        executor = StreamExecutor.for_network(tiny_qnet)
        size = tiny_qnet.config.image_size
        standalone = {}
        for batch in report.batches:
            if batch.size not in standalone:
                probe = np.zeros((batch.size, size, size))
                standalone[batch.size] = executor.run_batch(probe).overlapped_cycles
            assert batch.cycles == standalone[batch.size]

    def test_compute_latency_matches_cycles(self, cost):
        report = ServingSimulator(
            overload_trace(cost, count=16),
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=4)),
        ).run()
        config = cost.config
        for record in report.requests:
            batch = report.batches[record.batch_index]
            assert record.compute_us == pytest.approx(config.cycles_to_us(batch.cycles))


class TestLatencyDecomposition:
    def test_components_sum_to_wait(self, cost):
        report = ServingSimulator(
            overload_trace(cost),
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=8, max_wait_us=50.0),
            ),
        ).run()
        for record in report.requests:
            wait = record.dispatch_us - record.arrival_us
            assert record.batching_us + record.queueing_us == pytest.approx(wait)
            assert record.batching_us >= -1e-9
            assert record.queueing_us >= -1e-9

    def test_simultaneous_burst_dispatches_with_zero_wait(self, cost):
        """Eight requests at the same instant fill the batch immediately:
        no batching wait, no queueing, one full batch."""
        trace = replay_trace([100.0] * 8)
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=8, max_wait_us=1e6),
            ),
        ).run()
        assert len(report.batches) == 1
        assert report.batches[0].size == 8
        assert report.batches[0].dispatch_us == pytest.approx(100.0)
        for record in report.requests:
            assert record.batching_us == pytest.approx(0.0)
            assert record.queueing_us == pytest.approx(0.0)

    def test_timeout_dispatches_partial_batch(self, cost):
        """Two lonely requests wait out max_wait, then go as one batch;
        the wait is pure batching (an array sat idle throughout)."""
        trace = replay_trace([100.0, 150.0])
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=8, max_wait_us=200.0),
            ),
        ).run()
        assert len(report.batches) == 1
        assert report.batches[0].size == 2
        assert report.batches[0].dispatch_us == pytest.approx(300.0)
        first, second = report.requests
        assert first.batching_us == pytest.approx(200.0)
        assert second.batching_us == pytest.approx(150.0)
        assert first.queueing_us == pytest.approx(0.0)

    def test_batch_one_baseline_has_no_batching_wait(self, cost):
        report = ServingSimulator(
            overload_trace(cost, count=32),
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=1)),
        ).run()
        assert all(batch.size == 1 for batch in report.batches)
        for record in report.requests:
            assert record.batching_us == pytest.approx(0.0)


class TestShardingAndThroughput:
    def test_multi_array_shards_and_speeds_up(self, cost):
        trace = overload_trace(cost, count=64)
        policy = BatchPolicy(max_batch=8, max_wait_us=30.0)
        one = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=policy, arrays=1),
        ).run()
        two = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=policy, arrays=2),
        ).run()
        assert two.makespan_us < one.makespan_us
        assert two.throughput_rps > one.throughput_rps
        busy = [stat["busy_us"] for stat in two.array_stats]
        assert all(value > 0 for value in busy)
        assert sum(stat["requests"] for stat in two.array_stats) == 64

    def test_dynamic_batching_beats_batch1_under_overload(self, cost):
        trace = overload_trace(cost, count=64)
        batch1 = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=1)),
        ).run()
        dynamic = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=8, max_wait_us=30.0),
            ),
        ).run()
        assert dynamic.throughput_rps > batch1.throughput_rps
        assert dynamic.mean_batch_size > 4.0

    def test_utilization_near_one_under_overload(self, cost):
        report = ServingSimulator(
            overload_trace(cost, count=64),
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=8)),
        ).run()
        assert 0.9 < report.array_stats[0]["utilization"] <= 1.0

    def test_light_load_placement_rotates_arrays(self, cost):
        """Every batch dispatches while both arrays are idle; the
        least-recently-released tie-break alternates them, where the old
        index-order scan sent every batch to array 0 and its utilization
        spread was maximal."""
        gap = 2.0 * cost.config.cycles_to_us(cost.batch_cycles(1))
        trace = replay_trace(np.arange(1, 17) * gap)
        report = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=1), arrays=2),
        ).run()
        assert [batch.array for batch in report.batches] == [0, 1] * 8
        utilization = [stat["utilization"] for stat in report.array_stats]
        assert max(utilization) - min(utilization) < 0.01
        requests = [stat["requests"] for stat in report.array_stats]
        assert requests == [8, 8]


class TestExecuteModeAndValidation:
    def test_execute_predictions_match_golden(self, cost, tiny_qnet, tiny_images):
        trace = replay_trace(np.linspace(0.0, 100.0, len(tiny_images)))
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=cost,
                batching=BatchPolicy(max_batch=2, max_wait_us=10.0),
            ),
            images=tiny_images,
            execute=True,
        ).run()
        assert np.array_equal(report.predictions, tiny_qnet.predict_batch(tiny_images))

    def test_execute_charges_the_cost_models_cycles(self, cost, tiny_images):
        """Executing changes only the predictions: batch records,
        latencies and makespan equal a cost-only run of the same trace."""
        images = np.concatenate([tiny_images] * 4)
        trace = overload_trace(cost, count=len(images))

        def run(execute: bool):
            return ServingSimulator(
                trace,
                server=ServerConfig(
                    cost=cost,
                    batching=BatchPolicy(max_batch=4, max_wait_us=30.0),
                ),
                images=images,
                execute=execute,
            ).run()

        executed, priced = run(True), run(False)
        assert executed.batches == priced.batches
        assert executed.requests == priced.requests
        assert executed.makespan_us == priced.makespan_us
        assert priced.predictions is None
        assert (executed.predictions >= 0).all()

    def test_analytic_cost_runs(self):
        cost = ScheduledBatchCost("tiny")
        report = ServingSimulator(
            poisson_trace(1000.0, 8, np.random.default_rng(0)),
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=4)),
        ).run()
        assert report.completed == 8

    def test_execute_needs_scheduled_cost_and_images(self, cost, tiny_images):
        trace = replay_trace([1.0, 2.0])
        measured = MeasuredBatchCost(cost.config, [(1, 50.0), (4, 120.0)])
        with pytest.raises(ConfigError, match="compiled program"):
            ServingSimulator(
                trace,
                server=ServerConfig(cost=measured, batching=BatchPolicy()),
                images=tiny_images[:2],
                execute=True,
            )
        with pytest.raises(ConfigError):
            ServingSimulator(
                trace,
                server=ServerConfig(cost=cost, batching=BatchPolicy()),
                execute=True,
            )

    def test_image_count_mismatch_rejected(self, cost, tiny_images):
        with pytest.raises(ShapeError):
            ServingSimulator(
                replay_trace([1.0]),
                server=ServerConfig(cost=cost, batching=BatchPolicy()),
                images=tiny_images,
            )

    def test_report_table_renders(self, cost):
        report = ServingSimulator(
            overload_trace(cost, count=8),
            server=ServerConfig(cost=cost, batching=BatchPolicy(max_batch=4)),
        ).run()
        table = report.format_table()
        assert "queueing" in table and "batching" in table and "compute" in table
