"""Array pool: deterministic placement and utilization accounting."""

import pytest

from repro.errors import ConfigError
from repro.serve.dispatcher import ArrayPool


def claim(pool, batch_size, duration_us, now_us=0.0):
    array, warm = pool.select(now_us)
    pool.charge(array, batch_size, duration_us, warm=warm)
    return array


def test_lowest_id_first_and_release():
    pool = ArrayPool(3)
    assert pool.idle_count == 3
    assert claim(pool, 1, 10.0) == 0
    assert claim(pool, 1, 10.0) == 1
    pool.release(0)
    assert claim(pool, 1, 10.0) == 0  # freed array is reused first
    assert pool.idle_count == 1


def test_stats_accumulate():
    pool = ArrayPool(2)
    claim(pool, 4, 100.0)
    pool.release(0)
    claim(pool, 2, 50.0)
    stat = pool.stats[0]
    assert stat.busy_us == pytest.approx(150.0)
    assert stat.batches == 2
    assert stat.requests == 6
    assert stat.utilization(300.0) == pytest.approx(0.5)
    assert pool.stats[1].utilization(300.0) == 0.0


def test_exhausted_pool_raises():
    pool = ArrayPool(1)
    claim(pool, 1, 1.0)
    assert not pool.has_idle()
    with pytest.raises(ConfigError):
        pool.select(1.0)


def test_zero_arrays_rejected():
    with pytest.raises(ConfigError):
        ArrayPool(0)


def test_zero_makespan_utilization():
    assert ArrayPool(1).stats[0].utilization(0.0) == 0.0


def test_utilization_spread_gauges_placement_fairness():
    pool = ArrayPool(2)
    claim(pool, 1, 100.0)
    assert pool.utilization_spread(200.0) == pytest.approx(0.5)
    pool.release(0, 100.0)
    claim(pool, 1, 100.0, now_us=150.0)  # LRU sends the second batch to #1
    assert pool.utilization_spread(200.0) == pytest.approx(0.0)


def test_earliest_idle_us_tracks_in_flight_work():
    pool = ArrayPool(1)
    assert pool.earliest_idle_us(5.0) == 5.0  # an array is idle
    array, _ = pool.select(10.0)
    pool.charge(array, 1, 40.0, now_us=10.0)
    assert pool.earliest_idle_us(20.0) == 50.0
    pool.release(array, 50.0)
    assert pool.earliest_idle_us(60.0) == 60.0


class TestBacklogGreedyRegression:
    """A fast-but-backlogged array must beat a slow-but-idle one.

    The idle-only greedy dispatch is forced onto whatever array happens
    to be free; on a pool with a ~5x speed gap that means a burst
    regularly lands batches on the slow array while the fast one is
    about to free up.  BacklogGreedyDispatch ranks arrays by predicted
    *completion* (queue delay + duration) and stacks behind the fast
    array instead — the regression this pins down is both the placement
    counts and the end-to-end latency win.
    """

    def heterogeneous_run(self, dispatch):
        import numpy as np

        from repro.hw.config import AcceleratorConfig
        from repro.serve import (
            ArrivalTrace,
            ScheduledBatchCost,
            ServerConfig,
            ServingSimulator,
        )

        cost = ScheduledBatchCost("tiny")
        accel = AcceleratorConfig()
        server = ServerConfig.from_policy(
            "fifo",
            cost,
            max_batch=8,
            max_wait_us=0.0,
            dispatch=dispatch,
            array_configs=[accel.with_array(16, 16), accel.with_array(2, 2)],
            network_name="tiny",
        )
        # A near-simultaneous burst: every batch formation happens while
        # both arrays' queues are observable, so the policies separate.
        trace = ArrivalTrace("burst", 1.0 + 0.001 * np.arange(64))
        return ServingSimulator(trace, server=server).run()

    def test_stacking_beats_idle_only_placement(self):
        idle_only = self.heterogeneous_run("greedy")
        backlog = self.heterogeneous_run("greedy-backlog")
        assert backlog.completed == idle_only.completed == 64
        # Fewer batches strand on the slow array...
        assert (
            backlog.array_stats[1]["batches"]
            < idle_only.array_stats[1]["batches"]
        )
        # ...and the run finishes measurably earlier, tail included.
        assert backlog.makespan_us < 0.9 * idle_only.makespan_us
        assert (
            backlog.latency_summary()["total"]["p99_us"]
            < idle_only.latency_summary()["total"]["p99_us"]
        )

    def test_homogeneous_pool_is_unaffected(self):
        import numpy as np

        from repro.serve import (
            ArrivalTrace,
            ScheduledBatchCost,
            ServerConfig,
            ServingSimulator,
        )

        cost = ScheduledBatchCost("tiny")
        trace = ArrivalTrace("burst", 1.0 + 0.001 * np.arange(64))

        def run(dispatch):
            server = ServerConfig.from_policy(
                "fifo",
                cost,
                max_batch=8,
                max_wait_us=0.0,
                dispatch=dispatch,
                arrays=2,
                network_name="tiny",
            )
            return ServingSimulator(trace, server=server).run()

        idle_only, backlog = run("greedy"), run("greedy-backlog")
        assert backlog.makespan_us == idle_only.makespan_us
        assert [s["batches"] for s in backlog.array_stats] == [
            s["batches"] for s in idle_only.array_stats
        ]
