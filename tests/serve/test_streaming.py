"""Streaming fast path: histogram statistics vs the full-record reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve import (
    LatencyHistogram,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    StreamingStats,
    TenantSpec,
    poisson_trace,
    replay_trace,
)

BIN_US = 50.0
PCTL_KEYS = ("p50_us", "p95_us", "p99_us")


@pytest.fixture(scope="module")
def tiny_cost():
    return ScheduledBatchCost("tiny")


@pytest.fixture(scope="module")
def tiny_pipeline_cost():
    return ScheduledBatchCost("tiny", pipeline=True)


def capacity_rps(cost):
    return cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)


def assert_reports_match(record, fast, bin_us=BIN_US):
    """The fast path's contract against the full-record report."""
    assert fast.offered == record.offered
    assert fast.completed == record.completed
    assert fast.shed_count == record.shed_count
    assert fast.batch_count == record.batch_count
    assert fast.warm_batches == record.warm_batches
    assert fast.deadline_miss_count == record.deadline_miss_count
    assert fast.batch_size_histogram() == record.batch_size_histogram()
    assert fast.makespan_us == record.makespan_us
    for record_stat, fast_stat in zip(record.array_stats, fast.array_stats):
        assert fast_stat["batches"] == record_stat["batches"]
        assert fast_stat["requests"] == record_stat["requests"]
        assert fast_stat["busy_us"] == pytest.approx(record_stat["busy_us"])
    exact = record.latency_summary()
    streamed = fast.latency_summary()
    assert set(streamed) == set(exact)
    for name in exact:
        for key in PCTL_KEYS:
            assert abs(streamed[name][key] - exact[name][key]) <= bin_us, (
                name,
                key,
            )
        assert streamed[name]["mean_us"] == pytest.approx(
            exact[name]["mean_us"], rel=1e-9, abs=1e-6
        )


class TestLatencyHistogram:
    def test_counts_and_mean_are_exact(self):
        histogram = LatencyHistogram(bin_us=10.0)
        values = [3.0, 17.0, 17.5, 250.0, 9999.0]
        for value in values:
            histogram.add(value)
        assert histogram.count == len(values)
        assert histogram.mean_us == pytest.approx(np.mean(values))
        assert histogram.max_us == max(values)

    def test_percentiles_within_half_bin_of_numpy(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(scale=2000.0, size=5000)
        histogram = LatencyHistogram(bin_us=BIN_US)
        histogram.add_array(values)
        for p in (50, 95, 99):
            exact = float(np.percentile(values, p))
            assert abs(histogram.percentile(p) - exact) <= BIN_US / 2 + 1e-9

    def test_weighted_adds_match_repeated_adds(self):
        a = LatencyHistogram(bin_us=5.0)
        b = LatencyHistogram(bin_us=5.0)
        for _ in range(7):
            a.add(123.0)
        b.add_weighted(123.0, 7)
        assert a.count == b.count
        assert a.summary() == b.summary()

    def test_merge_combines_counts(self):
        a = LatencyHistogram(bin_us=10.0)
        b = LatencyHistogram(bin_us=10.0)
        a.add_array([10.0, 20.0])
        b.add_array([30.0, 40000.0])
        a.merge(b)
        assert a.count == 4
        assert a.max_us == 40000.0
        with pytest.raises(ConfigError):
            a.merge(LatencyHistogram(bin_us=99.0))

    def test_empty_histogram_reports_zero(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(99) == 0.0
        assert histogram.summary()["mean_us"] == 0.0

    def test_rejects_bad_bin(self):
        with pytest.raises(ConfigError):
            LatencyHistogram(bin_us=0.0)
        with pytest.raises(ConfigError):
            LatencyHistogram(bin_us=math.inf)


class TestStreamingStats:
    def test_aggregates(self):
        stats = StreamingStats(bin_us=10.0, pipeline=True)
        stats.offered = 3
        stats.add_batch(2, warm=True, drain_saved_us=5.0)
        stats.add_request(100.0, 60.0, 10.0, 30.0, 5.0)
        stats.add_request(50.0, 0.0, 20.0, 30.0, 5.0)
        assert stats.completed == 3  # offered - shed
        assert stats.warm_batches == 1
        assert "drain_saved" in stats.latency_summary()
        assert stats.components["total"].count == 2


class TestStreamingSimulation:
    def test_fifo_matches_record_path(self, tiny_cost):
        trace = poisson_trace(
            2.5 * capacity_rps(tiny_cost), 3000, np.random.default_rng(3)
        )
        server = ServerConfig.from_policy(
            "fifo", tiny_cost, max_batch=8, max_wait_us=50.0, arrays=2
        )
        simulator = ServingSimulator(trace, server=server)
        assert_reports_match(
            simulator.run(), simulator.run(record_requests=False)
        )

    @pytest.mark.parametrize("policy", ["deadline", "greedy"])
    def test_policy_presets_match_record_path(self, tiny_cost, policy):
        trace = poisson_trace(
            2.0 * capacity_rps(tiny_cost), 1200, np.random.default_rng(9)
        )
        server = ServerConfig.from_policy(
            policy,
            tiny_cost,
            max_batch=8,
            max_wait_us=50.0,
            arrays=2,
            deadline_us=100.0,
        )
        simulator = ServingSimulator(trace, server=server)
        assert_reports_match(
            simulator.run(), simulator.run(record_requests=False)
        )

    def test_pipeline_warm_costs_match_record_path(self, tiny_pipeline_cost):
        trace = poisson_trace(
            3.0 * capacity_rps(tiny_pipeline_cost),
            800,
            np.random.default_rng(17),
        )
        server = ServerConfig.from_policy(
            "fifo",
            tiny_pipeline_cost,
            max_batch=4,
            max_wait_us=50.0,
            arrays=2,
            pipeline=True,
        )
        simulator = ServingSimulator(trace, server=server)
        record = simulator.run()
        fast = simulator.run(record_requests=False)
        assert record.warm_batches > 0  # the scenario exercises warm costs
        assert_reports_match(record, fast)

    def test_multi_tenant_matches_record_path(self, tiny_cost):
        rng = np.random.default_rng(23)
        rate = capacity_rps(tiny_cost)
        tenants = [
            TenantSpec(name="a", trace=poisson_trace(rate, 400, rng), weight=2.0),
            TenantSpec(
                name="b",
                trace=poisson_trace(0.7 * rate, 300, rng),
                deadline_us=200.0,
            ),
        ]
        server = ServerConfig.from_policy(
            "fifo", tiny_cost, max_batch=8, max_wait_us=40.0, arrays=2
        )
        simulator = ServingSimulator(server=server, tenants=tenants)
        record = simulator.run()
        fast = simulator.run(record_requests=False)
        assert_reports_match(record, fast)
        for record_entry, fast_entry in zip(record.tenants, fast.tenants):
            for key in ("tenant", "offered", "served", "shed", "deadline_misses"):
                assert fast_entry[key] == record_entry[key]

    def test_per_request_deadlines_match_record_path(self, tiny_cost):
        rng = np.random.default_rng(29)
        times = np.cumsum(
            rng.exponential(1e6 / (2.0 * capacity_rps(tiny_cost)), size=600)
        )
        deadlines = times + rng.uniform(50.0, 400.0, size=600)
        trace = replay_trace(times, deadlines_us=deadlines)
        server = ServerConfig.from_policy(
            "deadline", tiny_cost, max_batch=8, max_wait_us=50.0
        )
        simulator = ServingSimulator(trace, server=server)
        record = simulator.run()
        fast = simulator.run(record_requests=False)
        assert record.shed_count > 0  # admission is exercised
        assert_reports_match(record, fast)

    def test_streaming_report_serializes(self, tiny_cost):
        trace = poisson_trace(capacity_rps(tiny_cost), 100, np.random.default_rng(1))
        simulator = ServingSimulator(
            trace, server=ServerConfig.from_policy("fifo", tiny_cost)
        )
        report = simulator.run(record_requests=False)
        payload = report.to_dict()
        assert payload["record_requests"] is False
        assert payload["latency_bin_us"] == BIN_US
        assert payload["requests"] == report.completed
        assert "latency" in report.format_table()

    def test_execute_requires_record_mode(self, tiny_qnet, tiny_images):
        cost = ScheduledBatchCost(qnet=tiny_qnet)
        trace = replay_trace(np.array([1.0, 2.0, 3.0, 4.0]))
        simulator = ServingSimulator(
            trace,
            server=ServerConfig(cost=cost),
            images=tiny_images,
            execute=True,
        )
        with pytest.raises(ConfigError):
            simulator.run(record_requests=False)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=1, max_value=400),
        multiplier=st.floats(min_value=0.2, max_value=4.0),
        max_batch=st.integers(min_value=1, max_value=8),
        arrays=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(["fifo", "deadline", "greedy"]),
    )
    def test_streaming_matches_record_on_random_traces(
        self, seed, count, multiplier, max_batch, arrays, policy
    ):
        # The property the fast path promises: identical counts and
        # percentiles within one histogram bin, on any trace and preset.
        # (Module-level config: hypothesis forbids function-scoped
        # fixtures inside @given; the global probe cache keeps repeated
        # cost-model construction cheap.)
        cost = ScheduledBatchCost("tiny")
        trace = poisson_trace(
            multiplier * capacity_rps(cost), count, np.random.default_rng(seed)
        )
        server = ServerConfig.from_policy(
            policy,
            cost,
            max_batch=max_batch,
            max_wait_us=50.0,
            arrays=arrays,
            deadline_us=150.0,
        )
        simulator = ServingSimulator(trace, server=server)
        assert_reports_match(
            simulator.run(), simulator.run(record_requests=False)
        )
