"""The explicit-sink API is the same machine as the legacy run() flags."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    RecordingSink,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    StreamingSink,
    poisson_trace,
)

BIN_US = 25.0

# Host-timing fields legitimately differ between two identical runs.
WALL_KEYS = ("wall_seconds", "wall_rps")


def virtual_dict(report):
    data = report.to_dict()
    for key in WALL_KEYS:
        data.pop(key, None)
    return data


@pytest.fixture(scope="module")
def tiny_cost():
    return ScheduledBatchCost("tiny")


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(41)
    return poisson_trace(rate_rps=3000.0, count=300, rng=rng)


def make_server(cost):
    return ServerConfig.from_policy(
        "deadline", cost, arrays=2, deadline_us=8000.0, max_batch=8
    )


class TestExplicitSinks:
    def test_recording_sink_matches_default_run(self, tiny_cost, trace):
        default = ServingSimulator(trace, server=make_server(tiny_cost)).run()
        sink = RecordingSink()
        explicit = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            sink=sink
        )
        assert virtual_dict(explicit) == virtual_dict(default)
        # The report is assembled from the caller's sink, not a copy.
        assert len(sink.requests) == default.offered
        assert len(sink.batches) == default.batch_count

    def test_streaming_sink_matches_streaming_flag(self, tiny_cost, trace):
        flagged = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            record_requests=False, latency_bin_us=BIN_US
        )
        explicit = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            sink=StreamingSink(bin_us=BIN_US)
        )
        assert virtual_dict(explicit) == virtual_dict(flagged)

    def test_streaming_sink_carries_its_own_bin_width(self, tiny_cost, trace):
        explicit = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            # latency_bin_us must be ignored when a sink is passed.
            record_requests=False,
            latency_bin_us=999.0,
            sink=StreamingSink(bin_us=BIN_US),
        )
        assert explicit.streaming.components["total"].bin_us == BIN_US

    def test_log_kind_sink_bounds_percentile_error_relatively(
        self, tiny_cost, trace
    ):
        exact = ServingSimulator(trace, server=make_server(tiny_cost)).run()
        logged = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            sink=StreamingSink(bin_us=10.0, kind="log", subbins=64)
        )
        assert logged.completed == exact.completed
        exact_summary = exact.latency_summary()["total"]
        log_summary = logged.latency_summary()["total"]
        for key in ("p50_us", "p95_us", "p99_us"):
            reference = exact_summary[key]
            tolerance = max(10.0, reference / 64)
            assert abs(log_summary[key] - reference) <= tolerance, key

    def test_unknown_sink_rejected(self, tiny_cost, trace):
        class NotASink:
            pass

        with pytest.raises(ConfigError, match="sink"):
            ServingSimulator(trace, server=make_server(tiny_cost)).run(
                sink=NotASink()
            )
