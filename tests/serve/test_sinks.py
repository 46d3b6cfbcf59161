"""Completion sinks on the engine give the simulator's reports."""

import inspect

import numpy as np
import pytest

from repro.serve import (
    RecordingSink,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    StreamingSink,
    poisson_trace,
    replay_virtual,
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
        explicit = replay_virtual(make_server(tiny_cost), trace, sink=sink)
        assert virtual_dict(explicit) == virtual_dict(default)
        # The report is assembled from the caller's sink, not a copy.
        assert len(sink.requests) == default.offered
        assert len(sink.batches) == default.batch_count

    def test_streaming_sink_matches_streaming_flag(self, tiny_cost, trace):
        """The engine with a streaming sink and the simulator's own
        streaming loop are two implementations of one report."""
        flagged = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            record_requests=False, latency_bin_us=BIN_US
        )
        explicit = replay_virtual(
            make_server(tiny_cost), trace, sink=StreamingSink(bin_us=BIN_US)
        )
        assert virtual_dict(explicit) == virtual_dict(flagged)

    def test_streaming_sink_carries_its_own_bin_width(self, tiny_cost, trace):
        explicit = replay_virtual(
            make_server(tiny_cost), trace, sink=StreamingSink(bin_us=BIN_US)
        )
        assert explicit.streaming.components["total"].bin_us == BIN_US

    def test_flags_are_the_only_result_path_switch(self):
        """``run`` selects its path by the two flags alone, and the
        streaming sink takes no histogram options besides its bin width."""
        def names(function):
            return list(inspect.signature(function).parameters)[1:]

        assert names(ServingSimulator.run) == ["record_requests", "latency_bin_us"]
        assert names(StreamingSink.__init__) == ["bin_us", "pipeline"]
        assert names(ServingSimulator.__init__) == [
            "trace", "server", "images", "execute", "tenants", "tracer",
        ]
