"""Completion sinks on the engine give the simulator's reports."""

import inspect

import numpy as np
import pytest

from repro.serve import (
    ScheduledBatchCost,
    ServerConfig,
    ServingRuntime,
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
        replayed = replay_virtual(make_server(tiny_cost), trace)
        assert virtual_dict(replayed) == virtual_dict(default)
        # The engine's default sink records every request and batch.
        assert len(replayed.requests) == replayed.offered == len(trace.times_us)
        assert len(replayed.batches) == replayed.batch_count

    def test_streaming_sink_matches_streaming_flag(self, tiny_cost, trace):
        """The streaming loop's histograms and the recorded run are two
        views of one run: everything but the latency percentiles agrees,
        and those agree to a bin."""
        recorded = virtual_dict(ServingSimulator(trace, server=make_server(tiny_cost)).run())
        flagged = virtual_dict(
            ServingSimulator(trace, server=make_server(tiny_cost)).run(
                record_requests=False, latency_bin_us=BIN_US
            )
        )
        assert (flagged.pop("record_requests"), recorded.pop("record_requests")) == (False, True)
        assert (flagged.pop("latency_bin_us"), recorded.pop("latency_bin_us")) == (BIN_US, None)
        exact, binned = recorded.pop("latency_us"), flagged.pop("latency_us")
        assert flagged == recorded
        assert exact.keys() == binned.keys()
        for component, summary in exact.items():
            assert summary["mean_us"] == pytest.approx(binned[component]["mean_us"])
            for key in ("p50_us", "p95_us", "p99_us"):
                assert abs(summary[key] - binned[component][key]) <= BIN_US

    def test_streaming_sink_carries_its_own_bin_width(self, tiny_cost, trace):
        flagged = ServingSimulator(trace, server=make_server(tiny_cost)).run(
            record_requests=False, latency_bin_us=BIN_US
        )
        assert flagged.streaming.components["total"].bin_us == BIN_US

    def test_flags_are_the_only_result_path_switch(self):
        """``run`` selects its path by the two flags alone, the streaming
        sink takes no histogram options besides its bin width, and the
        virtual replay and the live runtime always record."""
        def names(function):
            return list(inspect.signature(function).parameters)[1:]

        assert names(ServingSimulator.run) == ["record_requests", "latency_bin_us"]
        assert names(StreamingSink.__init__) == ["bin_us", "pipeline"]
        assert names(ServingSimulator.__init__) == [
            "trace", "server", "images", "execute", "tenants", "tracer",
        ]
        assert "sink" not in inspect.signature(replay_virtual).parameters
        assert "sink" not in inspect.signature(ServingRuntime).parameters
