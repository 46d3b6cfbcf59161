"""Shared serving fixtures for the observability tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ScheduledBatchCost, ServerConfig, poisson_trace, uniform_trace


@pytest.fixture(scope="module")
def tiny_cost():
    """Closed-form program pricing of the tiny network."""
    return ScheduledBatchCost("tiny")


@pytest.fixture(scope="module")
def server(tiny_cost):
    """Two arrays, classic fifo batching: exercises placement + waits."""
    return ServerConfig.from_policy(
        "fifo",
        tiny_cost,
        max_batch=8,
        max_wait_us=2000.0,
        arrays=2,
        network_name="tiny",
    )


@pytest.fixture(scope="module")
def busy_trace():
    """Poisson load: full and partial batches, some coalescing timeouts."""
    return poisson_trace(
        rate_rps=3000.0, count=120, rng=np.random.default_rng(11)
    )


@pytest.fixture(scope="module")
def burst_trace():
    """Saturating burst ending in a partial batch: guarantees a timeout."""
    return uniform_trace(rate_rps=80000.0, count=30)
