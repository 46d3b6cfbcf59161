"""Property test over the one virtual-time event loop.

:meth:`ServingSimulator.run`'s recorded path is
:func:`repro.serve.runtime.run_virtual` driving a
:class:`~repro.serve.runtime.RuntimeEngine`.  Whatever the policy
preset, dispatch policy, pool size, tenant mix or fault plan, every
report it produces must conserve requests, place every served request in
exactly one completed batch, agree tenant by tenant with its request
rows, and, without faults, count what the streaming path counts.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    FaultPlan,
    RetryPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    TenantSpec,
    poisson_trace,
)
from repro.serve.policies import DISPATCH_POLICIES
from repro.serve.stats import percentile_summary


@pytest.fixture(scope="module")
def tiny_cost():
    return ScheduledBatchCost("tiny")


@st.composite
def fault_plans(draw, arrays: int):
    """``(plan, integrity)``: none, crashes of each kind, or caught corruption."""
    kind = draw(
        st.sampled_from(["none", "rate", "ordinals", "hang", "array-down", "corrupt"])
    )
    seed = draw(st.integers(0, 1000))
    if kind == "none":
        return None, None
    if kind == "rate":
        return FaultPlan(crash_rate=draw(st.sampled_from([0.05, 0.2])), seed=seed), None
    if kind == "ordinals":
        ordinals = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
        return FaultPlan(crash_batches=tuple(sorted(ordinals)), seed=seed), None
    if kind == "hang":
        return FaultPlan(crash_batches=(2,), crash_rate=0.05, hang_us=40.0, seed=seed), None
    if kind == "array-down":
        array = draw(st.integers(0, arrays - 1))
        return FaultPlan(array_down=((array, 0.0, 3000.0),), seed=seed), None
    return FaultPlan(corrupt_rate=0.15, seed=seed), "checksum"


@st.composite
def runs(draw):
    """A server configuration and its tenants."""
    arrays = draw(st.integers(1, 3))
    plan, integrity = draw(fault_plans(arrays))
    settings = dict(
        policy=draw(st.sampled_from(["fifo", "deadline", "greedy"])),
        dispatch=draw(st.sampled_from(sorted(DISPATCH_POLICIES))),
        arrays=arrays,
        max_batch=draw(st.sampled_from([1, 4, 8])),
        deadline_us=draw(st.sampled_from([None, 3000.0])),
        fault_plan=plan,
        integrity=integrity,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([2000.0, 8000.0]))
    count = draw(st.integers(1, 80))
    tenants = [TenantSpec(name="a", trace=poisson_trace(rate, count, rng))]
    if draw(st.booleans()):
        tenants.append(
            TenantSpec(
                name="b",
                trace=poisson_trace(rate / 2, draw(st.integers(1, 40)), rng),
                weight=2.0,
            )
        )
    return settings, tenants


def _check_tenant_entries(report, tenants):
    """Every field of every tenant entry agrees with the request rows."""
    assert [entry["tenant"] for entry in report.tenants] == [spec.name for spec in tenants]
    for entry, spec in zip(report.tenants, tenants):
        mine = [record for record in report.requests if record.tenant == spec.name]
        served = [r for r in mine if not (r.shed or r.failed)]
        assert entry["offered"] == len(mine) == spec.trace.count
        assert entry["served"] == len(served)
        assert entry["shed"] == sum(1 for r in mine if r.shed)
        assert entry["failed"] == sum(1 for r in mine if r.failed)
        assert entry["deadline_misses"] == sum(1 for r in mine if r.missed_deadline)
        assert entry["served"] + entry["shed"] + entry["failed"] == entry["offered"]
        assert entry["served_share"] == (
            len(served) / report.completed if report.completed else 0.0
        )
        assert entry["latency_us"] == percentile_summary(
            np.array([r.latency_us for r in served])
        )


def test_tenant_entries_count_failed_requests_apart(tiny_cost):
    """Crashed requests out of retries are failed, not served, per tenant."""
    rng = np.random.default_rng(3)
    tenants = [
        TenantSpec(name="a", trace=poisson_trace(8000.0, 150, rng)),
        TenantSpec(name="b", trace=poisson_trace(4000.0, 100, rng), weight=2.0),
    ]
    server = ServerConfig.from_policy(
        "fifo",
        tiny_cost,
        network_name="tiny",
        arrays=2,
        fault_plan=FaultPlan(crash_batches=(1, 2, 3)),
        retry=RetryPolicy(max_attempts=1),
    )
    report = ServingSimulator(tenants=tenants, server=server).run()
    assert report.failed_count > 0
    assert sum(entry["failed"] for entry in report.tenants) == report.failed_count
    assert sum(entry["served"] for entry in report.tenants) == report.completed
    _check_tenant_entries(report, tenants)


@settings(max_examples=60, deadline=None)
@given(run=runs())
def test_every_run_conserves_requests(tiny_cost, run):
    settings, tenants = run
    settings = dict(settings)
    server = ServerConfig.from_policy(
        settings.pop("policy"), tiny_cost, network_name="tiny", **settings
    )
    report = ServingSimulator(tenants=tenants, server=server).run()

    records = report.requests
    assert report.offered == sum(spec.trace.count for spec in tenants)
    assert report.offered == report.completed + report.shed_count + report.failed_count
    for spec in tenants:
        mine = [record for record in records if record.tenant == spec.name]
        assert len(mine) == spec.trace.count
        outcomes = Counter(
            "shed" if r.shed else "failed" if r.failed else "completed" for r in mine
        )
        assert sum(outcomes.values()) == spec.trace.count
        assert not any(r.shed and r.failed for r in mine)
    if report.tenants is not None:
        _check_tenant_entries(report, tenants)

    # Every served request sits in exactly one completed batch, the one
    # its record names; shed and failed requests in none.
    placements = Counter(
        index
        for batch in report.batches
        if not batch.crashed
        for index in batch.request_indices
    )
    served = {record.index for record in report.served}
    assert set(placements) == served
    assert all(count == 1 for count in placements.values())
    batches = {batch.index: batch for batch in report.batches}
    for record in report.served:
        batch = batches[record.batch_index]
        assert not batch.crashed and record.index in batch.request_indices
    if report.faults is not None:
        assert report.faults["failed"] == report.failed_count

    if server.fault_plan is None:
        streaming = ServingSimulator(tenants=tenants, server=server).run(
            record_requests=False
        )
        assert (streaming.offered, streaming.completed, streaming.shed_count) == (
            report.offered,
            report.completed,
            report.shed_count,
        )
