"""Tracer contract: observes everything, steers nothing.

The core invariants of :mod:`repro.obs.tracer`:

* **Decision identity** — a run with a tracer attached makes exactly
  the decisions of a run without one (tracers are write-only).
* **Well-formedness** — the recorded stream has balanced per-array
  compute spans, one arrival and one terminal event per request, and
  ordered lifecycle phases, under plain and stacked dispatch alike.
* **Derived views** — busy spans, per-array utilization (pinned to the
  report's own pool accounting), and per-request lifecycles.
* **Fast-path guard** — the streaming path bypasses the instrumented
  core, so tracer + streaming raises instead of silently dropping
  events.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    MultiTracer,
    RecordingTracer,
    Tracer,
    combine_tracers,
    well_formed_errors,
)
from repro.obs.tracer import ARRIVE, COMPLETE, SHED, TIMEOUT
from repro.serve import (
    ServerConfig,
    ServingSimulator,
    decision_diffs,
    uniform_trace,
)


def test_null_tracer_is_disabled_and_inert(server, busy_trace):
    assert NULL_TRACER.enabled is False
    # The hooks exist and do nothing — the hot path only checks .enabled.
    NULL_TRACER.request_arrived(0.0, 0, "", math.inf)
    NULL_TRACER.coalescing_timeout(0.0)


def test_tracer_does_not_change_decisions(server, busy_trace):
    base = ServingSimulator(busy_trace, server=server).run()
    tracer = RecordingTracer()
    traced = ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    assert decision_diffs(base, traced) == []
    assert len(tracer.events) > 0


def test_stream_is_well_formed(server, busy_trace):
    tracer = RecordingTracer()
    report = ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    assert well_formed_errors(tracer) == []
    kinds = {event.kind for event in tracer.events}
    assert kinds <= set(EVENT_KINDS)
    completes = [e for e in tracer.events if e.kind == COMPLETE]
    assert len(completes) == report.completed


def test_stream_well_formed_under_stacked_dispatch(tiny_cost):
    """greedy-backlog on a heterogeneous pool stacks batches behind the
    busy fast array rather than take the idle slow one: compute spans
    carry future start times, and the stream must still balance."""
    from repro.hw.config import AcceleratorConfig

    accel = AcceleratorConfig()
    server = ServerConfig.from_policy(
        "fifo",
        tiny_cost,
        max_batch=4,
        max_wait_us=1000.0,
        dispatch="greedy-backlog",
        network_name="tiny",
        array_configs=(accel.with_array(16, 16), accel.with_array(4, 4)),
    )
    tracer = RecordingTracer()
    ServingSimulator(
        uniform_trace(rate_rps=2_000_000.0, count=60), server=server, tracer=tracer
    ).run()
    assert well_formed_errors(tracer) == []
    assert any(batch.stacked for batch in tracer.batches)


def test_timeout_fires_on_trailing_partial_batch(server, burst_trace):
    tracer = RecordingTracer()
    ServingSimulator(burst_trace, server=server, tracer=tracer).run()
    assert tracer.timeouts >= 1
    assert any(e.kind == TIMEOUT for e in tracer.events)


def test_busy_spans_and_utilization_match_report(server, busy_trace):
    tracer = RecordingTracer()
    report = ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    spans = tracer.busy_spans()
    assert len(spans) == report.batch_count
    assert all(done > start for _, start, done in spans)
    derived = tracer.array_utilization(report.makespan_us, arrays=server.arrays)
    expected = report.array_utilization()
    assert set(derived) == set(expected)
    for array, value in expected.items():
        assert derived[array] == pytest.approx(value, rel=1e-9)


def test_request_lifecycles_cover_every_arrival(server, busy_trace):
    tracer = RecordingTracer()
    report = ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    lifecycles = tracer.request_lifecycles()
    assert len(lifecycles) == report.offered
    for events in lifecycles.values():
        assert events[0].kind == ARRIVE
        assert events[-1].kind in (COMPLETE, SHED)


def test_sheds_traced_under_queue_limit(tiny_cost, burst_trace):
    server = ServerConfig.from_policy(
        "fifo",
        tiny_cost,
        max_batch=8,
        max_wait_us=2000.0,
        queue_limit=4,
        network_name="tiny",
    )
    tracer = RecordingTracer()
    report = ServingSimulator(burst_trace, server=server, tracer=tracer).run()
    assert report.shed_count > 0
    assert sum(1 for e in tracer.events if e.kind == SHED) == report.shed_count
    assert well_formed_errors(tracer) == []


def test_fault_events_keep_the_stream_well_formed(server, busy_trace):
    """Crashes, retries and quarantine windows stay within the grammar:
    a retried request re-dispatches but still ends in exactly one
    terminal event."""
    from dataclasses import replace

    from repro.obs.tracer import FAILED, RETRY
    from repro.serve import FaultPlan

    faulted = replace(
        server, fault_plan=FaultPlan(crash_batches=(1, 3), seed=3)
    )
    tracer = RecordingTracer()
    report = ServingSimulator(busy_trace, server=faulted, tracer=tracer).run()
    assert report.faults["crashes"] >= 2
    assert well_formed_errors(tracer) == []
    retried = {e.request for e in tracer.events if e.kind == RETRY}
    assert retried
    terminal_kinds = (COMPLETE, SHED, FAILED)
    for index in retried:
        events = [e for e in tracer.events if e.request == index]
        terminals = [e for e in events if e.kind in terminal_kinds]
        assert len(terminals) == 1
        assert events[-1].kind in terminal_kinds


def test_fast_path_rejects_tracer(server, busy_trace):
    simulator = ServingSimulator(
        busy_trace, server=server, tracer=RecordingTracer()
    )
    with pytest.raises(ConfigError, match="recording path"):
        simulator.run(record_requests=False)


def test_fast_path_still_fine_without_tracer(server, busy_trace):
    report = ServingSimulator(busy_trace, server=server).run(
        record_requests=False
    )
    assert report.completed > 0


def test_combine_tracers_folds_and_filters():
    recording = RecordingTracer()
    assert combine_tracers(None, None) is NULL_TRACER
    assert combine_tracers(None, NULL_TRACER) is NULL_TRACER
    assert combine_tracers(recording, None) is recording
    both = combine_tracers(recording, RecordingTracer())
    assert isinstance(both, MultiTracer)
    assert both.enabled


def test_multi_tracer_fans_out(server, busy_trace):
    first, second = RecordingTracer(), RecordingTracer()
    tracer = combine_tracers(first, second)
    ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    assert len(first.events) == len(second.events) > 0
    assert well_formed_errors(first) == []


def test_custom_null_subclass_stays_disabled():
    class Probe(Tracer):
        pass

    assert Probe().enabled is False
