"""Timeline export: Chrome trace-event JSON, span logs, schema identity.

The exported payload must be loadable Chrome trace-event / Perfetto
JSON: named per-array lanes, one complete ("X") span per batch and per
request wait, flow arrows ("s"/"f") from arrival to dispatch, instants
for sheds and coalescing timeouts, and an optional op-level drill-down
lane from the memoized pipelined schedule (paper Fig. 11).  The key
cross-driver property: the simulator and the live engine export
*schema-identical* files for equivalent runs — same event shapes, same
lanes, same argument keys — checked via :func:`repro.obs.trace_schema`
down at the unit level here and through the real CLI front-ends in
``test_cli_trace_out_schema_identity``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    RecordingTracer,
    build_chrome_trace,
    chrome_trace_events,
    export_trace,
    pipeline_op_lane,
    trace_schema,
    write_span_log,
)
from repro.obs.export import PIPELINE_PID, SERVING_PID
from repro.obs.tracer import EVENT_KINDS
from repro.serve import (
    ScheduledBatchCost,
    ServingSimulator,
    replay_virtual,
)


@pytest.fixture(scope="module")
def traced_run(server, busy_trace):
    tracer = RecordingTracer()
    report = ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    return tracer, report


def test_chrome_trace_round_trips_through_json(traced_run):
    tracer, _ = traced_run
    payload = build_chrome_trace(tracer)
    restored = json.loads(json.dumps(payload))
    assert restored == payload
    assert restored["displayTimeUnit"] == "ms"
    assert isinstance(restored["traceEvents"], list)


def test_chrome_trace_event_shapes(traced_run):
    tracer, report = traced_run
    payload = build_chrome_trace(tracer)
    events = payload["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases <= {"M", "X", "s", "f", "i"}
    # One lane per array plus the requests lane, all named.
    names = {
        event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert "requests" in names
    assert {"array 0", "array 1"} <= names
    # One complete span per batch on its array lane.
    batch_spans = [
        e for e in events if e["ph"] == "X" and e.get("cat") == "batch"
    ]
    assert len(batch_spans) == report.batch_count
    assert all(span["dur"] > 0 for span in batch_spans)
    # Every served request gets a flow arrow from arrival to dispatch.
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == len(finishes) == report.completed
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}


def test_chrome_trace_sorted_by_timestamp(traced_run):
    tracer, _ = traced_run
    events = build_chrome_trace(tracer)["traceEvents"]
    timestamps = [event["ts"] for event in events]
    assert timestamps == sorted(timestamps)


def test_span_log_jsonl(tmp_path, traced_run):
    tracer, _ = traced_run
    path = tmp_path / "spans.jsonl"
    count = write_span_log(tracer, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == count == len(tracer.events)
    kinds = {json.loads(line)["kind"] for line in lines}
    assert kinds <= set(EVENT_KINDS)


def test_export_trace_dispatches_on_extension(tmp_path, traced_run):
    tracer, _ = traced_run
    chrome = tmp_path / "t.json"
    spans = tmp_path / "t.jsonl"
    export_trace(tracer, str(chrome))
    export_trace(tracer, str(spans))
    assert "traceEvents" in json.loads(chrome.read_text())
    assert json.loads(spans.read_text().splitlines()[0])["kind"]


def test_schema_identity_sim_vs_virtual_replay(server, busy_trace):
    sim_tracer = RecordingTracer()
    ServingSimulator(busy_trace, server=server, tracer=sim_tracer).run()
    live_tracer = RecordingTracer()
    replay_virtual(server, busy_trace, tracer=live_tracer)
    sim_schema = trace_schema(build_chrome_trace(sim_tracer))
    live_schema = trace_schema(build_chrome_trace(live_tracer))
    assert sim_schema == live_schema


def test_op_lane_present_only_for_pipelined_cost():
    pipelined = ScheduledBatchCost("tiny", pipeline=True)
    lane = pipeline_op_lane(pipelined, batch_size=2, batches=2)
    assert lane
    assert all(event["pid"] == PIPELINE_PID for event in lane)
    categories = {event.get("cat") for event in lane if event["ph"] == "X"}
    assert {"op", "load"} <= categories

    cold = ScheduledBatchCost("tiny", pipeline=False)
    with pytest.raises(ConfigError):
        pipeline_op_lane(cold, batch_size=2)


def test_op_lane_changes_schema_but_not_serving_lanes(traced_run):
    tracer, _ = traced_run
    plain = build_chrome_trace(tracer)
    pipelined = ScheduledBatchCost("tiny", pipeline=True)
    lane = pipeline_op_lane(pipelined, batch_size=2, batches=2)
    augmented = build_chrome_trace(tracer, op_lane=lane)
    plain_schema = trace_schema(plain)
    augmented_schema = trace_schema(augmented)
    assert plain_schema < augmented_schema
    serving = {
        event["pid"] for event in plain["traceEvents"] if event["ph"] != "M"
    }
    assert serving == {SERVING_PID}


def test_chrome_events_only_need_completed_batches(server, busy_trace):
    # chrome_trace_events on a fresh tracer: no events, no crash.
    assert chrome_trace_events(RecordingTracer()) != []  # metadata only
    tracer = RecordingTracer()
    ServingSimulator(busy_trace, server=server, tracer=tracer).run()
    assert len(chrome_trace_events(tracer)) > len(tracer.events) // 2


def test_cli_trace_out_schema_identity(tmp_path):
    """The acceptance gate: `repro serve-sim --trace-out` and `repro
    serve --trace-out` on the same trace emit schema-identical Perfetto
    files (same shapes, lanes, and arg keys; values differ)."""
    from repro.cli import main

    sim_path = tmp_path / "sim.trace.json"
    live_path = tmp_path / "live.trace.json"
    common = [
        "--network",
        "tiny",
        "--trace",
        "uniform",
        "--rate",
        "50000",
        "--requests",
        "30",
        "--max-batch",
        "8",
        "--seed",
        "3",
    ]
    assert main(["serve-sim", *common, "--trace-out", str(sim_path)]) == 0
    assert main(["serve", *common, "--trace-out", str(live_path)]) == 0
    sim_payload = json.loads(sim_path.read_text())
    live_payload = json.loads(live_path.read_text())
    assert trace_schema(sim_payload) == trace_schema(live_payload)
    for payload in (sim_payload, live_payload):
        kinds = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "X", "s", "f", "i"} <= kinds


def test_cli_fast_plus_trace_out_is_an_error(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "serve-sim",
            "--network",
            "tiny",
            "--requests",
            "16",
            "--fast",
            "--trace-out",
            str(tmp_path / "t.json"),
        ]
    )
    assert code == 2
    assert "recording path" in capsys.readouterr().err
