"""Observability overhead benchmark: the tracer must be free when off.

The serving core is instrumented at every decision point
(:mod:`repro.obs`), and the contract is that a run with the default
null tracer pays (nearly) nothing for those hooks: each one is a
``tracer.enabled`` attribute check.  This bench guards that contract
and the tracer's correctness properties:

* **Tracer-off throughput** — recorded-path discrete-event simulation
  wall rate with the default null tracer, gated against a conservative
  checked-in floor at a *tight* 2% tolerance (the other wall-clock
  gates run at 10-20%): instrumentation creep shows up here first.
* **Tracer-on overhead** — the same run with a full
  :class:`~repro.obs.RecordingTracer` attached; reported as a ratio and
  gated loosely (recording is allowed to cost, but not blow up).
* **Decision identity** — the traced and untraced runs must make
  exactly the same policy decisions (tracers observe, never steer).
* **Well-formedness + export** — the recorded stream has balanced
  per-array compute spans and complete request lifecycles, and the
  Chrome-trace export round-trips through JSON; the sample timeline is
  written next to the report (CI uploads it as an artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_obs.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.hw.config import AcceleratorConfig
from repro.obs import RecordingTracer, build_chrome_trace, well_formed_errors
from repro.serve import (
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    make_trace,
)
from repro.serve.compare import decision_diffs


def build_server(accel: AcceleratorConfig) -> ServerConfig:
    cost = ScheduledBatchCost("tiny", accel_config=accel)
    return ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=8,
        max_wait_us=2000.0,
        arrays=2,
        network_name="tiny",
    )


def timed_run(server: ServerConfig, trace, tracer=None):
    """One recorded simulation; returns (report, wall seconds)."""
    simulator = ServingSimulator(trace, server=server, tracer=tracer)
    start = time.perf_counter()
    report = simulator.run()
    return report, time.perf_counter() - start


def run_benchmark(args: argparse.Namespace) -> dict:
    accel = AcceleratorConfig()
    server = build_server(accel)
    rng = np.random.default_rng(args.seed)
    # ~2x the batch-8 service rate: the queue stays busy so the run
    # exercises batching, placement, and completion on every request.
    trace = make_trace("poisson", args.rate, args.requests, rng)

    # Warm the per-batch-size cost memo outside the timed region — the
    # first probe runs the scheduler; every run after that is pure
    # event-loop work, which is what the overhead gate is about.
    timed_run(server, trace)

    off_walls = []
    on_walls = []
    base_report = traced_report = tracer = None
    for _ in range(args.trials):
        base_report, wall = timed_run(server, trace)
        off_walls.append(wall)
        tracer = RecordingTracer()
        traced_report, wall = timed_run(server, trace, tracer=tracer)
        on_walls.append(wall)

    off_wall = statistics.median(off_walls)
    on_wall = statistics.median(on_walls)
    off_rps = args.requests / off_wall
    overhead = on_wall / off_wall if off_wall > 0 else float("inf")

    diffs = decision_diffs(base_report, traced_report)
    errors = well_formed_errors(tracer)
    payload = build_chrome_trace(tracer)
    payload = json.loads(json.dumps(payload))  # prove it round-trips
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(payload, handle)

    return {
        "benchmark": "bench_obs",
        "network": "tiny",
        "requests": args.requests,
        "rate_rps": args.rate,
        "trials": args.trials,
        "seed": args.seed,
        "tracer_off_walls_s": off_walls,
        "tracer_on_walls_s": on_walls,
        "trace_events": len(tracer.events),
        "chrome_events": len(payload["traceEvents"]),
        "well_formed_errors": errors,
        "decision_diffs": diffs,
        "headline": {
            "tracer_off_wall_rps": off_rps,
            "tracer_on_overhead": overhead,
            "decisions_identical_with_tracer": 1.0 if not diffs else 0.0,
            "stream_well_formed": 1.0 if not errors else 0.0,
        },
    }


def format_report(report: dict) -> str:
    headline = report["headline"]
    lines = [
        f"Observability overhead — tiny network, {report['requests']} requests"
        f" x {report['trials']} trials, recorded simulator path",
        f"  tracer off: {headline['tracer_off_wall_rps']:,.0f} req/s host"
        f" (median of {report['trials']})",
        f"  tracer on: {headline['tracer_on_overhead']:.3f}x the untraced wall"
        f" ({report['trace_events']} events, {report['chrome_events']}"
        f" Chrome trace events)",
        f"  decision identity: "
        + ("identical" if headline["decisions_identical_with_tracer"] else "DIVERGED"),
        f"  event stream: "
        + ("well-formed" if headline["stream_well_formed"] else "MALFORMED"),
    ]
    for diff in report["decision_diffs"][:5]:
        lines.append(f"    {diff}")
    for error in report["well_formed_errors"][:5]:
        lines.append(f"    {error}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short trace (CI benchmark-smoke gate)"
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="requests per timed run"
    )
    parser.add_argument(
        "--rate", type=float, default=20000.0, help="offered rate (requests/s)"
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="timed trials (5 smoke, 9 full)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="write the sample Chrome trace JSON here (CI artifact)",
    )
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.requests is None:
        args.requests = 3000 if args.smoke else 20000
    if args.trials is None:
        args.trials = 5 if args.smoke else 9

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
