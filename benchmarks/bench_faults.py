"""Fault-tolerance benchmark: the retry/quarantine gates, sim and live.

The fault layer (:mod:`repro.serve.faults`) promises that transient
worker crashes are contained — failed batches retry within budget,
quarantined arrays recover, and no request is lost — and that the
machinery is free when no plan is armed.  This bench guards both:

* **No-fault overhead** — recorded-path simulation wall rate with the
  fault machinery idle (no plan), gated against a conservative
  checked-in floor at a *tight* 2% tolerance, the same pattern as the
  tracer-off gate in ``bench_obs.py``: fault-hook creep on the hot
  dispatch path shows up here first.
* **Goodput under faults** — the same trace served under a seeded
  transient plan (crash ordinals plus a crash rate, default retry
  budget): every offered request must complete — goodput 1.0, zero
  terminal failures — and quarantine recovery must stay at the bounded
  readmission delay.
* **Fault-counter reproducibility** — the identical plan replayed
  through :func:`~repro.serve.runtime.replay_virtual` (the simulator's
  own loop, run again from a fresh engine) must report the same fault
  counters (crashes, retries, failures, quarantines).  Deterministic;
  any diff is state leaking between runs.
* **Live wall-clock crashes** — a real asyncio :class:`~repro.serve
  .runtime.ServingRuntime` run through the in-process engine with
  injected crash ordinals: all requests complete, none shed or failed,
  and the crash/quarantine/recovery counters match the plan.
* **Fault-event well-formedness** — the traced fault run's event stream
  keeps complete request lifecycles (every retried request still ends
  in exactly one terminal event) and balanced compute spans.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py            # full
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_faults.py --json out.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time

import numpy as np

from repro.hw.config import AcceleratorConfig
from repro.obs import RecordingTracer, well_formed_errors
from repro.serve import (
    FaultPlan,
    ScheduledBatchCost,
    ServerConfig,
    ServingRuntime,
    ServingSimulator,
    make_trace,
    replay_virtual,
)


def build_server(fault_plan: FaultPlan | None = None) -> ServerConfig:
    accel = AcceleratorConfig()
    cost = ScheduledBatchCost("tiny", accel_config=accel)
    return ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=8,
        max_wait_us=2000.0,
        arrays=2,
        network_name="tiny",
        fault_plan=fault_plan,
    )


def timed_sim(server: ServerConfig, trace, tracer=None):
    """One recorded simulation; returns (report, wall seconds)."""
    simulator = ServingSimulator(trace, server=server, tracer=tracer)
    start = time.perf_counter()
    report = simulator.run()
    return report, time.perf_counter() - start


async def drive_live(runtime: ServingRuntime, trace):
    await runtime.run_load(trace)
    await runtime.drain()
    report = runtime.report(trace_name=trace.name, offered_rps=trace.offered_rps)
    await runtime.stop()
    return report


def run_benchmark(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    trace = make_trace("poisson", args.rate, args.requests, rng)
    plan = FaultPlan(
        crash_batches=(1, 4), crash_rate=args.crash_rate, seed=args.fault_seed
    )

    # --- no-fault overhead floor: the fault machinery must be free when
    # no plan is armed (the hot path pays one `placed.fault` flag).
    nofault = build_server()
    timed_sim(nofault, trace)  # warm the per-batch-size cost memo
    walls = []
    for _ in range(args.trials):
        _, wall = timed_sim(nofault, trace)
        walls.append(wall)
    nofault_rps = args.requests / statistics.median(walls)

    # --- goodput under the transient plan (traced, so the stream's
    # fault events feed the well-formedness gate).
    tracer = RecordingTracer()
    faulted, _ = timed_sim(build_server(plan), trace, tracer=tracer)
    errors = well_formed_errors(tracer)
    fault_stats = faulted.faults or {}

    # --- the same plan from a fresh engine must count the same faults.
    replayed = replay_virtual(build_server(plan), trace)
    replay_stats = replayed.faults or {}
    counts_identical = fault_stats == replay_stats

    # --- live wall-clock crashes through the real asyncio runtime and
    # the in-process engine (predicted planning costs; injected crash
    # ordinals fire in the executor threads).
    live_plan = FaultPlan(crash_batches=(1, 3), seed=args.fault_seed)
    live_cost = ScheduledBatchCost("tiny", accel_config=AcceleratorConfig())
    live_server = ServerConfig.from_policy(
        "fifo",
        live_cost,
        max_batch=8,
        max_wait_us=2000.0,
        arrays=2,
        network_name="tiny",
        fault_plan=live_plan,
    )
    live_trace = make_trace(
        "uniform", args.live_rps, args.live_requests, rng
    )
    runtime = ServingRuntime(live_server, max_pending=4096)
    live = asyncio.run(drive_live(runtime, live_trace))
    live_stats = live.faults or {}

    return {
        "benchmark": "bench_faults",
        "network": "tiny",
        "requests": args.requests,
        "rate_rps": args.rate,
        "trials": args.trials,
        "seed": args.seed,
        "fault_plan": plan.to_dict(),
        "live_fault_plan": live_plan.to_dict(),
        "nofault_walls_s": walls,
        "fault_stats": fault_stats,
        "replay_fault_stats": replay_stats,
        "live_fault_stats": live_stats,
        "well_formed_errors": errors,
        "live_requests": args.live_requests,
        "headline": {
            "nofault_wall_rps": nofault_rps,
            "goodput_under_faults": faulted.goodput,
            "failed_requests": float(faulted.failed_count),
            "recovery_max_us": float(fault_stats.get("recovery_max_us", 0.0)),
            "fault_counts_identical": 1.0 if counts_identical else 0.0,
            "fault_stream_well_formed": 1.0 if not errors else 0.0,
            "live_goodput_under_faults": live.goodput,
            "live_failed_requests": float(live.failed_count),
            "live_shed_requests": float(live.shed_count),
            "live_crashes": float(live_stats.get("crashes", 0)),
            "live_recoveries": float(live_stats.get("recoveries", 0)),
        },
    }


def format_report(report: dict) -> str:
    headline = report["headline"]
    stats = report["fault_stats"]
    lines = [
        f"Fault tolerance — tiny network, {report['requests']} requests"
        f" x {report['trials']} trials, recorded simulator path",
        f"  no-fault floor: {headline['nofault_wall_rps']:,.0f} req/s host"
        f" (median of {report['trials']}, fault machinery idle)",
        f"  under faults: goodput {headline['goodput_under_faults']:.1%},"
        f" {stats.get('crashes', 0)} crashes, {stats.get('retries', 0)} retries,"
        f" {int(headline['failed_requests'])} failed,"
        f" {stats.get('quarantines', 0)} quarantines"
        f" (max recovery {headline['recovery_max_us']:,.0f}us)",
        "  virtual replay: fault counters "
        + ("identical" if headline["fault_counts_identical"] else "DIVERGED"),
        "  fault event stream: "
        + ("well-formed" if headline["fault_stream_well_formed"] else "MALFORMED"),
        f"  live runtime: {report['live_requests']} requests,"
        f" goodput {headline['live_goodput_under_faults']:.1%},"
        f" {int(headline['live_crashes'])} crashes,"
        f" {int(headline['live_failed_requests'])} failed,"
        f" {int(headline['live_shed_requests'])} shed,"
        f" {int(headline['live_recoveries'])} recoveries",
    ]
    for error in report["well_formed_errors"][:5]:
        lines.append(f"    {error}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="short trace (CI benchmark-smoke gate)"
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="requests per simulated run"
    )
    parser.add_argument(
        "--rate", type=float, default=20000.0, help="offered rate (requests/s)"
    )
    parser.add_argument(
        "--crash-rate", type=float, default=0.02, help="injected crash probability"
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="timed trials (5 smoke, 9 full)"
    )
    parser.add_argument(
        "--live-requests", type=int, default=None, help="live wall-clock trace length"
    )
    parser.add_argument(
        "--live-rps", type=float, default=50000.0, help="live offered rate"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fault-seed", type=int, default=11)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.requests is None:
        args.requests = 3000 if args.smoke else 20000
    if args.trials is None:
        args.trials = 5 if args.smoke else 9
    if args.live_requests is None:
        args.live_requests = 300 if args.smoke else 2000

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
