"""Live serving runtime benchmark: real req/s and the sim-vs-live gates.

Exercises :mod:`repro.serve.runtime` three ways on the tiny network:

* **Peak throughput** — a saturating burst of real requests served
  in-process through the compiled instruction stream (dynamic
  batching, one array).  The headline is sustained live requests per second, from
  first arrival to last completion on the wall clock (median of the
  trials).
* **Saturated crosscheck** — every trial's recorded live arrivals are
  re-run through the discrete-event simulator with *in-situ* batch
  costs (mean observed duration per batch size); the gate compares
  the *median* live p50/p99 against the median simulated ones with a
  spread-widened tolerance (:func:`repro.serve.compare
  .compare_reports_median`), so one noisy trial cannot flake it.
* **Paced crosscheck** — the same median gate on a paced regime
  (offered load at roughly half the measured capacity), where the
  latency distribution is batching-shaped rather than queue-shaped and
  host noise used to dominate single runs.  The variance-aware gate is
  what makes this regime gateable at all.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py            # full
    PYTHONPATH=src python benchmarks/bench_runtime.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_runtime.py --json out.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time

import numpy as np

from repro.capsnet.config import tiny_capsnet_config
from repro.data.synthetic import SyntheticDigits
from repro.hw.config import AcceleratorConfig
from repro.serve import ServerConfig, ServingSimulator, make_trace
from repro.serve.compare import compare_reports_median
from repro.serve.runtime import MeasuredBatchCost, ServingRuntime
from repro.serve.trace import ArrivalTrace
from repro.serve.workers import CompiledStreamExecutor


def live_server(cost, max_batch: int) -> ServerConfig:
    return ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=max_batch,
        max_wait_us=2000.0,
        arrays=1,
        network_name="tiny",
    )


async def drive(runtime: ServingRuntime, trace: ArrivalTrace):
    wall_start = time.perf_counter()
    await runtime.run_load(trace)
    await runtime.drain()
    wall = time.perf_counter() - wall_start
    report = runtime.report(
        trace_name=trace.name, offered_rps=trace.offered_rps, wall_seconds=wall
    )
    await runtime.stop()
    return report


def live_rps_of(report) -> float:
    served = report.served
    if not served:
        return 0.0
    span_us = max(r.done_us for r in served) - min(r.arrival_us for r in served)
    return len(served) / span_us * 1e6 if span_us > 0 else 0.0


def run_live_once(cost, executor, trace: ArrivalTrace, max_batch: int, accel):
    """One live run; returns (sim report, live report, live rps)."""
    server = live_server(cost, max_batch)
    runtime = ServingRuntime(server, executor=executor, max_pending=8192)
    report = asyncio.run(drive(runtime, trace))
    rps = live_rps_of(report)
    insitu = MeasuredBatchCost.from_report(report, config=accel)
    arrivals = np.array(sorted(r.arrival_us for r in report.requests))
    arrivals -= arrivals[0]
    sim = ServingSimulator(
        ArrivalTrace(times_us=arrivals, name="live-arrivals"),
        server=live_server(insitu, max_batch),
    ).run()
    return sim, report, rps


def run_regime(cost, executor, trace: ArrivalTrace, args, accel) -> dict:
    """N live trials of one regime, gated on medians with spread-aware tol."""
    pairs = []
    rps_values = []
    for _ in range(args.trials):
        sim, report, rps = run_live_once(
            cost, executor, trace, args.max_batch, accel
        )
        pairs.append((sim, report))
        rps_values.append(rps)
    gate = compare_reports_median(pairs, rel_tol=0.2)
    latency = pairs[-1][1].latency_summary()["total"]
    return {
        "gate": gate,
        "rps_values": rps_values,
        "rps_median": statistics.median(rps_values),
        "last_report": pairs[-1][1],
        "p50_live_us": gate["p50_us"]["live"],
        "p99_live_us": gate["p99_us"]["live"],
        "last_latency": latency,
    }


def run_benchmark(args: argparse.Namespace) -> dict:
    network = tiny_capsnet_config()
    accel = AcceleratorConfig()
    rng = np.random.default_rng(args.seed)
    executor = CompiledStreamExecutor(network)
    images = SyntheticDigits(size=network.image_size, rng=rng).generate(256).images
    sizes = [s for s in (1, 8, 32, 64, 128, 256) if s <= args.max_batch]
    calibrated = MeasuredBatchCost.calibrate(
        executor, images, sizes=sizes, config=accel
    )

    # Saturating burst: the whole trace arrives in a few tens of
    # milliseconds, so the run measures drain throughput and the latency
    # distribution is queue-shaped (host noise averages out across the
    # backlog instead of dominating an idle-system percentile).
    burst_trace = make_trace("uniform", args.burst_rps, args.requests, rng)
    saturated = run_regime(calibrated, executor, burst_trace, args, accel)

    # Paced regime: offered load well under the measured capacity, so
    # batches form on the coalescing timer and the percentiles ride on
    # host scheduling noise — exactly what the spread-widened median
    # tolerance exists for.
    paced_rps = args.paced_rps
    if paced_rps is None:
        paced_rps = max(1000.0, 0.5 * saturated["rps_median"])
    paced_trace = make_trace(
        "uniform", paced_rps, max(args.requests // 4, 100), rng
    )
    paced = run_regime(calibrated, executor, paced_trace, args, accel)

    report = saturated["last_report"]
    latency = saturated["last_latency"]

    executor.close()
    return {
        "benchmark": "bench_runtime",
        "network": "tiny",
        "requests": args.requests,
        "max_batch": args.max_batch,
        "seed": args.seed,
        "trials": args.trials,
        "calibration_points": calibrated.points,
        "paced_rps": paced_rps,
        "headline": {
            "live_rps": saturated["rps_median"],
            "served": report.completed,
            "mean_batch_size": report.mean_batch_size,
            "p50_live_us": latency["p50_us"],
            "p99_live_us": latency["p99_us"],
            "crosscheck_within_tol": 1.0 if saturated["gate"]["within_tol"] else 0.0,
            "paced_within_tol": 1.0 if paced["gate"]["within_tol"] else 0.0,
        },
        "sim_vs_live": saturated["gate"],
        "sim_vs_live_paced": paced["gate"],
        "live_rps_trials": saturated["rps_values"],
    }


def format_report(report: dict) -> str:
    headline = report["headline"]
    lines = [
        f"Live serving runtime — tiny network, {report['requests']} requests"
        f" x {report['trials']} trials, batch<={report['max_batch']},"
        f" in-process engine",
        f"  live throughput: {headline['live_rps']:,.0f} req/s median"
        f" ({headline['served']} served/trial, mean batch"
        f" {headline['mean_batch_size']:.1f})",
        f"  live latency: p50 {headline['p50_live_us']:,.0f}us,"
        f" p99 {headline['p99_live_us']:,.0f}us (medians)",
    ]
    for label, key, flag in (
        ("saturated", "sim_vs_live", "crosscheck_within_tol"),
        ("paced", "sim_vs_live_paced", "paced_within_tol"),
    ):
        gate = report[key]
        lines.append(
            f"  sim-vs-live [{label}]: p50 ratio {gate['p50_us']['ratio']:.2f}"
            f" (tol {gate['p50_us']['tolerance']:.0%}),"
            f" p99 ratio {gate['p99_us']['ratio']:.2f}"
            f" (tol {gate['p99_us']['tolerance']:.0%}) ->"
            f" {'within' if headline[flag] else 'OUTSIDE'} median gate"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short burst (CI benchmark-smoke gate)",
    )
    parser.add_argument(
        "--requests", type=int, default=None, help="requests in the live burst"
    )
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument(
        "--burst-rps",
        type=float,
        default=100000.0,
        help="offered rate of the saturating burst",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="live trials per regime for the median gates (3 smoke, 5 full)",
    )
    parser.add_argument(
        "--paced-rps",
        type=float,
        default=None,
        help="offered rate of the paced regime (default: half the measured"
        " saturated throughput)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.max_batch < 8:
        parser.error("--max-batch must be at least 8 (the gate batches >= 8)")
    if args.requests is None:
        args.requests = 4000 if args.smoke else 20000
    if args.trials is None:
        args.trials = 3 if args.smoke else 5
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
