"""Simulator-scale benchmark: streaming fast path vs the full-record path.

Runs the discrete-event serving simulator on one long saturating Poisson
trace (the ``bench_serving.py`` scenario: MNIST shapes at 2.5x the
batch-1 service capacity) twice per measurement:

* ``record_requests=True``  — the exact path: full per-request and
  per-batch tables (the PR 4 behavior, bit-identical reports);
* ``record_requests=False`` — the streaming fast path: O(1)-memory
  histogram statistics, bulk arrival drains, inlined classic batching.

The headline is **simulated requests per wall-clock second** of each
path and their ratio, plus the equivalence audit the fast path promises:
identical offered/completed/shed/batch counts, exactly equal makespan,
and latency percentiles within one histogram bin of the exact report.
Costs are closed-form (the cost model is not what is being measured), so
the simulated metrics are deterministic; the wall-clock figures feed the
CI guard as conservative floors (see ``benchmarks/baselines/README.md``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py              # 100k requests
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke      # CI gate
    PYTHONPATH=src python benchmarks/bench_scale.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.serve import (
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    poisson_trace,
)

PERCENTILE_KEYS = ("p50_us", "p95_us", "p99_us")


def run_benchmark(args: argparse.Namespace) -> dict:
    cost = ScheduledBatchCost(args.network)
    capacity_rps = args.arrays * cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
    trace = poisson_trace(
        args.rate_multiplier * capacity_rps,
        args.requests,
        np.random.default_rng(args.seed),
    )
    server = ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        arrays=args.arrays,
        network_name=args.network,
    )
    simulator = ServingSimulator(trace, server=server)

    # Warm both paths once (cost-model probes, allocator effects), then
    # take the best of ``repeats`` measurements per path.
    record = simulator.run()
    fast = simulator.run(record_requests=False, latency_bin_us=args.latency_bin_us)
    record_wall = fast_wall = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        record = simulator.run()
        record_wall = min(record_wall, time.perf_counter() - start)
        start = time.perf_counter()
        fast = simulator.run(
            record_requests=False, latency_bin_us=args.latency_bin_us
        )
        fast_wall = min(fast_wall, time.perf_counter() - start)

    counts_identical = (
        record.offered == fast.offered
        and record.completed == fast.completed
        and record.shed_count == fast.shed_count
        and record.batch_count == fast.batch_count
        and record.batch_size_histogram() == fast.batch_size_histogram()
        and record.makespan_us == fast.makespan_us
    )
    record_latency = record.latency_summary()
    fast_latency = fast.latency_summary()
    max_diff = max(
        abs(record_latency[name][key] - fast_latency[name][key])
        for name in record_latency
        for key in PERCENTILE_KEYS
    )
    return {
        "benchmark": "bench_scale",
        "network": args.network,
        "requests": args.requests,
        "arrays": args.arrays,
        "seed": args.seed,
        "rate_multiplier": args.rate_multiplier,
        "max_batch": args.max_batch,
        "max_wait_us": args.max_wait_us,
        "latency_bin_us": args.latency_bin_us,
        "repeats": args.repeats,
        "offered_rps": trace.offered_rps,
        "served": fast.completed,
        "record": {
            "wall_seconds": record_wall,
            "wall_rps": args.requests / record_wall,
            "latency_us": record_latency,
        },
        "fast": {
            "wall_seconds": fast_wall,
            "wall_rps": args.requests / fast_wall,
            "latency_us": fast_latency,
        },
        "headline": {
            "fast_wall_rps": args.requests / fast_wall,
            "record_wall_rps": args.requests / record_wall,
            "wall_speedup": record_wall / fast_wall,
            "counts_identical": float(counts_identical),
            "max_percentile_diff_us": max_diff,
            "percentile_diff_within_bin": float(max_diff <= args.latency_bin_us),
        },
    }


def format_report(report: dict) -> str:
    headline = report["headline"]
    lines = [
        f"Simulator scale — {report['network']} shapes,"
        f" {report['requests']:,} requests at"
        f" {report['rate_multiplier']:g}x batch-1 capacity,"
        f" {report['arrays']} array(s)",
        f"  record path: {report['record']['wall_seconds']:.3f} s"
        f" = {headline['record_wall_rps']:,.0f} simulated req/s",
        f"  fast path:   {report['fast']['wall_seconds']:.3f} s"
        f" = {headline['fast_wall_rps']:,.0f} simulated req/s"
        f"  ({headline['wall_speedup']:.1f}x)",
        f"  equivalence: counts identical = {bool(headline['counts_identical'])},"
        f" worst percentile deviation {headline['max_percentile_diff_us']:.1f} us"
        f" (bin {report['latency_bin_us']:g} us)",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short trace (CI benchmark-smoke gate)",
    )
    parser.add_argument("--network", choices=("mnist", "tiny"), default="mnist")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--rate-multiplier", type=float, default=2.5)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-us", type=float, default=5000.0)
    parser.add_argument("--latency-bin-us", type=float, default=50.0)
    parser.add_argument("--arrays", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.requests is None:
        args.requests = 20_000 if args.smoke else 100_000
    if args.requests < 1 or args.repeats < 1:
        parser.error("--requests and --repeats must be positive")
    if args.rate_multiplier <= 0:
        parser.error("--rate-multiplier must be positive")

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
