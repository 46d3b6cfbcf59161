"""Serving benchmark: dynamic batching vs batch-1 at matched arrival rates.

Drives the discrete-event serving simulator (``repro.serve``) in *execute*
mode — every dispatched batch really runs through the batched engine — and
compares two policies on the **same** arrival trace and request images:

* ``batch-1`` — request-at-a-time serving (the no-batching baseline);
* ``dynamic`` — the dynamic batcher (batch <= 8, bounded coalescing wait).

Per arrival rate it reports achieved throughput on the simulated clock,
host wall-clock throughput (requests simulated per second — the per-job
dispatch cost batching amortizes is genuine simulation work, the same
headline as ``bench_batched.py``), and the latency trade-off decomposed
into queueing / batching / compute.  At an arrival rate that saturates the
batch-1 server, dynamic batching sustains >= 2x the wall throughput on
MNIST shapes; at light load it costs bounded batching latency for little
gain — both ends of the trade-off land in the JSON artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # MNIST shapes
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke    # tiny, CI
    PYTHONPATH=src python benchmarks/bench_serving.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.data.synthetic import SyntheticDigits
from repro.serve import (
    BatchPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    poisson_trace,
)


def run_point(
    cost: ScheduledBatchCost,
    trace,
    images: np.ndarray,
    policy: BatchPolicy,
    arrays: int,
    network: str,
) -> dict:
    """Simulate one (rate, policy) point in execute mode."""
    simulator = ServingSimulator(
        trace,
        server=ServerConfig(
            cost=cost,
            batching=policy,
            arrays=arrays,
            network_name=network,
        ),
        images=images,
        execute=True,
    )
    report = simulator.run()
    latency = report.latency_summary()
    return {
        "policy": policy.describe(),
        "max_batch": policy.max_batch,
        "offered_rps": report.offered_rps,
        "throughput_rps": report.throughput_rps,
        "wall_seconds": report.wall_seconds,
        "wall_rps": report.wall_rps,
        "mean_batch_size": report.mean_batch_size,
        "batches": len(report.batches),
        "array_utilization": [stat["utilization"] for stat in report.array_stats],
        "latency_us": latency,
    }


def run_benchmark(args: argparse.Namespace) -> dict:
    cost = ScheduledBatchCost(args.network)
    config = cost.config
    # Memoize the per-size costs the capacity calculation needs.
    capacity_rps = args.arrays * config.clock_mhz * 1e6 / cost.batch_cycles(1)
    cost.batch_cycles(args.max_batch)

    # One Generator seeds the whole benchmark: traces and request images.
    rng = np.random.default_rng(args.seed)
    policies = [
        BatchPolicy(max_batch=1, max_wait_us=0.0),
        BatchPolicy(max_batch=args.max_batch, max_wait_us=args.max_wait_us),
    ]
    digits = SyntheticDigits(size=cost.compiled.input_shape[-1], rng=rng)
    rows = []
    for multiplier in args.rate_multipliers:
        rate = multiplier * capacity_rps
        # Same trace and images for every policy at this rate.
        trace = poisson_trace(rate, args.requests, rng)
        images = digits.generate(args.requests).images
        point_rows = [
            run_point(cost, trace, images, policy, args.arrays, args.network)
            for policy in policies
        ]
        baseline = point_rows[0]
        for row in point_rows:
            row["rate_multiplier"] = multiplier
            row["throughput_speedup_vs_batch1"] = (
                row["throughput_rps"] / baseline["throughput_rps"]
            )
            row["wall_speedup_vs_batch1"] = row["wall_rps"] / baseline["wall_rps"]
        rows.extend(point_rows)

    top = max(args.rate_multipliers)
    dynamic_top = next(
        row for row in rows if row["rate_multiplier"] == top and row["max_batch"] > 1
    )
    batch1_top = next(
        row for row in rows if row["rate_multiplier"] == top and row["max_batch"] == 1
    )
    return {
        "benchmark": "bench_serving",
        "network": args.network,
        "requests": args.requests,
        "arrays": args.arrays,
        "seed": args.seed,
        "batch1_capacity_rps": capacity_rps,
        "results": rows,
        "headline": {
            "rate_multiplier": top,
            "offered_rps": dynamic_top["offered_rps"],
            "wall_speedup_vs_batch1": dynamic_top["wall_speedup_vs_batch1"],
            "throughput_speedup_vs_batch1": dynamic_top["throughput_speedup_vs_batch1"],
            "p95_total_latency_batch1_us": batch1_top["latency_us"]["total"]["p95_us"],
            "p95_total_latency_dynamic_us": dynamic_top["latency_us"]["total"]["p95_us"],
        },
    }


def format_report(report: dict) -> str:
    lines = [
        f"Serving simulator — {report['network']} network, {report['requests']} requests"
        f" per point, {report['arrays']} array(s),"
        f" batch-1 capacity {report['batch1_capacity_rps']:,.1f} req/s",
        f"{'rate':>6s} {'policy':>22s} {'served req/s':>13s} {'wall req/s':>11s}"
        f" {'speedup':>8s} {'batch':>6s} {'p95 lat':>9s} {'queue':>8s} {'batching':>9s}",
    ]
    for row in report["results"]:
        latency = row["latency_us"]
        lines.append(
            f"{row['rate_multiplier']:5.1f}x {row['policy']:>22s}"
            f" {row['throughput_rps']:13,.1f} {row['wall_rps']:11,.1f}"
            f" {row['wall_speedup_vs_batch1']:7.2f}x"
            f" {row['mean_batch_size']:6.2f}"
            f" {latency['total']['p95_us']:8,.0f}u"
            f" {latency['queueing']['p95_us']:7,.0f}u"
            f" {latency['batching']['p95_us']:8,.0f}u"
        )
    headline = report["headline"]
    lines.append(
        f"headline: at {headline['rate_multiplier']:.1f}x batch-1 capacity, dynamic"
        f" batching serves {headline['wall_speedup_vs_batch1']:.2f}x the wall-clock"
        f" throughput ({headline['throughput_speedup_vs_batch1']:.2f}x modeled); p95"
        f" latency {headline['p95_total_latency_dynamic_us']:,.0f}us vs"
        f" {headline['p95_total_latency_batch1_us']:,.0f}us for batch-1"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes and short trace (CI benchmark-smoke gate)",
    )
    parser.add_argument("--network", choices=("mnist", "tiny"), default=None)
    parser.add_argument(
        "--requests", type=int, default=None, help="requests per simulated point"
    )
    parser.add_argument(
        "--rate-multipliers",
        type=float,
        nargs="+",
        default=[0.5, 2.5],
        help="arrival rates as multiples of the batch-1 service capacity",
    )
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--max-wait-us", type=float, default=None, help="dynamic policy coalescing wait"
    )
    parser.add_argument("--arrays", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.requests is not None and args.requests < 1:
        parser.error("--requests must be positive")
    if args.max_batch < 2:
        parser.error("--max-batch must be at least 2 (the benchmark compares a"
                     " dynamic policy against the built-in batch-1 baseline)")
    if min(args.rate_multipliers) <= 0:
        parser.error("--rate-multipliers must be positive")
    if args.network is None:
        args.network = "tiny" if args.smoke else "mnist"
    if args.requests is None:
        args.requests = 96 if args.smoke else 48
    if args.max_wait_us is None:
        # About one batch-1 service time: long enough to coalesce at high
        # load, short enough to bound the light-load latency cost.
        args.max_wait_us = 50.0 if args.network == "tiny" else 5000.0

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
