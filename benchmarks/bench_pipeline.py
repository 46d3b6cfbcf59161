"""Stream-pipelining benchmark: cold vs warm cycles/image, serving impact.

Two measurements, one JSON artifact:

* **Engine** — per batch size, the double-buffered figure of the
  compiled program (the non-pipelined per-batch cost), the pipelined cold cost (one
  batch alone, pipeline empty) and the steady-state warm cost (marginal
  cycles of a batch in a homogeneous stream).  The headline is the
  batch-1 ``steady / double-buffered`` ratio: stream pipelining keeps the
  array hot between batches, so the ratio must land at or below 0.9 on
  MNIST shapes (the acceptance bar; the compute-only lower bound is also
  recorded to show the remaining headroom).
* **Serving** — the discrete-event simulator on one saturating trace,
  pipeline off vs on: back-to-back batches pay the warm cost, so modeled
  throughput rises and the latency report gains the drain-saved term.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py            # MNIST shapes
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke    # tiny, CI
    PYTHONPATH=src python benchmarks/bench_pipeline.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.compiler.cost import (
    program_batch_cycles,
    program_stats,
    program_steady_cycles,
    program_stream_timing,
)
from repro.compiler.zoo import get_network
from repro.hw.config import AcceleratorConfig
from repro.serve import (
    BatchPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    poisson_trace,
)


def engine_rows(args: argparse.Namespace) -> tuple[list[dict], dict]:
    """Cold vs warm cycles/image per batch size."""
    compiled = get_network(args.network)
    config = AcceleratorConfig()
    program = compiled.program
    rows = []
    wall_start = time.perf_counter()
    for batch in args.batch_sizes:
        double_buffered = program_batch_cycles(config, program, batch)["overlapped"]
        compute = program_stats(config, program, batch).compute_cycles
        cold = program_stream_timing(config, program, [batch]).finish_cycles
        steady = program_steady_cycles(config, program, batch, args.stream_length)
        rows.append(
            {
                "batch": batch,
                "double_buffered_cycles": double_buffered,
                "pipelined_cold_cycles": cold,
                "pipelined_steady_cycles": steady,
                "compute_cycles": compute,
                "double_buffered_cycles_per_image": double_buffered / batch,
                "steady_cycles_per_image": steady / batch,
                "steady_vs_double_buffered": steady / double_buffered,
                "compute_bound_ratio": compute / double_buffered,
                "steady_images_per_second": batch * config.clock_mhz * 1e6 / steady,
            }
        )
    return rows, {"wall_seconds": time.perf_counter() - wall_start}


def serving_rows(args: argparse.Namespace) -> list[dict]:
    """Same saturating trace, pipeline off vs on."""
    rows = []
    costs = {
        False: ScheduledBatchCost(args.network),
        True: ScheduledBatchCost(args.network, pipeline=True),
    }
    capacity = (
        args.arrays
        * costs[False].config.clock_mhz
        * 1e6
        / costs[False].batch_cycles(1)
    )
    trace = poisson_trace(
        args.rate_multiplier * capacity,
        args.requests,
        np.random.default_rng(args.seed),
    )
    policy = BatchPolicy(max_batch=args.max_batch, max_wait_us=args.max_wait_us)
    for pipeline in (False, True):
        wall_start = time.perf_counter()
        report = ServingSimulator(
            trace,
            server=ServerConfig(
                cost=costs[pipeline],
                batching=policy,
                arrays=args.arrays,
                pipeline=pipeline,
                network_name=args.network,
            ),
        ).run()
        rows.append(
            {
                "pipeline": pipeline,
                "offered_rps": report.offered_rps,
                "throughput_rps": report.throughput_rps,
                "batches": len(report.batches),
                "warm_batches": report.warm_batches,
                "drain_saved_us": report.drain_saved_total_us,
                "p95_total_latency_us": report.latency_summary()["total"]["p95_us"],
                "wall_seconds": time.perf_counter() - wall_start,
            }
        )
    baseline = rows[0]
    for row in rows:
        row["throughput_speedup_vs_cold"] = (
            row["throughput_rps"] / baseline["throughput_rps"]
        )
    return rows


def run_benchmark(args: argparse.Namespace) -> dict:
    engine, engine_meta = engine_rows(args)
    serving = serving_rows(args)
    batch1 = next(row for row in engine if row["batch"] == min(args.batch_sizes))
    pipelined_serving = next(row for row in serving if row["pipeline"])
    return {
        "benchmark": "bench_pipeline",
        "network": args.network,
        "batch_sizes": list(args.batch_sizes),
        "stream_length": args.stream_length,
        "requests": args.requests,
        "arrays": args.arrays,
        "seed": args.seed,
        "engine": engine,
        "engine_meta": engine_meta,
        "serving": serving,
        "headline": {
            "batch": batch1["batch"],
            "steady_vs_double_buffered": batch1["steady_vs_double_buffered"],
            "compute_bound_ratio": batch1["compute_bound_ratio"],
            "steady_cycles_per_image": batch1["steady_cycles_per_image"],
            "double_buffered_cycles_per_image": batch1[
                "double_buffered_cycles_per_image"
            ],
            "serving_throughput_speedup": pipelined_serving[
                "throughput_speedup_vs_cold"
            ],
            "warm_batch_fraction": (
                pipelined_serving["warm_batches"] / pipelined_serving["batches"]
                if pipelined_serving["batches"]
                else 0.0
            ),
        },
    }


def format_report(report: dict) -> str:
    lines = [
        f"Stream pipelining — {report['network']} network,"
        f" stream length {report['stream_length']}",
        f"{'batch':>6s} {'dbuf cyc/img':>13s} {'steady cyc/img':>15s} {'ratio':>7s}"
        f" {'compute bound':>14s} {'img/s':>10s}",
    ]
    for row in report["engine"]:
        lines.append(
            f"{row['batch']:6d} {row['double_buffered_cycles_per_image']:13,.0f}"
            f" {row['steady_cycles_per_image']:15,.0f}"
            f" {row['steady_vs_double_buffered']:6.3f}x"
            f" {row['compute_bound_ratio']:13.3f}x"
            f" {row['steady_images_per_second']:10,.0f}"
        )
    for row in report["serving"]:
        mode = "pipeline" if row["pipeline"] else "cold    "
        lines.append(
            f"serving [{mode}]: {row['throughput_rps']:10,.1f} req/s"
            f" ({row['throughput_speedup_vs_cold']:.2f}x),"
            f" {row['warm_batches']}/{row['batches']} warm,"
            f" drain saved {row['drain_saved_us']:,.0f}us,"
            f" p95 {row['p95_total_latency_us']:,.0f}us"
        )
    headline = report["headline"]
    lines.append(
        f"headline: batch-{headline['batch']} steady state runs at"
        f" {headline['steady_vs_double_buffered']:.3f}x the double-buffered"
        f" cycles/image (compute bound {headline['compute_bound_ratio']:.3f}x);"
        f" pipelined serving {headline['serving_throughput_speedup']:.2f}x"
        f" modeled throughput"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes and a short trace (CI benchmark-smoke gate)",
    )
    parser.add_argument("--network", choices=("mnist", "tiny"), default=None)
    parser.add_argument(
        "--batch-sizes", type=int, nargs="+", default=None, help="batch sizes to probe"
    )
    parser.add_argument(
        "--stream-length",
        type=int,
        default=6,
        help="batches in the homogeneous steady-state probe stream",
    )
    parser.add_argument(
        "--rate-multiplier",
        type=float,
        default=2.5,
        help="serving arrival rate as a multiple of batch-1 capacity",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-us", type=float, default=None)
    parser.add_argument("--arrays", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.network is None:
        args.network = "tiny" if args.smoke else "mnist"
    if args.batch_sizes is None:
        args.batch_sizes = [1, args.max_batch]
    if args.requests is None:
        args.requests = 96 if args.smoke else 64
    if args.max_wait_us is None:
        args.max_wait_us = 50.0 if args.network == "tiny" else 5000.0
    if min(args.batch_sizes) < 1 or args.stream_length < 3:
        parser.error("--batch-sizes must be positive and --stream-length >= 3")

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
