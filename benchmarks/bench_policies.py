"""Serving-policy benchmark: fifo vs deadline vs greedy at saturation.

Drives the discrete-event serving simulator under each serving-policy
preset (``repro.serve.policies``) on the **same** saturating Poisson
trace — the ``bench_serving.py`` scenario: arrivals at a multiple of the
batch-1 service capacity — with one per-request SLA shared by every
policy:

* ``fifo``   — the classic max-batch + max-wait batcher (PR 2 default);
* ``deadline`` — SLA-aware: shed-infeasible admission plus early launch
  before the oldest queued deadline becomes unmeetable;
* ``greedy`` — zero coalescing wait, fastest-idle-array dispatch.

Per policy it reports served throughput on the simulated clock, mean
batch size, p50/p99 latency, shed rate, and SLA miss rate.  The headline
is the deadline policy's p99 against the fifo batcher's at equal offered
rate: under overload the max-wait batcher's queue (and p99) grows without
bound while the deadline policy sheds or early-launches instead —
recorded MNIST run at 2.5x capacity with a 10 ms SLA: p99 9.2 ms vs
146.6 ms, at the cost of shedding what the array cannot serve in time.
Batch costs are the bit-exact scheduled model; everything is seeded, so
the modeled figures are deterministic and guarded by
``benchmarks/check_perf_regression.py``.

Replayed traces close the loop to production-style logs: pass
``--trace-file`` (JSONL/CSV, see ``repro.serve.trace``) to serve a
recorded arrival log instead of the synthetic Poisson trace — each
request keeps its own absolute ``deadline_us`` SLA from the log (the
``--deadline-ms`` flag then only stamps requests without one), and
``--fast`` switches the simulator to its ``record_requests=False``
streaming path so million-request logs replay in seconds.  A small
checked-in sample lives at ``benchmarks/traces/sample-trace.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/bench_policies.py            # MNIST shapes
    PYTHONPATH=src python benchmarks/bench_policies.py --smoke    # tiny, CI
    PYTHONPATH=src python benchmarks/bench_policies.py --json out.json
    PYTHONPATH=src python benchmarks/bench_policies.py \
        --trace-file benchmarks/traces/sample-trace.jsonl --fast
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.serve import (
    SERVING_POLICIES,
    ScheduledBatchCost,
    ServerConfig,
    ServingSimulator,
    load_trace_file,
    poisson_trace,
)


def run_benchmark(args: argparse.Namespace) -> dict:
    cost = ScheduledBatchCost(args.network)
    capacity_rps = (
        args.arrays * cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
    )
    if args.trace_file is not None:
        trace = load_trace_file(args.trace_file)
        args.requests = trace.count
        args.rate_multiplier = trace.offered_rps / capacity_rps
    else:
        rate = args.rate_multiplier * capacity_rps
        trace = poisson_trace(rate, args.requests, np.random.default_rng(args.seed))

    rows = []
    for name in SERVING_POLICIES:
        server = ServerConfig.from_policy(
            name,
            cost,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            arrays=args.arrays,
            deadline_us=args.deadline_ms * 1000.0,
            network_name=args.network,
        )
        report = ServingSimulator(trace, server=server).run(
            record_requests=not args.fast
        )
        latency = report.latency_summary()["total"]
        rows.append(
            {
                "policy": name,
                "describe": server.describe(),
                "offered_rps": report.offered_rps,
                "throughput_rps": report.throughput_rps,
                "served": report.completed,
                "shed": report.shed_count,
                "shed_rate": report.shed_rate,
                "deadline_miss_rate": report.deadline_miss_rate,
                "mean_batch_size": report.mean_batch_size,
                "p50_total_latency_us": latency["p50_us"],
                "p99_total_latency_us": latency["p99_us"],
            }
        )

    by_name = {row["policy"]: row for row in rows}
    fifo_p99 = by_name["fifo"]["p99_total_latency_us"]
    deadline_p99 = by_name["deadline"]["p99_total_latency_us"]
    return {
        "benchmark": "bench_policies",
        "network": args.network,
        "trace": trace.name,
        "trace_file": args.trace_file,
        "requests": args.requests,
        "arrays": args.arrays,
        "seed": args.seed,
        "rate_multiplier": args.rate_multiplier,
        "deadline_ms": args.deadline_ms,
        "max_batch": args.max_batch,
        "max_wait_us": args.max_wait_us,
        "batch1_capacity_rps": capacity_rps,
        "offered_rps": trace.offered_rps,
        "results": rows,
        "headline": {
            "p99_fifo_us": fifo_p99,
            "p99_deadline_us": deadline_p99,
            "p99_deadline_vs_fifo": deadline_p99 / fifo_p99,
            "shed_rate_deadline": by_name["deadline"]["shed_rate"],
            "miss_rate_fifo": by_name["fifo"]["deadline_miss_rate"],
            "miss_rate_deadline": by_name["deadline"]["deadline_miss_rate"],
            "throughput_fifo_rps": by_name["fifo"]["throughput_rps"],
            "throughput_greedy_rps": by_name["greedy"]["throughput_rps"],
        },
    }


def format_report(report: dict) -> str:
    lines = [
        f"Serving policies — {report['network']} network,"
        f" {report['requests']} requests at"
        f" {report['rate_multiplier']:g}x batch-1 capacity"
        f" ({report['offered_rps']:,.1f} req/s offered),"
        f" {report['deadline_ms']:g} ms SLA, {report['arrays']} array(s)",
        f"{'policy':>10s} {'served req/s':>13s} {'batch':>6s} {'p50':>9s}"
        f" {'p99':>9s} {'shed':>7s} {'SLA miss':>9s}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['policy']:>10s} {row['throughput_rps']:13,.1f}"
            f" {row['mean_batch_size']:6.2f}"
            f" {row['p50_total_latency_us'] / 1e3:8.2f}m"
            f" {row['p99_total_latency_us'] / 1e3:8.2f}m"
            f" {row['shed_rate']:7.1%} {row['deadline_miss_rate']:9.1%}"
        )
    headline = report["headline"]
    lines.append(
        f"headline: deadline batching p99"
        f" {headline['p99_deadline_us'] / 1e3:,.2f} ms vs fifo"
        f" {headline['p99_fifo_us'] / 1e3:,.2f} ms at equal offered rate"
        f" ({headline['p99_deadline_vs_fifo']:.2f}x;"
        f" shed rate {headline['shed_rate_deadline']:.1%}, SLA misses"
        f" {headline['miss_rate_deadline']:.1%} vs"
        f" {headline['miss_rate_fifo']:.1%})"
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
        "--requests", type=int, default=None, help="requests in the trace"
    )
    parser.add_argument(
        "--trace-file",
        type=str,
        default=None,
        help="replay a recorded .jsonl/.csv arrival log (per-request"
        " deadline_us honored) instead of the synthetic Poisson trace",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="streaming simulator path (record_requests=False) for long traces",
    )
    parser.add_argument(
        "--rate-multiplier",
        type=float,
        default=2.5,
        help="arrival rate as a multiple of the batch-1 service capacity",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request SLA (default: 10 ms MNIST, 0.1 ms tiny)",
    )
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--max-wait-us", type=float, default=None, help="fifo coalescing wait"
    )
    parser.add_argument("--arrays", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.rate_multiplier <= 0:
        parser.error("--rate-multiplier must be positive")
    if args.network is None:
        args.network = "tiny" if args.smoke else "mnist"
    if args.requests is None:
        args.requests = 96 if args.smoke else 64
    if args.requests < 1:
        parser.error("--requests must be positive")
    if args.max_wait_us is None:
        # About one batch-1 service time, matching bench_serving.py.
        args.max_wait_us = 50.0 if args.network == "tiny" else 5000.0
    if args.deadline_ms is None:
        args.deadline_ms = 0.1 if args.network == "tiny" else 10.0
    if args.deadline_ms <= 0:
        parser.error("--deadline-ms must be positive")

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
