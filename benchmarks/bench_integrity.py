"""Integrity benchmark: the silent-data-corruption gates, sim and live.

The integrity layer (:mod:`repro.serve.integrity`) promises that armed
ABFT checksums turn silent data corruption into contained, retried
failures — and that the detection machinery behaves the same in
simulated and real asyncio serving.  This
bench guards the contract end to end:

* **Silent corruption is real** — the same seeded corruption plan served
  with no checks armed must serve corrupted results (``corrupted_served
  >= 1``, zero detections): the baseline hazard the checks exist for.
* **Checksum mode serves zero corrupted** — with ``checksum`` armed,
  every in-envelope flip is detected (coverage exactly 1.0), detected
  batches feed the retry machinery, and **no corrupted request is ever
  served**.  Deterministic from the plan seed.
* **Detection-counter reproducibility** — the identical corruption plan
  replayed through :func:`~repro.serve.runtime.replay_virtual` (the
  simulator's own loop, run again from a fresh engine) must report the
  same fault/detection counters (corruptions, detections,
  corrupted-served, canaries).
* **Check-overhead ceiling** — pricing ``checksum`` into the MNIST
  network's batch-8 cost may add at most 10% over the unchecked cost
  (the ABFT column checksums are one extra row/column of work per tile).
* **Live wall-clock detection** — a real asyncio
  :class:`~repro.serve.runtime.ServingRuntime` over the compiled stream
  executor with injected corruption ordinals: the flips land in real
  numerics, the real ABFT checksums catch both, nothing corrupted or
  failed is served.
* **Event-stream well-formedness** — the traced corruption run keeps
  complete request lifecycles and balanced compute spans.

Usage::

    PYTHONPATH=src python benchmarks/bench_integrity.py            # full
    PYTHONPATH=src python benchmarks/bench_integrity.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_integrity.py --json out.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro.obs import RecordingTracer, well_formed_errors
from repro.serve import (
    FaultPlan,
    IntegrityPolicy,
    ScheduledBatchCost,
    ServerConfig,
    ServingRuntime,
    ServingSimulator,
    make_trace,
    replay_virtual,
)
from repro.serve.workers import CompiledStreamExecutor


def build_server(
    plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | str | None = None,
) -> ServerConfig:
    mode = integrity.mode if isinstance(integrity, IntegrityPolicy) else integrity
    cost = ScheduledBatchCost("tiny", integrity=mode or "none")
    return ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=8,
        max_wait_us=2000.0,
        arrays=2,
        network_name="tiny",
        fault_plan=plan,
        integrity=integrity,
    )


async def drive_live(runtime: ServingRuntime, trace):
    await runtime.run_load(trace)
    await runtime.drain()
    report = runtime.report(trace_name=trace.name, offered_rps=trace.offered_rps)
    await runtime.stop()
    return report


def run_benchmark(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    trace = make_trace("poisson", args.rate, args.requests, rng)
    plan = FaultPlan(corrupt_rate=args.corrupt_rate, seed=args.fault_seed)

    # --- baseline hazard: no checks armed, the same plan serves
    # corrupted results silently (goodput still 1.0 — nothing fails).
    unchecked = ServingSimulator(trace, server=build_server(plan)).run()
    unchecked_stats = unchecked.faults or {}

    # --- checksum mode (traced): every in-envelope flip detected and
    # retried, zero corrupted requests served.
    tracer = RecordingTracer()
    checked = ServingSimulator(
        trace, server=build_server(plan, "checksum"), tracer=tracer
    ).run()
    errors = well_formed_errors(tracer)
    checked_stats = checked.faults or {}
    corruptions = checked_stats.get("corruptions", 0)
    detected = checked_stats.get("detected", 0)
    coverage = detected / corruptions if corruptions else 0.0

    # --- the same plan from a fresh engine must count the same
    # corruptions and detections.
    replayed = replay_virtual(build_server(plan, "checksum"), trace)
    counts_identical = checked_stats == (replayed.faults or {})

    # --- canary probes: checksum+canary with a short period fires
    # placement-driven probes; detections are seeded draws from the plan.
    canary_policy = IntegrityPolicy(mode="checksum+canary", canary_every=4)
    canaried = ServingSimulator(
        trace, server=build_server(plan, canary_policy)
    ).run()
    canary_stats = canaried.faults or {}

    # --- check-overhead ceiling: pricing the ABFT checksums into the
    # MNIST batch-8 cost stays within the 10% budget.
    plain_cost = ScheduledBatchCost("mnist")
    priced_cost = ScheduledBatchCost("mnist", integrity="checksum")
    overhead_ratio = priced_cost.batch_cycles(8) / plain_cost.batch_cycles(8)

    # --- live wall-clock detection through the real asyncio runtime and
    # the compiled stream executor: injected corruption ordinals flip
    # real numerics mid-stream and the real ABFT checksums catch them.
    live_plan = FaultPlan(corrupt_batches=(1, 3), seed=args.fault_seed)
    live_cost = ScheduledBatchCost("tiny", integrity="checksum")
    live_server = ServerConfig.from_policy(
        "fifo",
        live_cost,
        max_batch=8,
        max_wait_us=2000.0,
        arrays=2,
        network_name="tiny",
        fault_plan=live_plan,
        integrity="checksum",
    )
    live_trace = make_trace("uniform", args.live_rps, args.live_requests, rng)
    runtime = ServingRuntime(
        live_server, executor=CompiledStreamExecutor("tiny"), max_pending=4096
    )
    live = asyncio.run(drive_live(runtime, live_trace))
    live_stats = live.faults or {}

    return {
        "benchmark": "bench_integrity",
        "network": "tiny",
        "requests": args.requests,
        "rate_rps": args.rate,
        "seed": args.seed,
        "corruption_plan": plan.to_dict(),
        "live_corruption_plan": live_plan.to_dict(),
        "unchecked_stats": unchecked_stats,
        "checked_stats": checked_stats,
        "canary_stats": canary_stats,
        "replay_stats": replayed.faults or {},
        "live_stats": live_stats,
        "well_formed_errors": errors,
        "live_requests": args.live_requests,
        "headline": {
            "unchecked_corrupted_served": float(
                unchecked_stats.get("corrupted_served", 0)
            ),
            "unchecked_detected": float(unchecked_stats.get("detected", 0)),
            "checked_corrupted_served": float(
                checked_stats.get("corrupted_served", 0)
            ),
            "detection_coverage": coverage,
            "detection_retries": float(checked_stats.get("retries", 0)),
            "goodput_under_corruption": checked.goodput,
            "detection_counts_identical": 1.0 if counts_identical else 0.0,
            "integrity_stream_well_formed": 1.0 if not errors else 0.0,
            "canaries_fired": float(canary_stats.get("canaries", 0)),
            "checksum_overhead_ratio": overhead_ratio,
            "live_goodput": live.goodput,
            "live_failed_requests": float(live.failed_count),
            "live_corruptions": float(live_stats.get("corruptions", 0)),
            "live_detected": float(live_stats.get("detected", 0)),
            "live_corrupted_served": float(live_stats.get("corrupted_served", 0)),
        },
    }


def format_report(report: dict) -> str:
    headline = report["headline"]
    checked = report["checked_stats"]
    lines = [
        f"Integrity — tiny network, {report['requests']} requests,"
        f" corrupt_rate {report['corruption_plan']['corrupt_rate']:.0%},"
        " recorded simulator path",
        f"  unchecked: {int(headline['unchecked_corrupted_served'])} corrupted"
        " requests served silently"
        f" ({int(report['unchecked_stats'].get('corruptions', 0))} flips,"
        f" {int(headline['unchecked_detected'])} detected)",
        f"  checksum: {checked.get('corruptions', 0)} flips,"
        f" {checked.get('detected', 0)} detected"
        f" (coverage {headline['detection_coverage']:.0%}),"
        f" {int(headline['checked_corrupted_served'])} served corrupted,"
        f" {int(headline['detection_retries'])} retries,"
        f" goodput {headline['goodput_under_corruption']:.1%}",
        "  virtual replay: detection counters "
        + ("identical" if headline["detection_counts_identical"] else "DIVERGED"),
        f"  canaries: {int(headline['canaries_fired'])} probes"
        f" ({report['canary_stats'].get('canary_detected', 0)} detections)",
        f"  mnist check overhead: {headline['checksum_overhead_ratio']:.4f}x"
        " batch-8 cycles (ceiling 1.10x)",
        "  corruption event stream: "
        + (
            "well-formed"
            if headline["integrity_stream_well_formed"]
            else "MALFORMED"
        ),
        f"  live runtime: {report['live_requests']} requests,"
        f" goodput {headline['live_goodput']:.1%},"
        f" {int(headline['live_corruptions'])} corruptions,"
        f" {int(headline['live_detected'])} detected by real ABFT,"
        f" {int(headline['live_corrupted_served'])} served corrupted,"
        f" {int(headline['live_failed_requests'])} failed",
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
        "--corrupt-rate",
        type=float,
        default=0.05,
        help="injected corruption probability per batch",
    )
    parser.add_argument(
        "--live-requests", type=int, default=None, help="live wall-clock trace length"
    )
    parser.add_argument(
        "--live-rps", type=float, default=2000.0, help="live offered rate"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fault-seed", type=int, default=11)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.requests is None:
        args.requests = 3000 if args.smoke else 20000
    if args.live_requests is None:
        args.live_requests = 200 if args.smoke else 1000

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
