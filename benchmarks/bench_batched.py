"""Throughput benchmark for the batched execution engine.

Sweeps the executor batch size over the same synthetic image stream and
reports, per batch size:

* simulator wall-clock throughput (images/s of host time) — the per-job
  Python dispatch that batching amortizes is real simulation cost, so this
  is the headline "serve traffic" number;
* modeled hardware throughput (images/s at the configured clock) under
  double-buffered accounting — weight-tile loads amortize across the
  stacked batch stream;
* achieved PE utilization;

and, at the largest batch size, ``layers_ms``: the median wall time of
each compiled layer (Conv1, PrimaryCaps, ClassCaps, every routing step)
from the engine's own ``StreamExecutor.run_batch(..., timings=...)`` sink.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched.py            # MNIST shapes
    PYTHONPATH=src python benchmarks/bench_batched.py --smoke    # tiny shapes, CI
    PYTHONPATH=src python benchmarks/bench_batched.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.capsnet.config import mnist_capsnet_config, tiny_capsnet_config
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.executor import StreamExecutor
from repro.data.synthetic import SyntheticDigits


def measure(
    executor: StreamExecutor,
    images: np.ndarray,
    batch_size: int,
    repeats: int,
) -> dict:
    """Steady-state wall-clock and modeled stats for one batch size."""
    count = len(images)

    def one_pass() -> list:
        return [
            executor.run_batch(images[lo : lo + batch_size])
            for lo in range(0, count, batch_size)
        ]

    results = one_pass()  # warm-up: page-faults, LUTs, allocator arenas
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = one_pass()
        best = min(best, time.perf_counter() - start)

    config = executor.accelerator.config
    seq_cycles = sum(r.total_cycles for r in results)
    ovl_cycles = sum(r.overlapped_cycles for r in results)
    macs = sum(r.total_stats.mac_count for r in results)
    jobs = sum(sum(rep.jobs for rep in r.layers.values()) for r in results)
    return {
        "batch_size": batch_size,
        "images": count,
        "wall_seconds": best,
        "wall_images_per_s": count / best,
        "modeled_cycles_per_image": ovl_cycles / count,
        "modeled_sequential_cycles_per_image": seq_cycles / count,
        "modeled_images_per_s": config.clock_mhz * 1e6 * count / ovl_cycles,
        "utilization": macs / (ovl_cycles * config.num_pes),
        "gemm_jobs_per_image": jobs / count,
    }


def layer_split(executor: StreamExecutor, images: np.ndarray, repeats: int) -> dict:
    """Per-layer median wall milliseconds of one batch of ``images``."""
    executor.run_batch(images)  # warm-up
    samples = []
    for _ in range(repeats):
        timings: dict[str, float] = {}
        executor.run_batch(images, timings=timings)
        samples.append(timings)
    return {
        "batch_size": len(images),
        "repeats": repeats,
        "median_ms": {
            layer: statistics.median(sample.get(layer, 0.0) for sample in samples) * 1e3
            for layer in samples[0]
        },
    }


def run_benchmark(args: argparse.Namespace) -> dict:
    network = tiny_capsnet_config() if args.network == "tiny" else mnist_capsnet_config()
    images = SyntheticDigits(size=network.image_size, seed=args.seed).generate(
        args.images
    ).images
    qnet = QuantizedCapsuleNet(network)
    executor = StreamExecutor.for_network(qnet)
    skipped = [batch for batch in args.batch_sizes if batch > args.images]
    if skipped:
        print(f"skipping batch sizes larger than --images: {skipped}", file=sys.stderr)
    rows = [
        measure(executor, images, batch, args.repeats)
        for batch in args.batch_sizes
        if batch <= args.images
    ]
    baseline = rows[0]["wall_images_per_s"]
    for row in rows:
        row["wall_speedup_vs_batch1"] = row["wall_images_per_s"] / baseline
    largest = max(row["batch_size"] for row in rows)
    return {
        "benchmark": "bench_batched",
        "network": args.network,
        "images": args.images,
        "repeats": args.repeats,
        "results": rows,
        # The median of 25 batches steadies the full run's per-layer split.
        "layers_ms": layer_split(executor, images[:largest], 3 if args.smoke else 25),
    }


def format_report(report: dict) -> str:
    lines = [
        f"Batched execution engine — {report['network']} network,"
        f" {report['images']} images, best of {report['repeats']}",
        f"{'batch':>5s} {'wall img/s':>11s} {'speedup':>8s} {'model img/s':>12s}"
        f" {'cycles/img':>11s} {'util':>6s} {'jobs/img':>9s}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['batch_size']:5d} {row['wall_images_per_s']:11.1f}"
            f" {row['wall_speedup_vs_batch1']:7.2f}x"
            f" {row['modeled_images_per_s']:12,.0f}"
            f" {row['modeled_cycles_per_image']:11,.0f}"
            f" {row['utilization']:5.1%}"
            f" {row['gemm_jobs_per_image']:9.1f}"
        )
    split = report["layers_ms"]
    lines.append(
        f"per-layer engine ms at batch {split['batch_size']}"
        f" (median of {split['repeats']}):"
    )
    ranked = sorted(split["median_ms"].items(), key=lambda item: -item[1])
    lines.append("  " + "  ".join(f"{layer} {ms:.2f}" for layer, ms in ranked))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes and short sweep (CI benchmark-smoke gate)",
    )
    parser.add_argument("--network", choices=("mnist", "tiny"), default=None)
    parser.add_argument(
        "--batch-sizes", type=int, nargs="+", default=None, help="batch sizes to sweep"
    )
    parser.add_argument("--images", type=int, default=None, help="images per sweep point")
    parser.add_argument("--repeats", type=int, default=None, help="timed repeats")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default=None, help="write report JSON here")
    args = parser.parse_args(argv)

    if args.images is not None and args.images < 1:
        parser.error("--images must be positive")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be positive")
    if args.batch_sizes is not None and min(args.batch_sizes) < 1:
        parser.error("--batch-sizes must be positive")
    if args.network is None:
        args.network = "tiny" if args.smoke else "mnist"
    if args.batch_sizes is None:
        args.batch_sizes = [1, 4, 8] if args.smoke else [1, 2, 4, 8]
    if args.images is None:
        args.images = 8 if args.smoke else 16
    if args.repeats is None:
        args.repeats = 2 if args.smoke else 3
    if args.batch_sizes[0] != 1:
        print("prepending batch size 1 as the speedup baseline", file=sys.stderr)
        args.batch_sizes = [1] + [b for b in args.batch_sizes if b != 1]

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
