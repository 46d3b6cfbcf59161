"""Compiler benchmark: compile time, stream size and pricing.

Two measurements, one JSON artifact:

* **Compilation** — per zoo network, the wall time of the lowering pass
  (graph → instruction stream) and the resulting program size.  Compiling
  is meant to be interactive-fast; the guarded metric is a conservative
  networks-per-second floor.
* **Pricing** — per zoo network, the closed-form double-buffered
  cycles/image and steady-state pipelined cycles/image from the compiled
  stream (deterministic; a change means the lowering or the cycle model
  changed, which ``tests/compiler/test_accounting_fixture.py`` pins).

Usage::

    PYTHONPATH=src python benchmarks/bench_compiler.py
    PYTHONPATH=src python benchmarks/bench_compiler.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_compiler.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.compiler.cost import program_batch_cycles, program_steady_cycles
from repro.compiler.lower import compile_graph
from repro.compiler.zoo import get_network, zoo_names
from repro.hw.config import AcceleratorConfig


def compile_rows(args: argparse.Namespace) -> list[dict]:
    """Compile every zoo network fresh and price its stream."""
    accel = AcceleratorConfig()
    rows = []
    for name in zoo_names():
        network = get_network(name)
        start = time.perf_counter()
        for _ in range(args.compile_repeats):
            program = compile_graph(network.graph, network.formats)
        compile_ms = (time.perf_counter() - start) * 1e3 / args.compile_repeats
        overlapped = program_batch_cycles(accel, program, 1)["overlapped"]
        steady = program_steady_cycles(accel, program, args.batch)
        rows.append(
            {
                "network": name,
                "instructions": program.num_instructions,
                "gemm_instructions": len(program.gemm_instructions()),
                "compile_ms": compile_ms,
                "overlapped_cycles_b1": overlapped,
                "steady_cycles_per_image": steady / args.batch,
            }
        )
    return rows


def run_benchmark(args: argparse.Namespace) -> dict:
    compile_start = time.perf_counter()
    compiled = compile_rows(args)
    compile_seconds = time.perf_counter() - compile_start
    return {
        "benchmark": "bench_compiler",
        "batch": args.batch,
        "zoo": compiled,
        "headline": {
            "zoo_networks": len(compiled),
            "compile_networks_per_second": (
                len(compiled) * args.compile_repeats / compile_seconds
            ),
        },
    }


def format_report(report: dict) -> str:
    lines = [
        "Compiler — graph -> ISA lowering across the model zoo",
        f"{'network':>10s} {'instrs':>7s} {'gemms':>6s} {'compile':>9s}"
        f" {'cyc/img (b1)':>13s} {'steady cyc/img':>15s}",
    ]
    for row in report["zoo"]:
        lines.append(
            f"{row['network']:>10s} {row['instructions']:7d}"
            f" {row['gemm_instructions']:6d} {row['compile_ms']:7.1f}ms"
            f" {row['overlapped_cycles_b1']:13,d}"
            f" {row['steady_cycles_per_image']:15,.0f}"
        )
    headline = report["headline"]
    lines.append(
        f"headline: {headline['zoo_networks']} zoo networks compile at"
        f" {headline['compile_networks_per_second']:.1f} networks/s"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="few compile repeats (CI smoke gate)"
    )
    parser.add_argument(
        "--batch", type=int, default=4, help="batch size for steady-state pricing"
    )
    parser.add_argument(
        "--compile-repeats", type=int, default=None, help="lowering passes to average"
    )
    parser.add_argument("--json", type=str, default=None, help="write the artifact here")
    args = parser.parse_args(argv)

    if args.compile_repeats is None:
        args.compile_repeats = 3 if args.smoke else 10

    report = run_benchmark(args)
    print(format_report(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
