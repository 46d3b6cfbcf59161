"""End-to-end and per-layer benchmark of the CapsAcc reproduction.

Run from the repository root (no build step; the program is imported
from ``src/``):

    python3 perfbench/run.py --workload mnist-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs half the time plain and half with spans recorded
around each layer's public calls, then profiles the compiled layers and
times the simulator on the workload's network, and reports the
per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the run manifest.  Spans of a traced run are written to
``.perfbench/spans-<workload>.tsv``.

Each run is a fresh process, so the model zoo's in-process compile cache
cannot hide compile cost.  Set-up is repeated in fresh child processes
and ``setup_s`` is the median over all of them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Set-ups measured per untraced run (this process plus fresh children):
#: at least the minimum, and more while they fit the budget, so that a
#: set-up of a few milliseconds still gets a steady median.
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 15
SETUP_BUDGET_S = 6.0
#: A set-up child that takes longer than this fails the run.
SETUP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    from engine_profile import KCYCLE_LAYERS, MS_LAYERS

    units = {
        "runtime.admit_us": "us",
        "runtime.dispatch_us": "us",
        "runtime.complete_us": "us",
        "runtime.batch_size_mean": "count",
        "runtime.batching_wait_ms_p50": "ms",
        "runtime.queueing_wait_ms_p50": "ms",
        "runtime.submit_ms_p50": "ms",
        # Measured on the socket workload; 0 where requests use no socket.
        "socket.overhead_ms_p50": "ms",
        "socket.server_inflight_mean": "count",
        "engine.execute_ms": "ms",
        "engine.us_per_image": "us",
        "engine.busy_frac": "ratio",
        "engine.gemm_calls": "count",
        "engine.compiled_over_served": "ratio",
    }
    units.update({f"layer.{name}.ms": "ms" for name in MS_LAYERS})
    units.update({f"layer.{name}.kcycles": "kcycles" for name in KCYCLE_LAYERS})
    units.update(
        {
            "sim.recorded_us_per_req": "us",
            "sim.streaming_us_per_req": "us",
            "sim.replay_us_per_req": "us",
            "cost.price_ms": "ms",
            "setup.calibrate_s": "s",
            "setup.compile_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def child_setup(name: str, seed: int) -> dict:
    """One set-up in a fresh process (cold compile and lazy caches)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def finite(value: float) -> float:
    """JSON has no infinity: a latency no request met reads as 1e9 ms."""
    return value if math.isfinite(value) else 1e9


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result and its manifest."""
    import simulator_layer
    import workloads
    from manifest import host_manifest

    spec = workloads.WORKLOADS[name]
    setups: list[dict] = []
    started = time.perf_counter()
    while not trace and (
        len(setups) < SETUP_SAMPLES - 1
        or (
            len(setups) < SETUP_MAX_SAMPLES - 1
            and time.perf_counter() - started < SETUP_BUDGET_S
        )
    ):
        setups.append(child_setup(name, seed))
    pool = workloads.make_pool(spec, seed)
    result = asyncio.run(workloads.run_live(spec, pool, seconds, trace))
    state = result["state"]
    compiled = state["compiled"]
    golden = workloads.golden_predictions(compiled, pool)
    problems, phases = workloads.live_checks(result, golden, spec["block"])
    setups.append(state["timings"])
    timings = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    first = phases[0]
    counts = {
        key: sum(p[key] for p in phases)
        for key in ("attempted", "served", "shed", "failed", "latency_samples")
    }
    counts["warmup"] = len(state["warmup"])
    skipped: list[str] = []

    if trace:
        recorder = result["recorder"]
        traced = phases[1]
        values = workloads.live_layer_metrics(result, traced, spec)
        values["trace.overhead_frac"] = (
            1.0 - traced["throughput_rps"] / first["throughput_rps"]
        )
        recorder.write(os.path.join(ROOT, ".perfbench", f"spans-{name}.tsv"))
        profile = workloads.profile_layers(spec, compiled, pool)
        values.update(profile["metrics"])
        sim = simulator_layer.measure(compiled, seed)
        values.update(sim["metrics"])
        problems += sim["problems"]
        values["setup.calibrate_s"] = timings["calibrate_s"]
        values["setup.compile_s"] = timings["compile_s"]
        skipped = recorder.skipped + profile["skipped"]
        units = per_layer_units()
    else:
        values = {
            "throughput_rps": first["throughput_rps"],
            "latency_p50_ms": finite(first["latency_p50_ms"]),
            "latency_p90_ms": finite(first["latency_p90_ms"]),
            "setup_s": timings["setup_s"],
        }
        units = END_TO_END_UNITS

    manifest = host_manifest(ROOT)
    manifest.update(
        {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "params": spec,
            "executor": {spec["network"]: type(state["executor"]).__name__},
            "setup_samples": setups,
            "counts": counts,
            "skipped_wrappers": skipped,
            "problems": problems,
        }
    )
    return {
        "manifest": manifest,
        "result": {
            "correct": not problems,
            "attempted": counts["attempted"],
            "failed": counts["shed"] + counts["failed"],
            "metrics": {
                key: {"value": float(values[key]), "unit": unit}
                for key, unit in units.items()
            },
        },
    }


def parse_args(argv=None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--self-test", action="store_true", help="check the benchmark itself"
    )
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.setup_only:
        import workloads

        print(json.dumps(workloads.setup_only(args.workload, args.seed)))
        return 0
    start = time.perf_counter()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out["manifest"]["run_wall_s"] = time.perf_counter() - start
    for problem in out["manifest"]["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"manifest": out["manifest"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
