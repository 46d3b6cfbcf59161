"""Self-test of the benchmark at its shortest length.

    python3 perfbench/run.py --self-test

Checks that every workload prints every metric named in BENCHMARK.json
with its unit in both modes and passes its own checks, that a wrong
prediction fails the correctness check, and that the ``layer.*`` names
cover every compiled layer of ``mnist`` and ``tiny``.  Exits non-zero
on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import workloads
from engine_profile import KCYCLE_LAYERS, MS_LAYERS, uncovered_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def check_runs(names: dict) -> list[str]:
    """Each workload, both modes, one second: names, units, checks."""
    failures = []
    for workload in names["workloads"]:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True,
                text=True,
                timeout=300,
                cwd=ROOT,
            )
            label = f"{workload} --trace {trace}"
            before = len(failures)
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != names[trace]:
                failures.append(
                    f"{label}: metrics differ from BENCHMARK.json:"
                    f" missing {sorted(set(names[trace]) - set(printed))},"
                    f" extra {sorted(set(printed) - set(names[trace]))},"
                    f" units {[(n, u) for n, u in printed.items() if names[trace].get(n, u) != u]}"
                )
            print("ok  " if len(failures) == before else "FAIL", label, flush=True)
    return failures


def check_wrong_prediction() -> list[str]:
    """One flipped prediction must fail the live correctness check."""
    golden = np.array([3, 1, 4, 1])
    records = [(i, 0.001 * i, 0.002, int(golden[i])) for i in range(len(golden))]
    counts = SimpleNamespace(
        offered=len(records) + 1, completed=len(records) + 1,
        shed_count=0, failed_count=0, batch_count=2,
    )
    result = {
        "phases": [records],
        "state": {"warmup": [(0, 3)]},
        "report": counts,
    }
    failures = []
    problems, _ = workloads.live_checks(result, golden, 1)
    if problems:
        failures.append(f"correct predictions flagged: {problems}")
    index, sent, rtt, prediction = records[2]
    records[2] = (index, sent, rtt, (prediction + 1) % 10)
    problems, _ = workloads.live_checks(result, golden, 1)
    if not any("wrong" in problem for problem in problems):
        failures.append("a wrong prediction passed the correctness check")
    return failures


def check_layer_coverage(names: dict) -> list[str]:
    """``layer.*`` metrics cover every compiled layer of mnist and tiny."""
    from repro.compiler.zoo import get_network

    failures = []
    for network in ("mnist", "tiny"):
        missing = uncovered_layers(get_network(network).program)
        if missing:
            failures.append(f"{network}: compiled layers without a metric: {missing}")
    wanted = {f"layer.{n}.ms" for n in MS_LAYERS} | {f"layer.{n}.kcycles" for n in KCYCLE_LAYERS}
    if not wanted <= set(names[1]):
        failures.append(f"BENCHMARK.json lacks {sorted(wanted - set(names[1]))}")
    return failures


def main() -> int:
    names = declared()
    failures = check_wrong_prediction() + check_layer_coverage(names)
    failures += check_runs(names)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0
