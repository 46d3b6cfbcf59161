"""Smoke the benchmark scripts' new surfaces (trace replay, scale)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serve import load_trace_file

REPO = Path(__file__).resolve().parent.parent
SAMPLE_TRACE = REPO / "benchmarks" / "traces" / "sample-trace.jsonl"


def run_bench(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / script), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestSampleTrace:
    def test_checked_in_sample_parses_with_deadlines(self):
        trace = load_trace_file(SAMPLE_TRACE)
        assert trace.count == 240
        assert trace.deadlines_us is not None
        finite = np.isfinite(trace.deadlines_us)
        assert 0 < finite.sum() < trace.count  # some requests carry no SLA
        assert (trace.deadlines_us[finite] > trace.times_us[finite]).all()


class TestBenchPolicies:
    def test_trace_file_replay(self, tmp_path, tiny_config):
        # A tiny-scale replay log: saturating arrivals, each with its own
        # absolute deadline, a few without.
        from repro.serve import ScheduledBatchCost

        cost = ScheduledBatchCost("tiny")
        capacity = cost.config.clock_mhz * 1e6 / cost.batch_cycles(1)
        rng = np.random.default_rng(4)
        times = np.cumsum(rng.exponential(1e6 / (2.5 * capacity), size=48))
        lines = []
        for index, arrival in enumerate(times):
            entry = {"arrival_us": float(arrival)}
            if index % 5:
                entry["deadline_us"] = float(arrival) + 100.0
            lines.append(json.dumps(entry))
        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text("\n".join(lines) + "\n")

        out_path = tmp_path / "out.json"
        proc = run_bench(
            "bench_policies.py",
            "--network",
            "tiny",
            "--deadline-ms",
            "0.1",
            "--max-wait-us",
            "50",
            "--fast",
            "--trace-file",
            str(trace_path),
            "--json",
            str(out_path),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out_path.read_text())
        assert report["requests"] == 48
        assert report["trace"].startswith("replay:")
        assert report["trace_file"] == str(trace_path)
        # The per-request SLAs were honored: the deadline policy sheds
        # and the fifo policy records misses against them.
        assert {row["policy"] for row in report["results"]} == {
            "fifo",
            "deadline",
            "greedy",
        }


class TestBenchBatched:
    def test_smoke_records_the_per_layer_split(self, tmp_path):
        out_path = tmp_path / "batched.json"
        proc = run_bench("bench_batched.py", "--smoke", "--json", str(out_path))
        assert proc.returncode == 0, proc.stderr
        split = json.loads(out_path.read_text())["layers_ms"]
        assert split["batch_size"] == 8
        layers = {"conv1", "primarycaps", "classcaps_fc", "sum1", "sum2", "sum3"}
        layers |= {"update1", "update2", "softmax2", "softmax3"}
        assert layers <= split["median_ms"].keys()


class TestBenchScale:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out_path = tmp_path_factory.mktemp("scale") / "scale.json"
        proc = run_bench(
            "bench_scale.py",
            "--smoke",
            "--requests",
            "4000",
            "--repeats",
            "1",
            "--json",
            str(out_path),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(out_path.read_text())

    def test_equivalence_audit(self, report):
        headline = report["headline"]
        assert headline["counts_identical"] == 1.0
        assert headline["percentile_diff_within_bin"] == 1.0
        assert headline["max_percentile_diff_us"] <= report["latency_bin_us"]

    def test_fast_path_is_faster(self, report):
        assert report["headline"]["wall_speedup"] > 1.0
        assert report["headline"]["fast_wall_rps"] > (
            report["headline"]["record_wall_rps"]
        )


class TestBenchCompiler:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out_path = tmp_path_factory.mktemp("compiler") / "compiler.json"
        proc = run_bench(
            "bench_compiler.py",
            "--smoke",
            "--compile-repeats",
            "1",
            "--json",
            str(out_path),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(out_path.read_text())

    def test_whole_zoo_compiles(self, report):
        assert report["headline"]["zoo_networks"] == len(report["zoo"])
        for row in report["zoo"]:
            assert row["instructions"] > 0
            assert row["steady_cycles_per_image"] > 0

    def test_baseline_guard_passes(self, report, tmp_path):
        artifact = tmp_path / "bench-compiler-smoke.json"
        artifact.write_text(json.dumps(report))
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "benchmarks" / "check_perf_regression.py"),
                str(artifact),
                str(REPO / "benchmarks" / "baselines" / "bench-compiler-smoke.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
