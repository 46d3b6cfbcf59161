"""Tests for the command-line interface."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro import cli

REPO = Path(__file__).resolve().parents[2]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0


class TestListCommand:
    def test_lists_artifacts(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig16" in out
        assert "all" in out


class TestRunCommand:
    def test_run_single_artifact(self, capsys):
        assert cli.main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_run_multiple_artifacts(self, capsys):
        assert cli.main(["run", "fig5", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5" in out
        assert "Table II" in out

    def test_unknown_artifact_fails(self, capsys):
        assert cli.main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_rows(self, capsys):
        assert cli.main(["sweep", "--array", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "4x4" in out
        assert "8x8" in out


class TestSimulateCommand:
    def test_batched_simulation_reports_throughput(self, capsys):
        assert cli.main(
            ["simulate", "--network", "tiny", "--batch-size", "4", "--images", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch size 4" in out
        assert "images/s" in out
        assert "classcaps_fc" in out
        assert "util" in out

    def test_batch_size_one_works(self, capsys):
        assert cli.main(
            ["simulate", "--network", "tiny", "--batch-size", "1", "--images", "2"]
        ) == 0
        assert "batch size 1" in capsys.readouterr().out

    def test_rejects_non_positive_batch(self, capsys):
        assert cli.main(["simulate", "--network", "tiny", "--batch-size", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_stepped_engine_accepted(self, capsys):
        assert cli.main(
            [
                "simulate",
                "--network",
                "tiny",
                "--batch-size",
                "2",
                "--images",
                "2",
                "--engine",
                "stepped",
            ]
        ) == 0
        assert "stepped engine" in capsys.readouterr().out

    def test_pipelined_stream_simulation(self, capsys):
        assert cli.main(
            [
                "simulate",
                "--network",
                "tiny",
                "--batch-size",
                "2",
                "--images",
                "8",
                "--pipeline",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Pipelined stream simulation" in out
        assert "steady-state" in out
        assert "Stream speedup" in out


class TestServeSimPolicies:
    BASE = ["serve-sim", "--network", "tiny"]

    def test_deadline_policy_reports_shedding(self, capsys):
        assert cli.main(
            self.BASE
            + [
                "--policy",
                "deadline",
                "--deadline-ms",
                "0.05",
                "--rate",
                "40000",
                "--requests",
                "48",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "deadline" in out
        assert "shed" in out

    def test_greedy_policy_runs(self, capsys):
        assert cli.main(
            self.BASE + ["--policy", "greedy", "--requests", "16"]
        ) == 0
        assert "greedy" in capsys.readouterr().out

    def test_heterogeneous_array_sizes(self, capsys):
        assert cli.main(
            self.BASE
            + ["--array-sizes", "16", "8", "--requests", "16", "--rate", "20000"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 array(s)" in out

    def test_multi_tenant(self, capsys):
        assert cli.main(
            self.BASE
            + [
                "--rate",
                "9000",
                "--requests",
                "24",
                "--tenant",
                "name=a",
                "--tenant",
                "name=b,weight=2,deadline-ms=5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "tenant a" in out
        assert "tenant b" in out

    def test_bad_tenant_spec_fails(self, capsys):
        assert cli.main(self.BASE + ["--tenant", "rate=100"]) == 2
        assert "name=" in capsys.readouterr().err

    def test_zero_deadline_fails(self, capsys):
        assert cli.main(self.BASE + ["--deadline-ms", "0"]) == 2
        assert "deadline-ms" in capsys.readouterr().err

    def test_bad_tenant_number_fails(self, capsys):
        assert cli.main(self.BASE + ["--tenant", "name=a,rate=abc"]) == 2
        assert "rate" in capsys.readouterr().err

    def test_tenant_with_execute_fails(self, capsys):
        assert (
            cli.main(
                ["serve-sim", "--network", "tiny", "--tenant", "name=a", "--execute"]
            )
            == 2
        )
        assert "single-tenant" in capsys.readouterr().err

    def test_queue_limit_sheds(self, capsys):
        assert cli.main(
            self.BASE
            + ["--queue-limit", "0", "--requests", "8", "--rate", "1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "shed 8/8" in out


class TestInfoCommand:
    def test_info_summarizes(self, capsys):
        assert cli.main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CapsuleNet" in out
        assert "16x16" in out


class TestServeCommand:
    """The live `serve` front-end and its shared flag surface."""

    def subparser(self, name):
        parser = cli.build_parser()
        actions = {
            action.dest: action
            for sub in parser._subparsers._group_actions
            for action in [sub.choices[name]]
            for action in action._actions
        }
        return actions

    def test_serve_and_serve_sim_share_the_server_flags(self):
        """One flag definition, two commands — no drift, ever.

        Every server-shape flag registered by ``add_server_arguments``
        must exist on BOTH subcommands with identical defaults and
        choices (``--network`` defaults intentionally differ: the live
        command serves the tiny network by default).
        """
        shared_dests = [
            "max_batch",
            "max_wait_us",
            "policy",
            "deadline_ms",
            "dispatch",
            "queue_limit",
            "arrays",
            "array_sizes",
            "network",
            "pipeline",
            "fifo_depth",
        ]
        sim_actions = self.subparser("serve-sim")
        live_actions = self.subparser("serve")
        for dest in shared_dests:
            assert dest in sim_actions, f"serve-sim lost --{dest}"
            assert dest in live_actions, f"serve lost --{dest}"
            sim_action, live_action = sim_actions[dest], live_actions[dest]
            assert sim_action.option_strings == live_action.option_strings
            assert sim_action.choices == live_action.choices
            if dest != "network":
                assert sim_action.default == live_action.default, dest
        assert sim_actions["network"].default == "mnist"
        assert live_actions["network"].default == "tiny"

    def test_live_serve_smoke(self, capsys):
        assert (
            cli.main(
                [
                    "serve",
                    "--requests",
                    "64",
                    "--rate",
                    "20000",
                    "--max-batch",
                    "16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "live" in out
        assert "req/s" in out

    def test_live_serve_process_workers_take_any_zoo_network(self, capsys):
        argv = ["serve", "--workers", "process", "--network", "mlp"]
        argv += ["--requests", "16", "--rate", "4000", "--max-batch", "4"]
        assert cli.main(argv) == 0
        assert "req/s" in capsys.readouterr().out

    def test_listen_drains_in_flight_requests_on_ctrl_c(self):
        # The request's batch would wait out a 60 s coalescing window, so
        # only the shutdown drain can answer it before the process exits.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            metrics_port = probe.getsockname()[1]
        argv = ["serve", "--network", "tiny", "--listen", "127.0.0.1:0"]
        argv += ["--max-wait-us", "60000000", "--metrics-listen", f"127.0.0.1:{metrics_port}"]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            port = None
            for line in proc.stdout:
                found = re.search(r"serving tiny on 127\.0\.0\.1:(\d+)", line)
                if found:
                    port = int(found.group(1))
                    break
            assert port is not None, "server never reported its port"
            with socket.create_connection(("127.0.0.1", port), timeout=60) as client:
                request = {"id": 5, "image": [[0.5] * 12] * 12}
                client.sendall(json.dumps(request).encode() + b"\n")
                admitted = re.compile(r"^serve_requests_admitted_total\S* 1(\.0)?$", re.M)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    url = f"http://127.0.0.1:{metrics_port}/metrics"
                    with urllib.request.urlopen(url, timeout=10) as scrape:
                        if admitted.search(scrape.read().decode()):
                            break
                    time.sleep(0.05)
                proc.send_signal(signal.SIGINT)
                reply = json.loads(client.makefile("rb").readline())
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert reply["id"] == 5 and isinstance(reply["prediction"], int)
        assert "stopped" in out
        # The client is still connected at exit: its handler must end
        # before the loop closes, not be cancelled mid-read.
        assert "Traceback" not in err, err

    def test_live_serve_rejects_pipeline(self, capsys):
        assert cli.main(["serve", "--pipeline", "--requests", "8"]) == 2
        assert "pipeline" in capsys.readouterr().err


class TestCompileCommand:
    def test_compiles_zoo_network(self, capsys):
        assert cli.main(["compile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out
        assert "cycles" in out

    def test_checks_golden_equivalence(self, capsys):
        assert cli.main(["compile", "tiny", "--check", "--check-images", "2"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_json_dump_round_trips(self, tmp_path, capsys):
        from repro.compiler import program_from_json

        path = tmp_path / "tiny.json"
        assert cli.main(["compile", "tiny", "--json", str(path)]) == 0
        program = program_from_json(path.read_text())
        assert program.num_instructions > 0

    def test_compiles_graph_file(self, tmp_path, capsys):
        from repro.compiler import mlp_graph

        path = tmp_path / "mlp-graph.json"
        path.write_text(mlp_graph().to_json())
        assert cli.main(["compile", "--graph", str(path)]) == 0
        assert "GEMM" in capsys.readouterr().out

    def test_graph_file_cannot_be_checked(self, tmp_path, capsys):
        from repro.compiler import mlp_graph

        path = tmp_path / "mlp-graph.json"
        path.write_text(mlp_graph().to_json())
        assert cli.main(["compile", "--graph", str(path), "--check"]) == 2
        assert "golden" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, capsys):
        assert cli.main(["compile"]) == 2
        capsys.readouterr()

    def test_malformed_graph_file_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["compile", "--graph", str(path)]) == 2
        assert capsys.readouterr().err

    def test_serve_sim_accepts_zoo_network(self, capsys):
        assert (
            cli.main(
                [
                    "serve-sim",
                    "--network",
                    "mlp",
                    "--requests",
                    "8",
                    "--rate",
                    "2000",
                ]
            )
            == 0
        )
        assert "req/s" in capsys.readouterr().out
