"""Compiled accounting is pinned by a checked-in golden fixture.

``fixtures/zoo_accounting.json`` records the closed-form accounting of
every zoo network's compiled program, plus the tiny CapsNet with
unoptimized routing, at batch 1, 2 and 3:

* the batch's sequential and double-buffered totals
  (:func:`~repro.compiler.cost.program_batch_cycles`);
* per layer, in stream order: jobs, double-buffered cycles and the
  sequential :class:`~repro.hw.stats.CycleStats`, buffer accesses included
  (:func:`~repro.compiler.cost.program_layers`);
* a sha256 of the trace event sequence
  (:func:`~repro.compiler.cost.program_events`);

and, for tiny, mlp and mnist, the pipelined schedule of seven batches of
two (:func:`~repro.compiler.cost.program_stream_timing`).  An executed
tiny and MNIST batch of two must report the fixture's layers and totals.

The fixture holds accounting only: output numerics are pinned by the
independent golden interpreter (``TestGoldenEquivalence``).  A mismatch
names the network, batch, layer and field.  Regenerating the fixture is a
reviewed change — update :data:`FIXTURE_HEADER`, then run::

    PYTHONPATH=src python -m tests.compiler.test_accounting_fixture
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.capsnet.config import tiny_capsnet_config
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import (
    program_batch_cycles,
    program_events,
    program_layers,
    program_stream_timing,
)
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import compile_qnet, get_network, zoo_names
from repro.hw.config import AcceleratorConfig
from tests.compiler.conftest import zoo_images

FIXTURE = Path(__file__).parent / "fixtures" / "zoo_accounting.json"

FIXTURE_HEADER = {
    "produced_at": "commit 48771da (Paper-dataflow fast engine)",
    "provenance": (
        "At that commit the compiled streams of tiny (optimized and"
        " unoptimized routing) and mnist matched the hand-written CapsNet"
        " lowering exactly: outputs, per-layer stats, totals and trace."
    ),
    "regenerate": (
        "Regenerating this file is a reviewed change: a diff here means the"
        " lowering or the cycle model changed. Run"
        " `PYTHONPATH=src python -m tests.compiler.test_accounting_fixture`."
    ),
}

UNOPTIMIZED = "tiny-unoptimized"
NETWORKS = zoo_names() + (UNOPTIMIZED,)
BATCHES = (1, 2, 3)
STREAM_NETWORKS = ("tiny", "mlp", "mnist")
STREAM_SIZES = [2] * 7
EXECUTED_NETWORKS = ("tiny", "mnist")
EXECUTED_BATCH = 2


def _network(name: str):
    if name == UNOPTIMIZED:
        qnet = QuantizedCapsuleNet(tiny_capsnet_config(), optimized_routing=False)
        return compile_qnet(qnet, name=UNOPTIMIZED)
    return get_network(name)


def _layer_record(report) -> dict:
    return {
        "jobs": report.jobs,
        "overlapped_cycles": report.overlapped_cycles,
        "stats": dataclasses.asdict(report.stats),
    }


def _events_sha256(events) -> str:
    payload = json.dumps([dataclasses.asdict(event) for event in events], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def batch_accounting(config: AcceleratorConfig, program, batch: int) -> dict:
    """One fixture entry: a program's closed-form accounting at one batch."""
    return {
        "batch_cycles": program_batch_cycles(config, program, batch),
        "layers": {
            name: _layer_record(report)
            for name, report in program_layers(config, program, batch).items()
        },
        "events_sha256": _events_sha256(program_events(config, program, batch)),
    }


def stream_accounting(config: AcceleratorConfig, program) -> dict:
    timing = program_stream_timing(config, program, STREAM_SIZES)
    return {
        "sizes": STREAM_SIZES,
        "finish_cycles": [batch.finish_cycle for batch in timing.batches],
        "steady_marginal_cycles": timing.steady_marginal_cycles,
    }


def build_fixture() -> dict:
    """The whole fixture, computed from the current code."""
    config = AcceleratorConfig()
    return {
        "header": FIXTURE_HEADER,
        "accounting": {
            name: {
                str(batch): batch_accounting(config, _network(name).program, batch)
                for batch in BATCHES
            }
            for name in NETWORKS
        },
        "stream": {
            name: stream_accounting(config, _network(name).program)
            for name in STREAM_NETWORKS
        },
    }


def mismatches(got, want, where: str) -> list[str]:
    """Every differing leaf between two records, as ``where: path`` lines."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in want:
            out += mismatches(got[key], want[key], f"{where}.{key}")
        return out
    if got != want:
        return [f"{where}: got {got!r}, want {want!r}"]
    return []


def _describe(network: str, batch: int, record: dict, want: dict) -> list[str]:
    where = f"{network} batch {batch}"
    out = mismatches(record["batch_cycles"], want["batch_cycles"], f"{where} batch_cycles")
    if list(record["layers"]) != list(want["layers"]):
        out.append(f"{where}: layers {list(record['layers'])} != {list(want['layers'])}")
    else:
        for layer, entry in want["layers"].items():
            out += mismatches(record["layers"][layer], entry, f"{where} layer {layer}")
    if "events_sha256" in record and record["events_sha256"] != want["events_sha256"]:
        out.append(f"{where}: events_sha256 differs (trace event sequence changed)")
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("network", NETWORKS)
def test_program_accounting_matches_fixture(golden, network, batch):
    record = batch_accounting(AcceleratorConfig(), _network(network).program, batch)
    want = golden["accounting"][network][str(batch)]
    problems = _describe(network, batch, record, want)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("network", STREAM_NETWORKS)
def test_stream_timing_matches_fixture(golden, network):
    record = stream_accounting(AcceleratorConfig(), _network(network).program)
    problems = mismatches(record, golden["stream"][network], f"{network} stream")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("network", EXECUTED_NETWORKS)
def test_executed_batch_reports_fixture_accounting(golden, network):
    result = StreamExecutor.for_network(_network(network)).run_batch(
        zoo_images(network, count=EXECUTED_BATCH)
    )
    record = {
        "batch_cycles": {
            "sequential": result.total_cycles,
            "overlapped": result.overlapped_cycles,
        },
        "layers": {name: _layer_record(report) for name, report in result.layers.items()},
    }
    want = golden["accounting"][network][str(EXECUTED_BATCH)]
    problems = _describe(network, EXECUTED_BATCH, record, want)
    assert not problems, "\n".join(problems)


def test_fixture_covers_the_zoo(golden):
    assert set(golden["accounting"]) == set(NETWORKS)
    assert set(golden["stream"]) == set(STREAM_NETWORKS)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_fixture(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
