"""The benchmark's workloads: set-up, measured load, checks and layer metrics.

Both workloads serve real predictions through ``ServingRuntime`` and the
engine that ``repro serve`` picks.  Each puts most of its time in a
different layer, so an optimisation has a workload that shows it and one
that should not move:

* ``mnist-closed`` — engine bound (the paper's network, batches of 16);
* ``tiny-socket`` — JSONL socket front end and the per-request runtime
  path, from a separate client process.

Every function here times calls into the program's public surface from
outside; the program is never edited for the benchmark.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from engine_profile import profile_engine
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))

#: Workload parameters (why each workload exists is in BENCHMARK.json).
WORKLOADS = {
    "mnist-closed": {
        "block": 16,
        "kind": "closed",
        "network": "mnist",
        "clients": 32,
        "max_batch": 16,
        "arrays": 1,
        "pool": 16,
    },
    "tiny-socket": {
        "block": 64,
        "kind": "socket",
        "network": "tiny",
        "connections": 2,
        "window": 16,
        "max_batch": 16,
        "arrays": 1,
        "pool": 64,
    },
}

#: Pixel size of each network's input (the benchmark builds its own inputs
#: without touching the program, so compile cost stays inside set-up).
IMAGE_SIZE = {"mnist": 28, "tiny": 12}
#: Coalescing wait of the ``fifo`` preset (``serve``/``serve-sim`` default).
MAX_WAIT_US = 2000.0
#: Timed batches of the per-layer engine profile.
PROFILE_BATCHES = {"mnist": 3, "tiny": 20}


# ---- inputs ------------------------------------------------------------------


def make_pool(spec: dict, seed: int) -> np.ndarray:
    """The workload's image pool, generated from ``seed``.

    Synthetic digits take minutes for tens of thousands of images, so a
    small pool is generated once and requests cycle through it.
    """
    from repro.data.synthetic import SyntheticDigits

    size = IMAGE_SIZE[spec["network"]]
    rng = np.random.default_rng(seed)
    return SyntheticDigits(size=size, rng=rng).generate(spec["pool"]).images


def golden_predictions(compiled, pool: np.ndarray) -> np.ndarray:
    """Per-image predictions of the quantized golden model."""
    return compiled.qnet.predict_batch(pool)


# ---- program set-up ----------------------------------------------------------


def serving_executor(compiled):
    """The executor ``repro serve`` uses for ``compiled``.

    The batched engine serves plain single-channel CapsNets; everything
    else, and every network once that engine is gone, runs the compiled
    instruction stream.
    """
    from repro.serve import workers

    plain_capsnet = (
        compiled.qnet is not None
        and "res_w" not in compiled.params
        and compiled.input_shape[0] == 1
    )
    inline = getattr(workers, "InlineEngineExecutor", None)
    if plain_capsnet and inline is not None:
        return inline(compiled.config)
    return workers.CompiledStreamExecutor(compiled)


async def live_setup(spec: dict, pool: np.ndarray) -> dict:
    """Compile, build the executor, calibrate, start serving, warm up.

    Everything here is program-side set-up and is timed as ``setup_s``.
    """
    from repro.compiler.zoo import get_network
    from repro.hw.config import AcceleratorConfig
    from repro.serve.policies import ServerConfig
    from repro.serve.runtime import MeasuredBatchCost, ServingRuntime

    max_batch = spec["max_batch"]
    start = time.perf_counter()
    compiled = get_network(spec["network"])
    compile_s = time.perf_counter() - start
    executor = serving_executor(compiled)
    sizes = [s for s in (1, 2, 4, 8, 16, 32, 64, 128, 256) if s <= max_batch]
    calibrate_start = time.perf_counter()
    cost = MeasuredBatchCost.calibrate(
        executor, pool, sizes=sizes, config=AcceleratorConfig()
    )
    calibrate_s = time.perf_counter() - calibrate_start
    server = ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=max_batch,
        max_wait_us=MAX_WAIT_US,
        arrays=spec["arrays"],
        network_name=spec["network"],
    )
    runtime = ServingRuntime(server, executor=executor)
    socket_server = None
    if spec["kind"] == "socket":
        socket_server = await runtime.serve_socket("127.0.0.1", 0)
    warmup = await asyncio.gather(
        *(runtime.submit(pool[i % len(pool)]) for i in range(max_batch))
    )
    setup_s = time.perf_counter() - start
    return {
        "compiled": compiled,
        "executor": executor,
        "runtime": runtime,
        "socket_server": socket_server,
        "warmup": [(i % len(pool), prediction) for i, prediction in enumerate(warmup)],
        "timings": {
            "setup_s": setup_s,
            "compile_s": compile_s,
            "calibrate_s": calibrate_s,
        },
    }


async def live_teardown(state: dict) -> None:
    """Close the socket server, drain and stop the runtime."""
    socket_server = state["socket_server"]
    if socket_server is not None:
        socket_server.close()
        await socket_server.wait_closed()
    await state["runtime"].stop()


def setup_only(name: str, seed: int) -> dict:
    """One full set-up and teardown; returns the set-up timings."""
    spec = WORKLOADS[name]
    pool = make_pool(spec, seed)

    async def once() -> dict:
        state = await live_setup(spec, pool)
        await live_teardown(state)
        return state["timings"]

    return asyncio.run(once())


# ---- measured load -----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def block_rate(done_s: list[float], block: int) -> float | None:
    """Median rate over consecutive blocks of ``block`` completions.

    A median over blocks keeps a burst of contention from other work on
    the host out of the figure; ``None`` when there are under 3 blocks.
    """
    done = sorted(done_s)
    rates = [
        block / (done[i + block] - done[i])
        for i in range(0, len(done) - block, block)
    ]
    return statistics.median(rates) if len(rates) >= 3 else None


def summarize(records: list, golden: np.ndarray, block: int) -> dict:
    """Counts, correctness, throughput and client-side latency of one phase.

    ``records`` hold ``(pool index, sent_s, rtt_s, outcome)``; an outcome
    is a prediction, ``"shed"`` or an error string.  A shed or failed
    request misses every latency limit, so it enters the percentiles as
    infinite latency.  Throughput is the median rate over blocks of
    ``block`` replies, or over the whole phase — first send to last
    reply — when the phase is too short for blocks.
    """
    served = [r for r in records if not isinstance(r[3], str)]
    shed = sum(1 for r in records if r[3] == "shed")
    wrong = [r for r in served if int(r[3]) != int(golden[r[0]])]
    latencies = [r[2] if not isinstance(r[3], str) else math.inf for r in records]
    done = [r[1] + r[2] for r in served]
    span_rps = (
        len(served) / (max(done) - min(r[1] for r in records)) if served else 0.0
    )
    blocks = block_rate(done, block)
    return {
        "attempted": len(records),
        "served": len(served),
        "shed": shed,
        "failed": len(records) - len(served) - shed,
        "wrong": len(wrong),
        "throughput_rps": span_rps if blocks is None else blocks,
        "span_rps": span_rps,
        "latency_p50_ms": percentile(latencies, 50) * 1e3 if records else math.inf,
        "latency_p90_ms": percentile(latencies, 90) * 1e3 if records else math.inf,
        "latency_samples": len(records),
    }


async def closed_loop(runtime, pool: np.ndarray, clients: int, seconds: float) -> list:
    """``clients`` in-process callers each awaiting ``submit`` in turn."""
    from repro.serve.runtime import RequestShedError
    from repro.serve.workers import WorkerCrashError

    records: list = []
    origin = time.perf_counter()
    stop_at = origin + seconds

    async def client(first: int) -> None:
        n = first
        while time.perf_counter() < stop_at:
            index = n % len(pool)
            n += clients
            sent = time.perf_counter()
            try:
                outcome = await runtime.submit(pool[index])
            except RequestShedError:
                outcome = "shed"
            except WorkerCrashError as error:
                outcome = f"failed: {error}"
            records.append((index, sent - origin, time.perf_counter() - sent, outcome))

    await asyncio.gather(*(client(c) for c in range(clients)))
    return records


async def socket_load(port: int, pool: np.ndarray, spec: dict, seconds: float) -> list:
    """Run the socket client process for ``seconds``; returns its records."""
    request = {
        "port": port,
        "seconds": seconds,
        "connections": spec["connections"],
        "window": spec["window"],
        "images": [json.dumps(image.tolist()) for image in pool],
    }
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        os.path.join(HERE, "socket_client.py"),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
    )
    try:
        out, _ = await asyncio.wait_for(
            process.communicate(json.dumps(request).encode()), seconds + 120.0
        )
    finally:
        if process.returncode is None:
            process.kill()
            await process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"socket client exited with {process.returncode}")
    return [
        (request_id % len(pool), sent, rtt, outcome)
        for request_id, sent, rtt, outcome in json.loads(out)["records"]
    ]


def instrument_runtime(recorder: SpanRecorder, runtime) -> None:
    """Wrap the runtime layers the per-layer metrics read."""
    engine = runtime.engine
    recorder.wrap(engine, "offer", "runtime.offer", info=lambda a, k, r: r[0])
    recorder.wrap(engine, "dispatch_ready", "runtime.dispatch")
    recorder.wrap(engine, "complete", "runtime.complete")
    recorder.wrap(runtime, "submit", "runtime.submit")
    recorder.wrap(runtime.executor, "execute", "engine.execute", info=lambda a, k, r: len(a[1]))


def mean_us(recorder: SpanRecorder, name: str, since: float) -> float:
    durations = recorder.durations(name, since)
    return statistics.fmean(durations) * 1e6 if durations else 0.0


def live_layer_metrics(result: dict, phase: dict, spec: dict) -> dict:
    """Runtime, wait-split, socket and engine metrics of the traced phase."""
    recorder = result["recorder"]
    since = result["traced_since"]
    wall_s = result["traced_wall_s"]
    executes = recorder.select("engine.execute", since)
    execute_s = [end - start for _, _, start, end, _, _ in executes]
    images = sum(size for *_, size in executes)
    submits = recorder.durations("runtime.submit", since)
    served = [
        r for r in result["report"].served if r.arrival_us >= result["traced_since_us"]
    ]
    metrics = {
        "runtime.admit_us": mean_us(recorder, "runtime.offer", since),
        "runtime.dispatch_us": mean_us(recorder, "runtime.dispatch", since),
        "runtime.complete_us": mean_us(recorder, "runtime.complete", since),
        "runtime.batch_size_mean": images / len(executes) if executes else 0.0,
        "runtime.batching_wait_ms_p50": (
            statistics.median(r.batching_us for r in served) / 1e3 if served else 0.0
        ),
        "runtime.queueing_wait_ms_p50": (
            statistics.median(r.queueing_us for r in served) / 1e3 if served else 0.0
        ),
        "runtime.submit_ms_p50": statistics.median(submits) * 1e3 if submits else 0.0,
        "socket.overhead_ms_p50": 0.0,
        "socket.server_inflight_mean": 0.0,
        "engine.execute_ms": statistics.fmean(execute_s) * 1e3 if execute_s else 0.0,
        "engine.us_per_image": sum(execute_s) / images * 1e6 if images else 0.0,
        "engine.busy_frac": sum(execute_s) / (wall_s * spec["arrays"]),
    }
    if spec["kind"] == "socket":
        metrics["socket.overhead_ms_p50"] = (
            phase["latency_p50_ms"] - metrics["runtime.submit_ms_p50"]
        )
        # Little's law over the server-side submit spans.
        metrics["socket.server_inflight_mean"] = sum(submits) / wall_s
    return metrics


async def run_live(spec: dict, pool: np.ndarray, seconds: float, trace: bool) -> dict:
    """Set up, drive the load, tear down; a traced run splits the time
    into a plain phase and an instrumented one."""
    state = await live_setup(spec, pool)
    runtime = state["runtime"]

    async def phase(length: float) -> list:
        if spec["kind"] == "socket":
            port = state["socket_server"].sockets[0].getsockname()[1]
            return await socket_load(port, pool, spec, length)
        return await closed_loop(runtime, pool, spec["clients"], length)

    result = {"state": state, "phases": []}
    try:
        plain_s = seconds / 2 if trace else seconds
        result["phases"].append(await phase(plain_s))
        if trace:
            recorder = SpanRecorder()
            instrument_runtime(recorder, runtime)
            since = time.perf_counter()
            result["traced_since_us"] = runtime.clock.now_us()
            result["phases"].append(await phase(seconds / 2))
            result["recorder"] = recorder
            result["traced_since"] = since
            result["traced_wall_s"] = time.perf_counter() - since
            recorder.restore()
        result["report"] = runtime.report()
    finally:
        await live_teardown(state)
    return result


def report_counts(report) -> dict:
    """The request and batch counts of a serving report."""
    return {
        field: getattr(report, field)
        for field in ("offered", "completed", "shed_count", "failed_count", "batch_count")
    }


def conservation(counts: dict, attempted: int) -> list[str]:
    """attempted = served + shed + failed, on the report and vs the caller."""
    problems = []
    offered = counts["offered"]
    total = counts["completed"] + counts["shed_count"] + counts["failed_count"]
    if offered != total:
        problems.append(f"report offered {offered} != served+shed+failed {total}")
    if offered != attempted:
        problems.append(f"report offered {offered} != attempted {attempted}")
    return problems


def live_checks(
    result: dict, golden: np.ndarray, block: int
) -> tuple[list[str], list[dict]]:
    """Golden predictions, client counts vs the runtime report; returns
    the problems found and each phase's summary."""
    phases = [summarize(records, golden, block) for records in result["phases"]]
    problems = []
    warmup = result["state"]["warmup"]
    wrong_warmup = sum(1 for index, pred in warmup if int(pred) != int(golden[index]))
    for number, summary in enumerate(phases):
        if summary["wrong"]:
            problems.append(f"phase {number}: {summary['wrong']} wrong predictions")
    if wrong_warmup:
        problems.append(f"{wrong_warmup} wrong warm-up predictions")
    report = result["report"]
    attempted = len(warmup) + sum(p["attempted"] for p in phases)
    counts = report_counts(report)
    problems += conservation(counts, attempted)
    for field, key in (("shed_count", "shed"), ("failed_count", "failed")):
        client = sum(p[key] for p in phases)
        if counts[field] != client:
            problems.append(f"report {field}={counts[field]} != client {client}")
    return problems, phases


def profile_layers(spec: dict, compiled, pool: np.ndarray) -> dict:
    """Layer profile at the workload's batch size (cycling the pool)."""
    batch = np.ascontiguousarray(
        pool[np.arange(spec["max_batch"]) % len(pool)]
    )
    served = serving_executor(compiled)
    try:
        return profile_engine(
            compiled,
            batch,
            PROFILE_BATCHES[spec["network"]],
            lambda images: served.execute(0, images),
        )
    finally:
        served.close()
