"""Per-compiled-layer wall time beside the modeled CapsAcc cycles.

Runs batches through a compiled network's stream executor with its
accelerator GEMM entry points (timed by job name, mapped to the
instruction's layer) and activation functions wrapped, so each layer's
measured milliseconds sit next to the cycles ``BatchResult.layers``
models for it (the paper's Fig 16/17 split).  Time the wrappers do not
cover (requantize, im2col, layout) is reported as ``other``.
"""

from __future__ import annotations

import statistics
import time

from spans import SpanRecorder

#: Layer buckets reported as ``layer.<name>.ms``; routing iterations keep
#: their own GEMM layers, activations are pooled by kind.
MS_LAYERS = (
    "conv1",
    "primarycaps",
    "classcaps_fc",
    "sum1",
    "sum2",
    "sum3",
    "update1",
    "update2",
    "softmax",
    "squash",
    "relu",
    "norm",
    "other",
)
#: Buckets with modeled cycles (``layer.<name>.kcycles``); the final
#: length readout and layout work are not charged by the cycle model.
KCYCLE_LAYERS = tuple(name for name in MS_LAYERS if name not in ("norm", "other"))
ACTIVATIONS = ("relu", "squash", "softmax", "norm")
GEMM_OPCODES = ("GEMM", "GROUPED_GEMM")


def layer_maps(program) -> tuple[dict[str, str], dict[str, str]]:
    """``(job name -> GEMM layer, layer -> activation bucket)`` of a program."""
    jobs: dict[str, str] = {}
    activations: dict[str, str] = {}
    for instr in program.instructions:
        opcode = instr.opcode.name
        if opcode in GEMM_OPCODES:
            jobs[instr.attrs["job"]] = instr.layer
        elif opcode in ("RELU", "SQUASH", "SOFTMAX") and instr.layer is not None:
            activations[instr.layer] = opcode.lower()
    return jobs, activations


def uncovered_layers(program) -> list[str]:
    """Compiled layers of ``program`` that no named bucket reports."""
    jobs, activations = layer_maps(program)
    missing = {layer for layer in jobs.values() if layer not in MS_LAYERS}
    missing |= {
        bucket for bucket in activations.values() if bucket not in KCYCLE_LAYERS
    }
    return sorted(missing)


def modeled_kcycles(program, layers) -> dict[str, float]:
    """Modeled kilocycles per bucket from one batch's ``BatchResult.layers``."""
    _, activations = layer_maps(program)
    cycles = dict.fromkeys(KCYCLE_LAYERS, 0)
    for name, report in layers.items():
        activation = report.stats.activation_cycles
        gemm = report.overlapped_cycles - activation
        if gemm:
            cycles[name] += gemm
        if activation:
            cycles[activations[name]] += activation
    return {name: value / 1e3 for name, value in cycles.items()}


def profile_engine(compiled, images, batches: int, served_execute) -> dict:
    """Profile ``batches`` timed batches of ``images`` (after one warm-up).

    ``served_execute(images)`` runs the same batch on the executor that
    serves the network, for the compiled-over-served parity ratio.
    Returns the ``layer.*``, ``engine.gemm_calls`` and
    ``engine.compiled_over_served`` metrics plus any skipped wrappers.
    """
    from repro.compiler.executor import StreamExecutor

    executor = StreamExecutor(
        compiled.program, compiled.params, compiled.formats, luts=compiled.luts
    )
    jobs, _ = layer_maps(compiled.program)
    recorder = SpanRecorder()
    job_name = lambda args, kwargs, result: args[0].name  # noqa: E731
    recorder.wrap(executor.accelerator, "run_batched_gemm", "gemm", info=job_name)
    recorder.wrap(executor.accelerator, "run_grouped_gemm", "gemm", info=job_name)
    for kind in ACTIVATIONS:
        recorder.wrap(executor.activation, kind, kind)

    recorder.enabled = False
    result = executor.run_batch(images)  # warm-up: lazy buffers, ROM tables
    served_execute(images)
    recorder.enabled = True

    totals: list[float] = []
    served: list[float] = []
    per_layer = {name: [] for name in MS_LAYERS}
    gemm_calls: list[int] = []
    for _ in range(batches):
        # Alternate the two engines so drift in host speed hits both alike.
        start = time.perf_counter()
        served_execute(images)
        served.append(time.perf_counter() - start)
        recorder.spans.clear()
        start = time.perf_counter()
        result = executor.run_batch(images)
        total = time.perf_counter() - start
        totals.append(total)
        sums = dict.fromkeys(MS_LAYERS, 0.0)
        calls = 0
        for _, name, begin, end, parent, info in recorder.spans:
            if parent != -1:
                continue  # self time only: a nested span is inside its parent's
            if name == "gemm":
                calls += 1
                sums[jobs.get(info, "other")] += end - begin
            else:
                sums[name] += end - begin
        sums["other"] += total - sum(sums.values())
        for name, value in sums.items():
            per_layer[name].append(value)
        gemm_calls.append(calls)

    metrics = {
        f"layer.{name}.ms": statistics.median(values) * 1e3
        for name, values in per_layer.items()
    }
    for name, value in modeled_kcycles(compiled.program, result.layers).items():
        metrics[f"layer.{name}.kcycles"] = value
    metrics["engine.gemm_calls"] = statistics.median(gemm_calls)
    metrics["engine.compiled_over_served"] = statistics.median(totals) / statistics.median(
        served
    )
    return {"metrics": metrics, "skipped": recorder.skipped}
