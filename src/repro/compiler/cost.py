"""Closed-form pricing of compiled programs.

A :class:`~repro.compiler.isa.Program` stamps every array/activation
instruction with its per-image work shape, so a program can be priced for
any batch size without executing it.  This is also where
:class:`~repro.compiler.executor.StreamExecutor` takes the accounting it
reports, so pricing and execution agree by construction:

* :func:`program_events` lists the batch's array jobs and recorded
  activations in stream order, as :class:`~repro.hw.report.TraceEvent` records;
* :func:`program_layers` gives the per-layer reports
  (``BatchResult.layers``);
* :func:`program_batch_cycles` gives the batch's sequential and
  double-buffered totals (``BatchResult.total_cycles`` /
  ``.overlapped_cycles``);
* :func:`program_stats` gives the summed :class:`~repro.hw.stats.CycleStats`
  including buffer access counts (``BatchResult.total_stats``) — the
  energy model's activity input;
* :func:`program_transfer_cycles` prices the bulk buffer transfers the
  routing lowering stamps as ``transfer_words``; the paper figures add
  them to :func:`program_layers`, serving does not charge them;
* :func:`program_ops` / :func:`program_stream_timing` expand the events
  into :mod:`repro.hw.pipeline` op timelines and price the cross-batch
  pipelined stream schedule.

This is what makes networks data: serving admission, sweeps and the energy
model all price zoo networks from their compiled streams, with no
network-specific scheduling code anywhere downstream.
"""

from __future__ import annotations

from typing import Sequence

from repro.compiler.isa import Opcode, Program
from repro.hw.accelerator import gemm_cycles, gemm_stats, plan_tiling
from repro.hw.activation import ActivationMode, batched_activation_latency
from repro.hw.config import AcceleratorConfig
from repro.hw.pipeline import (
    DEFAULT_PRESTAGE_DEPTH,
    DEFAULT_WINDOW,
    PipelineOp,
    StreamTiming,
    activation_op,
    cached_stream_timing,
    job_ops,
)
from repro.hw.report import LayerReport, TraceEvent
from repro.hw.stats import CycleStats

_ACTIVATION_MODES = {
    Opcode.RELU: ActivationMode.RELU,
    Opcode.SQUASH: ActivationMode.SQUASH,
    Opcode.SOFTMAX: ActivationMode.SOFTMAX,
}


def _activation_cycles(
    config: AcceleratorConfig, opcode: Opcode, n: int, groups: int
) -> int:
    mode = _ACTIVATION_MODES[opcode]
    units = config.cols if mode is ActivationMode.RELU else 1
    return batched_activation_latency(mode, n, groups, units)


def program_events(
    config: AcceleratorConfig, program: Program, batch: int
) -> list[TraceEvent]:
    """A batch-``B`` execution's array jobs and activations, in order."""
    events: list[TraceEvent] = []
    for instr in program.instructions:
        attrs = instr.attrs
        if instr.opcode is Opcode.GEMM:
            events.append(
                TraceEvent(
                    kind="gemm",
                    name=instr.layer,
                    plan=plan_tiling(config, batch * attrs["m"], attrs["k"], attrs["n"]),
                    groups=1,
                )
            )
        elif instr.opcode is Opcode.GROUPED_GEMM:
            events.append(
                TraceEvent(
                    kind="gemm",
                    name=instr.layer,
                    plan=plan_tiling(config, attrs["m"], attrs["k"], attrs["n"]),
                    groups=batch * attrs["groups"],
                    weight_source=attrs["weight_source"],
                )
            )
        elif instr.opcode in _ACTIVATION_MODES and attrs.get("record", True):
            events.append(
                TraceEvent(
                    kind="activation",
                    name=instr.layer,
                    cycles=_activation_cycles(
                        config, instr.opcode, attrs["n"], batch * attrs["groups"]
                    ),
                )
            )
    return events


def program_layers(
    config: AcceleratorConfig, program: Program, batch: int
) -> dict[str, LayerReport]:
    """Per-layer accounting of one batch (``BatchResult.layers``), in closed form.

    Array instructions book their job's sequential stats and
    double-buffered cycles under their ``layer``; recorded activations
    book the Section IV-C latencies over ``B * groups`` arrays; layout
    and bookkeeping instructions are free.  Layers appear in the order
    the stream first charges them.
    """
    layers: dict[str, LayerReport] = {}
    for instr in program.instructions:
        attrs = instr.attrs
        if instr.opcode is Opcode.GEMM:
            plan = plan_tiling(config, batch * attrs["m"], attrs["k"], attrs["n"])
            count = 1
            sources = ("data_buffer", "weight_buffer")
        elif instr.opcode is Opcode.GROUPED_GEMM:
            plan = plan_tiling(config, attrs["m"], attrs["k"], attrs["n"])
            count = batch * attrs["groups"]
            sources = (attrs["data_source"], attrs["weight_source"])
        elif instr.opcode in _ACTIVATION_MODES and attrs.get("record", True):
            cycles = _activation_cycles(
                config, instr.opcode, attrs["n"], batch * attrs["groups"]
            )
            report = layers.setdefault(instr.layer, LayerReport(name=instr.layer))
            report.stats.activation_cycles += cycles
            report.stats.total_cycles += cycles
            report.overlapped_cycles += cycles
            continue
        else:
            continue
        report = layers.setdefault(instr.layer, LayerReport(name=instr.layer))
        report.stats = report.stats + gemm_stats(config, plan, *sources, count)
        report.overlapped_cycles += (
            count * gemm_cycles(config, plan.m, plan.k, plan.n, overlap=True)["total"]
        )
        report.jobs += 1
    return layers


def program_batch_cycles(
    config: AcceleratorConfig, program: Program, batch: int
) -> dict[str, int]:
    """Sequential and double-buffered totals of one batch, in closed form.

    ``overlapped`` equals ``BatchResult.overlapped_cycles`` and
    ``sequential`` equals ``BatchResult.total_cycles`` of an actual
    execution of the same program at the same batch size.
    """
    layers = program_layers(config, program, batch).values()
    return {
        "sequential": sum(report.stats.total_cycles for report in layers),
        "overlapped": sum(report.overlapped_cycles for report in layers),
    }


def program_checksum_cycles(
    config: AcceleratorConfig, program: Program, batch: int
) -> int:
    """Cycles the ABFT checksum layer adds to one batch, in closed form.

    Per ``GEMM``/``GROUPED_GEMM``: recompute the weight column checksum
    (``k·n`` adds), fold the data rows against it (``m·k`` adds) and
    verify the accumulator row sums (``m·n`` adds) — the standard
    Huang–Abraham overhead of one extra checksum row/column per tile,
    streamed through the array's full ``rows × cols`` MAC fabric like
    any other tile pass.  This is the explicit integrity-overhead knob
    the serving cost models price in when a server arms ``checksum``
    mode; it stays a single-digit percentage of the GEMM's own
    ``m·k·n`` work on the paper networks.
    """
    fabric = max(config.rows * config.cols, 1)
    total = 0
    for instr in program.instructions:
        attrs = instr.attrs
        if instr.opcode is Opcode.GEMM:
            m, k, n = batch * attrs["m"], attrs["k"], attrs["n"]
            total += -(-(m * k + k * n + m * n) // fabric)
        elif instr.opcode is Opcode.GROUPED_GEMM:
            m, k, n = attrs["m"], attrs["k"], attrs["n"]
            count = batch * attrs["groups"]
            total += count * -(-(m * k + k * n + m * n) // fabric)
    return total


def program_stats(
    config: AcceleratorConfig, program: Program, batch: int
) -> CycleStats:
    """Summed sequential :class:`CycleStats` (``BatchResult.total_stats``).

    The cycle breakdown, MAC count and buffer access counts of
    :func:`program_layers`, summed over layers.
    """
    total = CycleStats()
    for report in program_layers(config, program, batch).values():
        total = total + report.stats
    return total


def program_transfer_cycles(
    config: AcceleratorConfig, program: Program, batch: int
) -> dict[str, int]:
    """Bus cycles of each layer's bulk buffer transfers, in stream order.

    ``ceil(B * transfer_words / data_bus_words)`` per stamped instruction;
    each stamp names a layer of its own (at most one per layer).
    """
    return {
        instr.layer: -(-batch * instr.attrs["transfer_words"] // config.data_bus_words)
        for instr in program.instructions
        if instr.attrs.get("transfer_words")
    }


#: Op timelines per ``(id(program), accelerator config, batch)``, shared
#: by every pricing path.  :func:`~repro.hw.pipeline.cached_stream_timing`
#: keys on list identity, so a rebuilt cost model or scheduler must get the
#: same list back; each entry pins its program, so an id is never recycled.
_PROGRAM_OPS: dict[tuple, tuple[Program, list[PipelineOp]]] = {}


def program_ops(
    config: AcceleratorConfig, program: Program, batch: int
) -> list[PipelineOp]:
    """One batch's pipeline op timeline, tile for tile (shape-driven).

    Memoized module-wide; the returned list is shared and must not be
    mutated.
    """
    key = (id(program), config, batch)
    entry = _PROGRAM_OPS.get(key)
    if entry is None:
        ops: list[PipelineOp] = []
        for event in program_events(config, program, batch):
            if event.kind == "gemm":
                ops.extend(
                    job_ops(
                        config,
                        event.plan,
                        groups=event.groups,
                        weight_source=event.weight_source,
                        layer=event.name,
                    )
                )
            else:
                ops.append(activation_op(event.cycles, layer=event.name))
        entry = _PROGRAM_OPS[key] = (program, ops)
    return entry[1]


def program_stream_timing(
    config: AcceleratorConfig,
    program: Program,
    batch_sizes: Sequence[int],
    window: int = DEFAULT_WINDOW,
    prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
) -> StreamTiming:
    """Pipelined stream schedule for a sequence of batches of one program."""
    ops = [program_ops(config, program, size) for size in batch_sizes]
    return cached_stream_timing(
        ops, list(batch_sizes), window=window, prestage_depth=prestage_depth
    )


def program_steady_cycles(
    config: AcceleratorConfig,
    program: Program,
    batch: int,
    stream_length: int = 7,
    window: int = DEFAULT_WINDOW,
    prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
) -> int:
    """Steady-state marginal cycles of one batch in a homogeneous stream."""
    timing = program_stream_timing(
        config,
        program,
        [batch] * max(6, stream_length),
        window=window,
        prestage_depth=prestage_depth,
    )
    return timing.steady_marginal_cycles
