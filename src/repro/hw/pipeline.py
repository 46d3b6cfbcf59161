"""Stream-level cross-batch pipeline timing model.

The batched engine (:class:`~repro.compiler.executor.StreamExecutor`) drains
the array at every batch boundary: each batch pays its own cold conv1 weight
load, and the array idles through the routing phase's long activation
passes.  This module models the *stream* schedule that removes both
drains — the control-unit upgrade the paper's data-reuse architecture
makes possible:

* **Weight prestaging** — the Weight2 staging register (paper Fig 11b)
  generalizes to a small prestage FIFO of ``prestage_depth`` tiles
  (default :data:`DEFAULT_PRESTAGE_DEPTH`; depth 1 *is* the single
  Weight2 register).  Loads stream through the weight port in issue
  order and hide under earlier tiles' streams.  The stream schedule is
  static (shapes fix the tile order), so the control unit always knows
  which tiles to prestage — across job, layer, and *batch* boundaries,
  not just inside one GEMM.  A 16x16 8-bit tile is 256 bytes, so the
  default four-deep FIFO adds ~1 KB of staging storage.
* **Cross-batch overlap** — up to ``window`` batches are in flight.  Each
  batch's stages still execute in their serial dependency order, but the
  PE array is a shared resource: while batch *i* sits in an activation
  pass (squash / softmax run in the per-column activation units, paper
  Fig 11d), the array streams batch *i+1*'s convolution tiles.  At the
  batch boundary, batch *i+1*'s conv1 tiles prestage under batch *i*'s
  routing tail, so steady-state throughput is bounded by the busiest
  resource — ``max(load, compute)``-style — instead of their sum.

Three resources are modeled:

* the **PE array** (tile streams plus the exposed fill/drain of each
  accumulator M-pass — the bounded ``acc_fifo_depth`` pass structure is
  preserved tile for tile);
* the **weight port** (tile loads; one load in flight, and at most one
  tile prestaged ahead — the single Weight2 register);
* the **activation pipeline** (squash/softmax/ReLU passes, shared by the
  in-flight batches).

Dynamically produced weights — routing coefficients and squashed outputs
on the weight port — cannot be prestaged before their producer finishes;
those loads are *constrained* to the producing stage's completion.

Timing is memoized at two levels, because design-space sweeps and long
serving runs replay the same shapes thousands of times: expanded op
timelines are cached per ``(config, tiling plan, groups, weight source,
layer)`` (:func:`job_ops` is pure in those arguments), and whole stream
schedules are cached per ``(op-timeline sequence, images, window,
prestage depth)`` through :func:`cached_stream_timing`.  Cached results
are the *same* objects the first computation produced, so memoized
timelines are bit-identical to cold ones by construction (asserted in
tests); :func:`clear_timeline_caches` resets both caches.

Timing is computed by a deterministic list scheduler.  Activation passes
advance each batch's own serial chain (the per-column activation units
are far from saturated — tens of thousands of cycles per ~900k-cycle
batch — so cross-batch unit contention is neglected).  Tile grants
arbitrate by *array efficiency*: each candidate tile is scored by the
fraction of array-busy cycles it would add over the idle it would
expose, and the most efficient tile wins (the older batch on ties).
This is the policy a static-schedule control unit would compile: in
array-bound phases it degenerates to strict older-batch priority
(preserving the software-pipeline offset between in-flight batches); in
the weight-port-bound ClassCaps FC phase — nine load cycles per stream
cycle — it interleaves the younger batch's compute-dense convolution
tiles into the port stream instead of letting the array starve behind
one batch's FC loads.  Only *timing* lives here; results always come
from executing each batch, and do not depend on the stream schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig

#: Default number of batches kept in flight.  Two is the natural choice
#: for the paper's double-buffered datapath: one batch draining through
#: routing while the next streams its convolutions.
DEFAULT_WINDOW = 2

#: Default depth of the weight prestage FIFO, in tiles.  Depth 1 is the
#: paper's single Weight2 register; four tiles (~1 KB for a 16x16 8-bit
#: array) let loads run ahead when the schedule interleaves short-stream
#: tiles of one batch with compute-dense tiles of the next.
DEFAULT_PRESTAGE_DEPTH = 4


@dataclass(frozen=True)
class PipelineOp:
    """One atomic unit of scheduled work.

    ``kind`` is ``"tile"`` (a weight-tile load + its M-pass stream on the
    array) or ``"act"`` (an activation pass in the activation units).
    For tiles, ``load`` occupies the weight port, and ``cycles`` —
    the stream plus any exposed fill/drain — occupies the array.  For
    activation work, ``cycles`` occupies the activation pipeline and
    ``load`` is zero.  ``constrained`` marks tile loads whose weights are
    produced by the immediately preceding stage (routing coefficients,
    squashed outputs): they cannot be prestaged before that stage ends.
    """

    kind: str
    cycles: int
    load: int = 0
    constrained: bool = False
    layer: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("tile", "act"):
            raise ConfigError(f"unknown pipeline op kind {self.kind!r}")
        if self.cycles < 0 or self.load < 0:
            raise ConfigError("pipeline op cycles must be non-negative")


#: Expanded op timelines per (config, plan, groups, weight source, layer).
#: ``job_ops`` is pure in those arguments, so the cache is exact; entries
#: are shared lists — callers read (``extend``) but never mutate them.
_JOB_OPS_CACHE: dict[tuple, list[PipelineOp]] = {}

#: Stream schedules per (op-timeline tokens, images, window, prestage).
_STREAM_TIMING_CACHE: dict[tuple, StreamTiming] = {}

#: Identity tokens for op-timeline lists: ``id(ops) -> (token, ops)``.
#: The strong reference pins the list so its id cannot be recycled.
_OPS_TOKENS: dict[int, tuple[int, list]] = {}


def clear_timeline_caches() -> None:
    """Drop every memoized op timeline and stream schedule."""
    _JOB_OPS_CACHE.clear()
    _STREAM_TIMING_CACHE.clear()
    _OPS_TOKENS.clear()


def timeline_cache_stats() -> dict[str, int]:
    """Sizes of the module-level timeline caches (for tests/telemetry)."""
    return {
        "job_ops": len(_JOB_OPS_CACHE),
        "stream_timings": len(_STREAM_TIMING_CACHE),
        "ops_tokens": len(_OPS_TOKENS),
    }


def _ops_token(ops: list[PipelineOp]) -> int:
    """Small identity token for one op-timeline list (registry-pinned)."""
    entry = _OPS_TOKENS.get(id(ops))
    if entry is None or entry[1] is not ops:
        entry = (len(_OPS_TOKENS), ops)
        _OPS_TOKENS[id(ops)] = entry
    return entry[0]


def job_ops(
    config: AcceleratorConfig,
    plan,
    groups: int = 1,
    weight_source: str = "weight_buffer",
    layer: str = "",
) -> list[PipelineOp]:
    """Expand one GEMM job's :class:`~repro.hw.accelerator.TilingPlan`.

    Mirrors :func:`repro.hw.accelerator.gemm_cycles` tile for tile: each
    K-chunk load costs its active rows plus the latch edge, each tile
    streams the M-pass rows, and the last tile of every M-pass carries the
    pass's exposed fill/drain on the array.  Grouped jobs repeat the plan
    ``groups`` times.  Only the job's *first* tile is constrained when its
    weights are dynamically produced (``weight_source`` other than the
    weight buffer): once the producer has finished, every later tile of
    the job is known and prestages normally.

    The expansion is pure in its arguments and repeated for every batch
    of a stream, so results are memoized module-wide; the returned list
    is shared and must not be mutated.
    """
    if groups < 1:
        raise ConfigError("groups must be positive")
    key = (
        config,
        plan.m,
        plan.k,
        plan.n,
        plan.k_chunks,
        plan.n_tiles,
        tuple(plan.m_passes),
        groups,
        weight_source,
        layer,
    )
    cached = _JOB_OPS_CACHE.get(key)
    if cached is None:
        cached = _JOB_OPS_CACHE[key] = _expand_job_ops(
            config, plan, groups, weight_source, layer
        )
    return cached


def _expand_job_ops(
    config: AcceleratorConfig,
    plan,
    groups: int,
    weight_source: str,
    layer: str,
) -> list[PipelineOp]:
    from repro.hw.accelerator import chunk_sizes  # local: avoid cycle

    loads = [size + 1 for size in chunk_sizes(plan.k, config.rows)]
    drain = config.rows + config.cols - 1
    dynamic = weight_source != "weight_buffer"
    ops: list[PipelineOp] = []
    first = True
    for _ in range(groups):
        for pass_m in plan.m_passes:
            for n_tile in range(plan.n_tiles):
                for chunk, load in enumerate(loads):
                    last_of_pass = (
                        n_tile == plan.n_tiles - 1 and chunk == len(loads) - 1
                    )
                    ops.append(
                        PipelineOp(
                            kind="tile",
                            cycles=pass_m + (drain if last_of_pass else 0),
                            load=load,
                            constrained=first and dynamic,
                            layer=layer,
                        )
                    )
                    first = False
    return ops


def activation_op(cycles: int, layer: str = "") -> PipelineOp:
    """An activation (or bulk-transfer) pass outside the PE array."""
    return PipelineOp(kind="act", cycles=cycles, layer=layer)


@dataclass
class BatchTiming:
    """When one batch's work started and finished on the stream timeline."""

    index: int
    images: int
    #: First cycle any resource worked for this batch (a prestaged weight
    #: load may start well before the previous batch finishes).
    start_cycle: int = 0
    #: Cycle the batch's last op completed.
    finish_cycle: int = 0
    #: ``finish - previous batch's finish``: the cycles this batch added
    #: to the stream makespan (the cost a serving system should charge).
    marginal_cycles: int = 0
    #: Aggregate resource demand, for the bound checks.
    array_cycles: int = 0
    port_cycles: int = 0
    act_cycles: int = 0


@dataclass
class StreamTiming:
    """Timing of a whole batch stream through the pipelined schedule."""

    batches: list[BatchTiming] = field(default_factory=list)
    window: int = DEFAULT_WINDOW

    @property
    def finish_cycles(self) -> int:
        """Makespan of the whole stream."""
        if not self.batches:
            return 0
        return self.batches[-1].finish_cycle

    @property
    def cold_cycles(self) -> int:
        """Cycles for the first batch, pipeline starting empty."""
        if not self.batches:
            return 0
        return self.batches[0].finish_cycle

    @property
    def steady_marginal_cycles(self) -> int:
        """Steady-state marginal cycles of one batch.

        The first three batches carry the cold fill and the *last*
        batch's marginal is a tail artifact (it keeps the whole array
        once its predecessor retires), so the steady state is the average
        marginal over the settled middle window — an **even** number of
        batches, because on some shapes the settled marginals oscillate
        with period two (the two in-flight batches alternate roles), and
        a single sample would report whichever phase the probe length
        happens to land on.  Streams shorter than six batches fall back
        to the best available single marginal.
        """
        n = len(self.batches)
        if n == 0:
            return 0
        if n < 6:
            batch = self.steady_batch
            return batch.marginal_cycles if batch is not None else 0
        window = (n - 4) & ~1  # largest even count after the 3-batch fill
        settled = self.batches[-1 - window : -1]
        return round(sum(b.marginal_cycles for b in settled) / window)

    @property
    def total_images(self) -> int:
        """Images across every batch of the stream."""
        return sum(batch.images for batch in self.batches)

    @property
    def steady_batch(self) -> BatchTiming | None:
        """The batch anchoring the steady state (short-stream fallback).

        For streams of fewer than three batches the last batch is all
        there is — note its marginal is tail-flattered (no successor
        competes for the array), so short-stream "steady" figures are
        optimistic; probe with five or more batches for the real number.
        """
        if not self.batches:
            return None
        if len(self.batches) < 3:
            return self.batches[-1]
        return self.batches[-2]

    @property
    def converged(self) -> bool:
        """Whether the stream is long enough for a settled steady state."""
        return len(self.batches) >= 6

    def cycles_per_image(self, steady: bool = True) -> float:
        """Steady-state (or whole-stream) amortized cycles per image."""
        if not self.batches:
            return 0.0
        if steady:
            return self.steady_marginal_cycles / self.steady_batch.images
        return self.finish_cycles / self.total_images

    def images_per_second(self, clock_mhz: float, steady: bool = True) -> float:
        """Modeled throughput at the given clock."""
        cycles = self.cycles_per_image(steady)
        if cycles <= 0:
            return 0.0
        return clock_mhz * 1e6 / cycles


@dataclass(frozen=True)
class OpSpan:
    """One scheduled op instance on the stream timeline (for tracing).

    ``start_cycle``/``end_cycle`` are the op's span on its executing
    resource — the PE array for tiles, the activation pipeline for act
    passes.  Tiles additionally carry their weight-port load span
    (``load_start_cycle``/``load_end_cycle``); the gap between load end
    and stream start is prestage slack (the Weight2 FIFO at work).
    """

    batch: int
    op: int
    kind: str
    layer: str
    start_cycle: int
    end_cycle: int
    load_start_cycle: int = 0
    load_end_cycle: int = 0


@dataclass
class _BatchState:
    """Progress cursor of one in-flight batch."""

    index: int
    ops: list[PipelineOp]
    images: int
    cursor: int = 0
    #: When this batch's previous op completed (the serial stage chain).
    ready: int = 0
    start: int | None = None
    array: int = 0
    port: int = 0
    act: int = 0

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.ops)


def simulate_stream(
    per_batch_ops: list[list[PipelineOp]],
    images_per_batch: list[int] | None = None,
    window: int = DEFAULT_WINDOW,
    prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
    op_trace: list[OpSpan] | None = None,
) -> StreamTiming:
    """Run the stream schedule and return per-batch start/finish cycles.

    ``per_batch_ops`` is one op list per batch, in stream order.  Up to
    ``window`` batches are in flight; within a batch ops execute in their
    serial dependency order; across batches, tiles are granted by array
    efficiency and at most ``prestage_depth`` tiles may be loaded ahead
    of the array.  When ``op_trace`` is a list, one :class:`OpSpan` per
    scheduled op is appended to it in grant order (timing is unchanged;
    the memoized :func:`cached_stream_timing` never records).
    """
    if window < 1:
        raise ConfigError("pipeline window must be at least one batch")
    if prestage_depth < 1:
        raise ConfigError("prestage depth must be at least one tile")
    if images_per_batch is None:
        images_per_batch = [1] * len(per_batch_ops)
    if len(images_per_batch) != len(per_batch_ops):
        raise ConfigError("one image count per batch is required")

    pending = [
        _BatchState(index=i, ops=ops, images=images)
        for i, (ops, images) in enumerate(zip(per_batch_ops, images_per_batch))
    ]
    active: list[_BatchState] = []
    finished: list[_BatchState] = []

    port_free = 0  # weight port availability
    array_free = 0  # PE array availability
    # Stream starts of the last ``prestage_depth`` tiles granted to the
    # array: the prestage FIFO holds that many loaded-but-unstreamed
    # tiles, so a new load cannot start before the tile ``depth`` back
    # has latched (depth 1 reproduces the single Weight2 register).
    recent_stream_starts: list[int] = []

    def retire(state: _BatchState) -> None:
        if state.done:
            active.remove(state)
            finished.append(state)

    while pending or active:
        while pending and len(active) < window:
            active.append(pending.pop(0))
        # Activation passes only advance their own batch's serial chain.
        advanced = False
        for state in list(active):
            op = state.ops[state.cursor]
            if op.kind == "act":
                if state.start is None:
                    state.start = state.ready
                if op_trace is not None:
                    op_trace.append(
                        OpSpan(
                            batch=state.index,
                            op=state.cursor,
                            kind="act",
                            layer=op.layer,
                            start_cycle=state.ready,
                            end_cycle=state.ready + op.cycles,
                        )
                    )
                state.ready += op.cycles
                state.act += op.cycles
                state.cursor += 1
                retire(state)
                advanced = True
        if advanced or not active:
            continue
        # Tile arbitration: score each candidate by the array-busy cycles
        # it adds over the idle it would expose, and grant the most
        # efficient tile (older batch on ties).  Integer cross-products
        # keep the comparison exact.
        stage_free = (
            recent_stream_starts[-prestage_depth]
            if len(recent_stream_starts) >= prestage_depth
            else 0
        )
        best = None
        best_start = best_load_start = 0
        best_idle = best_cycles = 0
        for state in active:
            op = state.ops[state.cursor]
            load_start = max(port_free, stage_free)
            if op.constrained:
                load_start = max(load_start, state.ready)
            start = max(array_free, load_start + op.load, state.ready)
            idle = start - array_free
            better = best is None or (
                op.cycles * (best_idle + best_cycles)
                > best_cycles * (idle + op.cycles)
            )
            if better:
                best = state
                best_start, best_load_start = start, load_start
                best_idle, best_cycles = idle, op.cycles
        assert best is not None
        op = best.ops[best.cursor]
        if op_trace is not None:
            op_trace.append(
                OpSpan(
                    batch=best.index,
                    op=best.cursor,
                    kind="tile",
                    layer=op.layer,
                    start_cycle=best_start,
                    end_cycle=best_start + op.cycles,
                    load_start_cycle=best_load_start,
                    load_end_cycle=best_load_start + op.load,
                )
            )
        port_free = best_load_start + op.load
        recent_stream_starts.append(best_start)
        if len(recent_stream_starts) > prestage_depth:
            del recent_stream_starts[: -prestage_depth]
        array_free = best_start + op.cycles
        best.array += op.cycles
        best.port += op.load
        if best.start is None:
            best.start = best_load_start
        best.ready = best_start + op.cycles
        best.cursor += 1
        retire(best)

    # Marginal cycles are each batch's increment of the stream makespan, so
    # they are computed in *finish* order (a small batch overlapped with a
    # large predecessor can complete first); results are listed in stream
    # order.
    finished.sort(key=lambda state: (state.ready, state.index))
    timings: list[BatchTiming] = []
    previous_finish = 0
    for state in finished:
        finish = state.ready
        timings.append(
            BatchTiming(
                index=state.index,
                images=state.images,
                start_cycle=state.start if state.start is not None else 0,
                finish_cycle=finish,
                marginal_cycles=finish - previous_finish,
                array_cycles=state.array,
                port_cycles=state.port,
                act_cycles=state.act,
            )
        )
        previous_finish = finish
    timings.sort(key=lambda timing: timing.index)
    return StreamTiming(batches=timings, window=window)


def cached_stream_timing(
    per_batch_ops: list[list[PipelineOp]],
    images_per_batch: list[int] | None = None,
    window: int = DEFAULT_WINDOW,
    prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
) -> StreamTiming:
    """Memoized :func:`simulate_stream` for repeated identical streams.

    Probe streams (cold / steady-state / pair hand-off) replay the same
    op timelines over and over — across cost-model instances, serving
    runs, and sweep points — so schedules are cached per (op-timeline
    token sequence, image counts, window, prestage depth).  A cache hit
    returns the *same* :class:`StreamTiming` the first simulation
    produced, so memoized timelines are bit-identical by construction;
    callers treat the result as read-only.
    """
    if images_per_batch is None:
        images_per_batch = [1] * len(per_batch_ops)
    key = (
        tuple(_ops_token(ops) for ops in per_batch_ops),
        tuple(images_per_batch),
        window,
        prestage_depth,
    )
    timing = _STREAM_TIMING_CACHE.get(key)
    if timing is None:
        timing = _STREAM_TIMING_CACHE[key] = simulate_stream(
            per_batch_ops,
            images_per_batch,
            window=window,
            prestage_depth=prestage_depth,
        )
    return timing


def stream_op_spans(
    per_batch_ops: list[list[PipelineOp]],
    images_per_batch: list[int] | None = None,
    window: int = DEFAULT_WINDOW,
    prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
) -> tuple[StreamTiming, list[OpSpan]]:
    """Uncached :func:`simulate_stream` run that records per-op spans.

    Used by the observability exporters to render the op-level
    drill-down lane (tile streams, weight-port loads, activation
    passes — the paper's Fig. 11 pipeline).  Deliberately bypasses
    :func:`cached_stream_timing`: recording is rare and the cache must
    keep returning the exact shared objects it memoized.
    """
    spans: list[OpSpan] = []
    timing = simulate_stream(
        per_batch_ops,
        images_per_batch,
        window=window,
        prestage_depth=prestage_depth,
        op_trace=spans,
    )
    return timing, spans
