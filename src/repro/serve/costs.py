"""Per-batch compute-cost model for the serving simulator.

:class:`ScheduledBatchCost` prices every network from its compiled
instruction stream (:mod:`repro.compiler.cost`), the same accounting
:class:`~repro.compiler.executor.StreamExecutor` reports when it runs a
batch, so the cycles the serving simulator charges are **bit-identical**
to the batched engine run standalone.  Cycle accounting depends only on
the batch size (tiling is shape-driven; data never changes the
schedule), so nothing executes: the cold cost of a batch is
:func:`~repro.compiler.cost.program_batch_cycles` under the chosen
accounting.  ``tests/compiler/fixtures/zoo_accounting.json`` pins those
figures for every zoo network.

With ``pipeline=True`` the model additionally prices the *warm* cost of
stream pipelining (:mod:`repro.hw.pipeline`) over the compiled program's
op timelines (:func:`~repro.compiler.cost.program_ops`): an array that
receives a batch back to back — dispatched the instant the previous batch
finished — keeps its pipeline full, prestages the next batch's conv1 tiles
under the previous batch's routing tail, and pays only the steady-state
marginal cycles instead of the cold figure.  The warm cost is keyed by the
``(prev_batch_size, batch_size)`` pair: a homogeneous probe stream of
the batch size prices the ``prev == size`` case, and mixed-size
back-to-back dispatches are probed from a two-size stream whose settled
transition batch carries the pair's marginal (the predecessor's tail
covers a different amount of the successor's prestage when the sizes
differ).  Warm costs never exceed the cold cost.

On a shared multi-tenant pool the predecessor batch may belong to a
*different network*: the pipeline op model is network-agnostic, so the
hand-off is priced from a probe stream whose prefix runs the previous
model's ops and whose suffix runs the receiver's — pass ``prev_cost``
to :meth:`~ScheduledBatchCost.warm_batch_cycles` (the simulator wires
the array's last cost model through automatically).

Probe results persist in a **process-wide probe cache** keyed by
(network shape, accelerator configuration, accounting / pipeline
parameters, probe kind, batch size or hand-off pair).  A cost model
rebuilt for the same shapes — a fresh serving run, a
:class:`~repro.serve.policies.CostBank` resolving a heterogeneous pool,
a sweep point — reuses every previously priced figure;
:func:`clear_probe_cache` resets it.
"""

from __future__ import annotations

from repro.compiler.cost import (
    program_batch_cycles,
    program_checksum_cycles,
    program_ops,
    program_steady_cycles,
)
from repro.compiler.zoo import as_compiled
from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.hw.pipeline import (
    DEFAULT_PRESTAGE_DEPTH,
    DEFAULT_WINDOW,
    PipelineOp,
    cached_stream_timing,
)

#: Supported cycle accountings: double-buffered Weight2 overlap (what the
#: paper's architecture achieves) or the fully sequential schedule
#: (weight loads stall compute).
ACCOUNTINGS = ("overlapped", "sequential")

#: Probe stream for the mixed-size ``(prev, size)`` warm cost: enough
#: predecessor batches for the pipeline to settle into the predecessor's
#: rhythm, then enough successors that the transition batch has work
#: behind it (a stream-final batch's marginal is tail-flattered — it
#: keeps the whole array once its predecessor retires).
PAIR_PROBE_PREFIX = 3
PAIR_PROBE_SUFFIX = 3

#: Process-wide probe-result cache: cycles keyed by (model signature,
#: probe kind, probe arguments).  Survives across cost-model instances
#: and serving runs; cleared by :func:`clear_probe_cache`.
_PROBE_CACHE: dict[tuple, int] = {}


def clear_probe_cache() -> None:
    """Drop every cached probe result (cold / warm / pair / cross)."""
    _PROBE_CACHE.clear()


def probe_cache_size() -> int:
    """Number of cached probe results (for tests/telemetry)."""
    return len(_PROBE_CACHE)


class ScheduledBatchCost:
    """Exact batch costs from a network's compiled instruction stream.

    Parameters
    ----------
    qnet:
        Network to price — anything
        :func:`~repro.compiler.zoo.as_compiled` accepts: a zoo name
        string (default: the paper's MNIST CapsuleNet), a compiled
        model-zoo entry (:class:`~repro.compiler.zoo.CompiledNetwork`),
        a :class:`~repro.capsnet.quantized.QuantizedCapsuleNet` or a
        :class:`~repro.capsnet.config.CapsNetConfig` (which rebuilds its
        quantized network on every call — prefer the zoo name).
    accel_config:
        Accelerator configuration (array size, clock, FIFO depth, ...).
    accounting:
        ``"overlapped"`` (default) or ``"sequential"`` cycle accounting.
    pipeline:
        Enable the stream-pipelined *warm* cost (requires the overlapped
        accounting — pipelining is meaningless without double-buffering).
    window / prestage_depth:
        Stream-pipeline parameters (see :mod:`repro.hw.pipeline`).
    integrity:
        Check mode to price (one of
        :data:`~repro.serve.integrity.CHECK_MODES`): ``checksum`` and
        ``checksum+canary`` add the ABFT verification cycles
        (:func:`~repro.compiler.cost.program_checksum_cycles`) to every
        batch, so the throughput cost of checking is part of every
        schedule.  Canary probes ride along free (observability).
    """

    def __init__(
        self,
        qnet="mnist",
        accel_config: AcceleratorConfig | None = None,
        accounting: str = "overlapped",
        pipeline: bool = False,
        window: int = DEFAULT_WINDOW,
        prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
        integrity: str = "none",
    ) -> None:
        from repro.serve.integrity import CHECK_MODES

        if accounting not in ACCOUNTINGS:
            raise ConfigError(
                f"unknown accounting {accounting!r} (choose from {ACCOUNTINGS})"
            )
        if integrity not in CHECK_MODES:
            raise ConfigError(
                f"integrity mode must be one of {CHECK_MODES}, not {integrity!r}"
            )
        if pipeline and accounting != "overlapped":
            raise ConfigError(
                "the pipelined warm cost requires the overlapped accounting"
                " (stream pipelining builds on the Weight2 double-buffer)"
            )
        #: The compiled network priced by this model (every cycle figure
        #: comes from its instruction stream).
        self.compiled = as_compiled(qnet)
        #: The accelerator configuration costs are computed for.
        self.config = accel_config if accel_config is not None else AcceleratorConfig()
        self.accounting = accounting
        self.pipeline = pipeline
        self.window = window
        self.prestage_depth = prestage_depth
        self.integrity = integrity
        self._memo: dict[int, int] = {}
        self._warm_memo: dict[int, int] = {}
        self._handoff_memo: dict[tuple, int] = {}
        self._integrity_memo: dict[int, int] = {}

    @property
    def network_key(self) -> tuple:
        """Hashable identity of the network shapes this model prices."""
        return self.compiled.key

    def signature(self) -> tuple:
        """Hashable identity of every parameter that shapes a probe."""
        return (
            self.network_key,
            self.config,
            self.accounting,
            self.pipeline,
            self.window,
            self.prestage_depth,
            self.integrity,
        )

    def integrity_cycles(self, batch_size: int) -> int:
        """ABFT verification cycles this model adds per batch (memoized)."""
        if self.integrity == "none":
            return 0
        if batch_size not in self._integrity_memo:
            self._integrity_memo[batch_size] = program_checksum_cycles(
                self.config, self.compiled.program, batch_size
            )
        return self._integrity_memo[batch_size]

    def pipeline_ops(self, batch_size: int) -> list[PipelineOp]:
        """This model's pipeline op timeline for one batch (pipelined only).

        The list is :func:`~repro.compiler.cost.program_ops`'s shared
        memo entry, so every rebuilt model reuses the same lists and
        their settled stream schedules.
        """
        if not self.pipeline:
            raise ConfigError("pipeline ops need a cost model built with pipeline=True")
        if batch_size < 1:
            raise ConfigError("batch size must be positive")
        return program_ops(self.config, self.compiled.program, batch_size)

    def batch_cycles(self, batch_size: int) -> int:
        """Cycles one ``batch_size`` batch occupies an array (memoized).

        The program's closed-form accounting at this batch size — what
        an executed batch reports as ``BatchResult.overlapped_cycles``
        (or ``.total_cycles`` under the sequential accounting) — plus
        the integrity-check cycles when checking is armed.
        """
        if batch_size < 1:
            raise ConfigError("batch size must be positive")
        if batch_size not in self._memo:
            key = self.signature() + ("cold", batch_size)
            cached = _PROBE_CACHE.get(key)
            if cached is None:
                totals = program_batch_cycles(
                    self.config, self.compiled.program, batch_size
                )
                cached = _PROBE_CACHE[key] = (
                    totals[self.accounting] + self.integrity_cycles(batch_size)
                )
            self._memo[batch_size] = cached
        return self._memo[batch_size]

    def warm_batch_cycles(
        self,
        batch_size: int,
        prev_size: int | None = None,
        prev_cost: "ScheduledBatchCost | None" = None,
    ) -> int:
        """Steady-state (pipelined) cycles of a back-to-back batch.

        With ``prev_size`` omitted (or equal to ``batch_size``) the cost
        is probed from a homogeneous stream of ``batch_size`` batches;
        a differing ``prev_size`` prices the mixed-size hand-off from the
        settled transition batch of a two-size probe stream.  A
        ``prev_cost`` pricing a *different network* prices the
        cross-network hand-off instead: the probe stream's prefix runs
        that model's op timeline.  Either way the figure is clamped to
        never exceed the cold cost: an array is never worse off for
        having stayed warm.
        """
        if not self.pipeline:
            raise ConfigError("warm costs need a cost model built with pipeline=True")
        if batch_size < 1:
            raise ConfigError("batch size must be positive")
        prev = self._cross_prev(prev_cost)
        if prev is not None or prev_size not in (None, batch_size):
            return self._handoff_cycles(
                self if prev is None else prev,
                batch_size if prev_size is None else prev_size,
                batch_size,
            )
        if batch_size not in self._warm_memo:
            key = self.signature() + ("warm", batch_size)
            cached = _PROBE_CACHE.get(key)
            if cached is None:
                steady = program_steady_cycles(
                    self.config,
                    self.compiled.program,
                    batch_size,
                    window=self.window,
                    prestage_depth=self.prestage_depth,
                )
                cached = _PROBE_CACHE[key] = self._clamped(steady, batch_size)
            self._warm_memo[batch_size] = cached
        return self._warm_memo[batch_size]

    def _clamped(self, marginal: int, batch_size: int) -> int:
        """A warm marginal plus the check cycles, never above the cold cost."""
        return min(
            marginal + self.integrity_cycles(batch_size), self.batch_cycles(batch_size)
        )

    def _cross_prev(self, prev_cost):
        """The previous cost model, iff the hand-off truly crosses networks.

        ``None`` (no predecessor recorded), the receiver itself, or a model
        pricing the *same* network shapes all fall back to the receiver's
        own hand-off cost — bit-identical for single-tenant runs.  A previous
        model without pipeline ops (built with ``pipeline=False``) cannot
        be probed and also falls back.
        """
        if prev_cost is None or prev_cost is self:
            return None
        prev_key = getattr(prev_cost, "network_key", None)
        if prev_key is None or prev_key == self.network_key:
            return None
        if not getattr(prev_cost, "pipeline", False):
            return None
        return prev_cost

    def _handoff_cycles(self, prev_cost, prev_size: int, batch_size: int) -> int:
        """Warm cost of a batch dispatched right behind ``prev_cost``'s batch.

        Priced from a probe stream whose prefix runs the predecessor's op
        timeline at ``prev_size`` and whose suffix runs this model's at
        ``batch_size``; the settled transition batch carries the hand-off
        marginal.  The pipeline op model is network-agnostic, so a
        cross-network hand-off is exactly a mixed-shape stream, scheduled
        through this model's window/prestage parameters.
        """
        if prev_size < 1:
            raise ConfigError("previous batch size must be positive")
        prev_signature = None if prev_cost is self else prev_cost.signature()
        key = (prev_signature, prev_size, batch_size)
        if key not in self._handoff_memo:
            global_key = (self.signature(), "handoff") + key
            cached = _PROBE_CACHE.get(global_key)
            if cached is None:
                timing = cached_stream_timing(
                    [prev_cost.pipeline_ops(prev_size)] * PAIR_PROBE_PREFIX
                    + [self.pipeline_ops(batch_size)] * PAIR_PROBE_SUFFIX,
                    [prev_size] * PAIR_PROBE_PREFIX + [batch_size] * PAIR_PROBE_SUFFIX,
                    window=self.window,
                    prestage_depth=self.prestage_depth,
                )
                marginal = timing.batches[PAIR_PROBE_PREFIX].marginal_cycles
                cached = _PROBE_CACHE[global_key] = self._clamped(marginal, batch_size)
            self._handoff_memo[key] = cached
        return self._handoff_memo[key]

    def drain_saved_cycles(
        self,
        batch_size: int,
        prev_size: int | None = None,
        prev_cost: "ScheduledBatchCost | None" = None,
    ) -> int:
        """Cycles a warm dispatch saves over a cold one (>= 0)."""
        return self.batch_cycles(batch_size) - self.warm_batch_cycles(
            batch_size, prev_size, prev_cost
        )
