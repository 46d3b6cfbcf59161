"""Per-batch compute-cost models for the serving simulator.

:class:`ScheduledBatchCost` is the ground truth: it runs
:class:`repro.hw.scheduler.BatchScheduler` on a real batch, so the cycles
the serving simulator charges are **bit-identical** to the batched engine
run standalone.  Cycle accounting depends only on the batch size (tiling
is shape-driven; data never changes the schedule), so per-size costs are
memoized with a zero-image probe batch and real request images only need
executing when the caller wants predictions.

:class:`AnalyticBatchCost` is the closed-form :mod:`repro.perf` model of
the same schedule; :func:`crosscheck` asserts the two agree to a small
relative tolerance, keeping the fast analytic path honest.

With ``pipeline=True`` both models additionally price the *warm* cost of
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

Probes are expensive (the scheduled model runs the execution engine),
so results additionally persist in a **process-wide probe cache** keyed
by (model kind, network shape, accelerator configuration, accounting /
pipeline parameters, probe kind, batch size or hand-off pair).  A cost
model rebuilt for the same shapes — a fresh serving run, a
:class:`~repro.serve.policies.CostBank` resolving a heterogeneous pool,
a sweep point — reuses every previously probed figure instead of
re-running the engine; :func:`clear_probe_cache` resets it.
"""

from __future__ import annotations

import numpy as np

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.capsnet.quantized import QuantizedCapsuleNet
from repro.compiler.cost import (
    program_batch_cycles,
    program_checksum_cycles,
    program_ops,
)
from repro.compiler.isa import Program
from repro.compiler.zoo import CompiledNetwork, as_compiled
from repro.errors import ConfigError
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.config import AcceleratorConfig
from repro.hw.pipeline import (
    DEFAULT_PRESTAGE_DEPTH,
    DEFAULT_WINDOW,
    PipelineOp,
    cached_stream_timing,
)
from repro.hw.scheduler import BatchResult, BatchScheduler
from repro.perf.model import CapsAccPerformanceModel
from repro.perf.stream import PROBE_STREAM_LENGTH, AnalyticStreamCost

#: Supported cycle accountings: double-buffered Weight2 overlap (what the
#: paper's architecture achieves and :mod:`repro.perf` models) or the
#: fully sequential schedule (weight loads stall compute).
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


def _compiled_network_key(compiled: CompiledNetwork) -> tuple:
    """Cross-model identity of a compiled network's shapes.

    CapsNet architectures reduce to the ``(config, optimized_routing)``
    pair :class:`AnalyticBatchCost`'s perf-model path uses, so a
    scheduled and an analytic model pricing the same CapsNet compare
    equal in :func:`_resolve_cross_prev` (no spurious cross-network
    probes); other zoo entries keep their own compiled key.
    """
    key = compiled.key
    if key and key[0] == "capsnet":
        return (key[1], key[2])
    return key


def _pair_marginal(timing) -> int:
    """Marginal cycles of the transition batch in a pair probe stream."""
    return timing.batches[PAIR_PROBE_PREFIX].marginal_cycles


def _pair_warm_cycles(
    memo: dict[tuple[int, int], int],
    probe,
    prev_size: int,
    batch_size: int,
    cold: int,
    cache_key: tuple | None = None,
    extra: int = 0,
) -> int:
    """Memoized mixed-size warm cost from a two-size probe stream.

    Shared by both cost models; ``probe`` maps a batch-size stream to its
    :class:`~repro.hw.pipeline.StreamTiming`.  ``extra`` adds per-batch
    overhead outside the pipeline (the integrity-check cycles).  Clamped
    to the cold cost: an array is never worse off for having stayed warm.
    """
    if prev_size < 1:
        raise ConfigError("previous batch size must be positive")
    key = (prev_size, batch_size)
    if key not in memo:
        global_key = None if cache_key is None else cache_key + key
        cached = None if global_key is None else _PROBE_CACHE.get(global_key)
        if cached is None:
            timing = probe(
                [prev_size] * PAIR_PROBE_PREFIX + [batch_size] * PAIR_PROBE_SUFFIX
            )
            cached = min(_pair_marginal(timing) + extra, cold)
            if global_key is not None:
                _PROBE_CACHE[global_key] = cached
        memo[key] = cached
    return memo[key]


def _cross_pair_cycles(
    receiver,
    prev_cost,
    prev_size: int,
    batch_size: int,
    cold: int,
    extra: int = 0,
) -> int:
    """Warm cost of a cross-network hand-off, from a two-model probe stream.

    The probe stream's prefix runs the *previous* model's op timeline at
    ``prev_size`` and its suffix the receiver's at ``batch_size``; the
    settled transition batch carries the hand-off marginal (the pipeline
    op model is network-agnostic, so mixing models is exactly mixing
    shapes).  Scheduled through the receiver's window/prestage
    parameters and clamped to the receiver's cold cost.
    """
    from repro.hw.pipeline import cached_stream_timing

    if prev_size < 1:
        raise ConfigError("previous batch size must be positive")
    prev_ops = prev_cost.pipeline_ops(prev_size)
    own_ops = receiver.pipeline_ops(batch_size)
    timing = cached_stream_timing(
        [prev_ops] * PAIR_PROBE_PREFIX + [own_ops] * PAIR_PROBE_SUFFIX,
        [prev_size] * PAIR_PROBE_PREFIX + [batch_size] * PAIR_PROBE_SUFFIX,
        window=receiver.window,
        prestage_depth=receiver.prestage_depth,
    )
    return min(_pair_marginal(timing) + extra, cold)


def _resolve_cross_prev(receiver, prev_cost):
    """The previous cost model, iff the hand-off truly crosses networks.

    ``None`` (no predecessor recorded), the receiver itself, or a model
    pricing the *same* network shapes all fall back to the receiver's own
    pair cost — the PR 4 behavior, bit-identical for single-tenant runs.
    A previous model without pipeline ops (built with ``pipeline=False``)
    cannot be probed and also falls back.
    """
    if prev_cost is None or prev_cost is receiver:
        return None
    prev_key = getattr(prev_cost, "network_key", None)
    if prev_key is None or prev_key == receiver.network_key:
        return None
    if not getattr(prev_cost, "pipeline", False):
        return None
    return prev_cost


def _check_integrity_mode(integrity: str) -> None:
    from repro.serve.integrity import CHECK_MODES

    if integrity not in CHECK_MODES:
        raise ConfigError(
            f"integrity mode must be one of {CHECK_MODES}, not {integrity!r}"
        )


def _batch_cycles(result: BatchResult, accounting: str) -> int:
    if accounting == "overlapped":
        return result.overlapped_cycles
    if accounting == "sequential":
        return result.total_cycles
    raise ConfigError(f"unknown accounting {accounting!r} (choose from {ACCOUNTINGS})")


class ScheduledBatchCost:
    """Exact batch costs from the batched execution engine.

    Parameters
    ----------
    qnet:
        Network to schedule: a :class:`QuantizedCapsuleNet`, a compiled
        model-zoo entry (:class:`CompiledNetwork`) or a zoo name string;
        built from ``network`` when omitted.
    network:
        Network configuration (defaults to the paper's MNIST CapsuleNet).
    accel_config:
        Accelerator configuration (array size, clock, FIFO depth, ...).
    accounting:
        ``"overlapped"`` (default) or ``"sequential"`` cycle accounting.
    engine:
        Execution engine for the scheduler (``fast``/``stepped``).
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
        qnet: QuantizedCapsuleNet | CompiledNetwork | str | None = None,
        network: CapsNetConfig | None = None,
        accel_config: AcceleratorConfig | None = None,
        accounting: str = "overlapped",
        engine: str = "fast",
        pipeline: bool = False,
        window: int = DEFAULT_WINDOW,
        prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
        integrity: str = "none",
    ) -> None:
        if accounting not in ACCOUNTINGS:
            raise ConfigError(
                f"unknown accounting {accounting!r} (choose from {ACCOUNTINGS})"
            )
        _check_integrity_mode(integrity)
        if pipeline and accounting != "overlapped":
            raise ConfigError(
                "the pipelined warm cost requires the overlapped accounting"
                " (stream pipelining builds on the Weight2 double-buffer)"
            )
        if qnet is None:
            qnet = QuantizedCapsuleNet(network if network is not None else mnist_capsnet_config())
        compiled = as_compiled(qnet)
        #: The compiled network priced by this model (everything downstream
        #: — probes, pipeline ops, rebuilds — runs its instruction stream).
        self.compiled = compiled
        #: The quantized golden model when the network has one (CapsNet
        #: architectures); ``None`` for pure zoo baselines.
        self.qnet = compiled.qnet
        accelerator = (
            CapsAccAccelerator(accel_config, formats=compiled.formats)
            if accel_config is not None
            else None
        )
        self.scheduler = BatchScheduler(compiled, accelerator=accelerator, engine=engine)
        self.accounting = accounting
        self.engine = engine
        self.pipeline = pipeline
        self.window = window
        self.prestage_depth = prestage_depth
        self.integrity = integrity
        self._memo: dict[int, int] = {}
        self._warm_memo: dict[int, int] = {}
        self._pair_memo: dict[tuple[int, int], int] = {}
        self._integrity_memo: dict[int, int] = {}
        self._stream: _ProgramStream | None = None
        if pipeline:
            self._stream = _ProgramStream(
                self.config,
                compiled.program,
                window=window,
                prestage_depth=prestage_depth,
            )

    @property
    def config(self) -> AcceleratorConfig:
        """The accelerator configuration costs are computed for."""
        return self.scheduler.accelerator.config

    @property
    def network_key(self) -> tuple:
        """Hashable identity of the network shapes this model prices."""
        return _compiled_network_key(self.compiled)

    def signature(self) -> tuple:
        """Hashable identity of every parameter that shapes a probe."""
        return (
            "scheduled",
            self.network_key,
            self.config,
            self.accounting,
            self.engine,
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

    def pipeline_ops(self, batch_size: int):
        """This model's pipeline op timeline for one batch (pipelined only)."""
        if self._stream is None:
            raise ConfigError("pipeline ops need a cost model built with pipeline=True")
        return self._stream.batch_ops(batch_size)

    def batch_cycles(self, batch_size: int) -> int:
        """Cycles one ``batch_size`` batch occupies an array (memoized).

        Probes the scheduler with a zero-image batch; tiling — and
        therefore the accounting — is shape-driven, so the memoized value
        is bit-identical to any real batch of the same size.  Results
        persist in the process-wide probe cache, so a model rebuilt for
        the same shapes skips the engine probe.
        """
        if batch_size < 1:
            raise ConfigError("batch size must be positive")
        if batch_size not in self._memo:
            key = self.signature() + ("cold", batch_size)
            cached = _PROBE_CACHE.get(key)
            if cached is None:
                probe = np.zeros(
                    (batch_size,) + tuple(self.compiled.input_shape), dtype=np.float64
                )
                result = self.scheduler.run_batch(probe)
                cached = _PROBE_CACHE[key] = _batch_cycles(
                    result, self.accounting
                ) + self.integrity_cycles(batch_size)
            self._memo[batch_size] = cached
        return self._memo[batch_size]

    def warm_batch_cycles(
        self,
        batch_size: int,
        prev_size: int | None = None,
        prev_cost: "ScheduledBatchCost | AnalyticBatchCost | None" = None,
    ) -> int:
        """Steady-state (pipelined) cycles of a back-to-back batch.

        With ``prev_size`` omitted (or equal to ``batch_size``) the cost
        is probed from a homogeneous stream of ``batch_size`` batches;
        a differing ``prev_size`` prices the mixed-size hand-off from the
        settled transition batch of a two-size probe stream (timing only
        — ops are shape-driven).  A ``prev_cost`` pricing a *different
        network* prices the cross-network hand-off instead: the probe
        stream's prefix runs that model's op timeline (see
        :func:`_cross_pair_cycles`).  Either way the figure is clamped to
        never exceed the cold cost: an array is never worse off for
        having stayed warm.
        """
        if self._stream is None:
            raise ConfigError("warm costs need a cost model built with pipeline=True")
        cross = _resolve_cross_prev(self, prev_cost)
        if cross is not None:
            return self._cross_warm_cycles(cross, prev_size, batch_size)
        if prev_size is not None and prev_size != batch_size:
            return _pair_warm_cycles(
                self._pair_memo,
                self._stream.stream_timing,
                prev_size,
                batch_size,
                self.batch_cycles(batch_size),
                cache_key=self.signature() + ("pair",),
                extra=self.integrity_cycles(batch_size),
            )
        if batch_size not in self._warm_memo:
            key = self.signature() + ("warm", batch_size)
            cached = _PROBE_CACHE.get(key)
            if cached is None:
                cold = self.batch_cycles(batch_size)
                cached = _PROBE_CACHE[key] = min(
                    self._stream.steady_cycles(batch_size)
                    + self.integrity_cycles(batch_size),
                    cold,
                )
            self._warm_memo[batch_size] = cached
        return self._warm_memo[batch_size]

    def _cross_warm_cycles(self, prev_cost, prev_size: int | None, batch_size: int) -> int:
        if prev_size is None:
            prev_size = batch_size
        key = (self.signature(), "cross", prev_cost.signature(), prev_size, batch_size)
        cached = _PROBE_CACHE.get(key)
        if cached is None:
            cached = _PROBE_CACHE[key] = _cross_pair_cycles(
                self,
                prev_cost,
                prev_size,
                batch_size,
                self.batch_cycles(batch_size),
                extra=self.integrity_cycles(batch_size),
            )
        return cached

    def drain_saved_cycles(
        self,
        batch_size: int,
        prev_size: int | None = None,
        prev_cost: "ScheduledBatchCost | AnalyticBatchCost | None" = None,
    ) -> int:
        """Cycles a warm dispatch saves over a cold one (>= 0)."""
        return self.batch_cycles(batch_size) - self.warm_batch_cycles(
            batch_size, prev_size, prev_cost
        )

    def execute(
        self,
        images: np.ndarray,
        warm: bool = False,
        prev_size: int | None = None,
    ) -> tuple[int, BatchResult]:
        """Run a real batch; returns its (cold or warm) cycles and result.

        The outputs are always the engine's — bit-identical either way;
        ``warm`` (and the warm-cost key ``prev_size``) only selects which
        cycle figure the batch is charged.
        """
        result = self.scheduler.run_batch(images)
        cycles = _batch_cycles(result, self.accounting) + self.integrity_cycles(
            result.batch
        )
        self._memo.setdefault(result.batch, cycles)
        if warm:
            return self.warm_batch_cycles(result.batch, prev_size), result
        return cycles, result


class _ProgramStream:
    """Pipeline-op pricing of a compiled program (no engine, no weights).

    Duck-types the slice of :class:`~repro.perf.stream.AnalyticStreamCost`
    the cost models use — ``batch_ops`` / ``stream_timing`` /
    ``steady_cycles`` — but expands the op timeline from the network's
    compiled instruction stream (:func:`repro.compiler.cost.program_ops`),
    so *any* zoo network prices its pipelined warm costs in closed form.
    Op lists come from that function's module-wide memo, so every rebuilt
    model reuses the same lists and their settled stream schedules.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        program: Program,
        window: int,
        prestage_depth: int,
    ) -> None:
        self.config = config
        self.program = program
        self.window = window
        self.prestage_depth = prestage_depth

    def batch_ops(self, batch_size: int) -> list[PipelineOp]:
        if batch_size < 1:
            raise ConfigError("batch size must be positive")
        return program_ops(self.config, self.program, batch_size)

    def stream_timing(self, batch_sizes):
        ops = [self.batch_ops(size) for size in batch_sizes]
        return cached_stream_timing(
            ops,
            list(batch_sizes),
            window=self.window,
            prestage_depth=self.prestage_depth,
        )

    def cold_cycles(self, batch_size: int) -> int:
        return self.stream_timing([batch_size]).finish_cycles

    def steady_cycles(self, batch_size: int) -> int:
        timing = self.stream_timing([batch_size] * PROBE_STREAM_LENGTH)
        return timing.steady_marginal_cycles


class AnalyticBatchCost:
    """Closed-form batch costs — no engine execution.

    Two pricing paths share one serving surface:

    * a :class:`CapsNetConfig` (or ``None``, the MNIST default) prices
      through the :mod:`repro.perf` closed-form model — orders of
      magnitude faster than executing the scheduler, validated against
      :class:`ScheduledBatchCost` by :func:`crosscheck` (agreement is
      tight but not bit-exact: the scheduler's per-capsule FC jobs and
      activation interleaving differ slightly);
    * a :class:`CompiledNetwork` / zoo name prices straight off the
      compiled instruction stream
      (:func:`repro.compiler.cost.program_batch_cycles`), which **is**
      bit-exact against the scheduled model — any zoo network serves
      analytically with no network-specific modeling code.
    """

    def __init__(
        self,
        network: CapsNetConfig | CompiledNetwork | str | None = None,
        accel_config: AcceleratorConfig | None = None,
        optimized_routing: bool = True,
        pipeline: bool = False,
        window: int = DEFAULT_WINDOW,
        prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
        integrity: str = "none",
    ) -> None:
        _check_integrity_mode(integrity)
        self._config = accel_config if accel_config is not None else AcceleratorConfig()
        self.compiled: CompiledNetwork | None = None
        self.model: CapsAccPerformanceModel | None = None
        if network is None or isinstance(network, CapsNetConfig):
            self.network = network if network is not None else mnist_capsnet_config()
            self.model = CapsAccPerformanceModel(
                accelerator=self._config,
                network=self.network,
                optimized_routing=optimized_routing,
            )
        else:
            self.compiled = as_compiled(network)
            self.network = self.compiled.config
        self.optimized_routing = optimized_routing
        self.pipeline = pipeline
        self.window = window
        self.prestage_depth = prestage_depth
        self.integrity = integrity
        if integrity != "none" and self.compiled is None:
            raise ConfigError(
                "integrity pricing needs a compiled network: the perf-model"
                " path has no instruction stream to checksum — pass a zoo"
                " name or CompiledNetwork instead of a CapsNetConfig"
            )
        self._memo: dict[int, int] = {}
        self._warm_memo: dict[int, int] = {}
        self._pair_memo: dict[tuple[int, int], int] = {}
        self._integrity_memo: dict[int, int] = {}
        self._stream: AnalyticStreamCost | _ProgramStream | None = None
        if pipeline:
            if self.compiled is not None:
                self._stream = _ProgramStream(
                    self._config,
                    self.compiled.program,
                    window=window,
                    prestage_depth=prestage_depth,
                )
            else:
                self._stream = AnalyticStreamCost(
                    network=self.network,
                    accel_config=self._config,
                    optimized_routing=optimized_routing,
                    window=window,
                    prestage_depth=prestage_depth,
                )

    @property
    def config(self) -> AcceleratorConfig:
        """The accelerator configuration costs are computed for."""
        return self._config

    @property
    def network_key(self) -> tuple:
        """Hashable identity of the network shapes this model prices."""
        if self.compiled is not None:
            return _compiled_network_key(self.compiled)
        return (self.network, self.optimized_routing)

    def signature(self) -> tuple:
        """Hashable identity of every parameter that shapes a probe.

        The compiled-program path keys as ``analytic-program``: its
        cycle figures are the instruction stream's exact accounting, not
        the perf model's approximation, so the two paths never share
        probe-cache entries.
        """
        return (
            "analytic-program" if self.compiled is not None else "analytic",
            self.network_key,
            self._config,
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
                self._config, self.compiled.program, batch_size
            )
        return self._integrity_memo[batch_size]

    def pipeline_ops(self, batch_size: int):
        """This model's pipeline op timeline for one batch (pipelined only)."""
        if self._stream is None:
            raise ConfigError("pipeline ops need a cost model built with pipeline=True")
        return self._stream.batch_ops(batch_size)

    def batch_cycles(self, batch_size: int) -> int:
        """Closed-form cycles for one batch (memoized, probe-cache backed)."""
        if batch_size < 1:
            raise ConfigError("batch size must be positive")
        if batch_size not in self._memo:
            key = self.signature() + ("cold", batch_size)
            cached = _PROBE_CACHE.get(key)
            if cached is None:
                if self.compiled is not None:
                    cached = (
                        program_batch_cycles(
                            self._config, self.compiled.program, batch_size
                        )["overlapped"]
                        + self.integrity_cycles(batch_size)
                    )
                else:
                    cached = self.model.run(batch=batch_size).total_cycles
                _PROBE_CACHE[key] = cached
            self._memo[batch_size] = cached
        return self._memo[batch_size]

    def warm_batch_cycles(
        self,
        batch_size: int,
        prev_size: int | None = None,
        prev_cost: "ScheduledBatchCost | AnalyticBatchCost | None" = None,
    ) -> int:
        """Closed-form steady-state cycles of a back-to-back batch.

        Keyed by the ``(prev_size, batch_size)`` pair like the scheduled
        model: mixed-size hand-offs are priced from the settled
        transition batch of a two-size probe stream, and a ``prev_cost``
        pricing a different network routes through the cross-network
        probe (:func:`_cross_pair_cycles`).
        """
        if self._stream is None:
            raise ConfigError("warm costs need a cost model built with pipeline=True")
        cross = _resolve_cross_prev(self, prev_cost)
        if cross is not None:
            return self._cross_warm_cycles(cross, prev_size, batch_size)
        if prev_size is not None and prev_size != batch_size:
            return _pair_warm_cycles(
                self._pair_memo,
                self._stream.stream_timing,
                prev_size,
                batch_size,
                self.batch_cycles(batch_size),
                cache_key=self.signature() + ("pair",),
                extra=self.integrity_cycles(batch_size),
            )
        if batch_size not in self._warm_memo:
            key = self.signature() + ("warm", batch_size)
            cached = _PROBE_CACHE.get(key)
            if cached is None:
                cold = self.batch_cycles(batch_size)
                cached = _PROBE_CACHE[key] = min(
                    self._stream.steady_cycles(batch_size)
                    + self.integrity_cycles(batch_size),
                    cold,
                )
            self._warm_memo[batch_size] = cached
        return self._warm_memo[batch_size]

    def _cross_warm_cycles(self, prev_cost, prev_size: int | None, batch_size: int) -> int:
        if prev_size is None:
            prev_size = batch_size
        key = (self.signature(), "cross", prev_cost.signature(), prev_size, batch_size)
        cached = _PROBE_CACHE.get(key)
        if cached is None:
            cached = _PROBE_CACHE[key] = _cross_pair_cycles(
                self,
                prev_cost,
                prev_size,
                batch_size,
                self.batch_cycles(batch_size),
                extra=self.integrity_cycles(batch_size),
            )
        return cached

    def drain_saved_cycles(
        self,
        batch_size: int,
        prev_size: int | None = None,
        prev_cost: "ScheduledBatchCost | AnalyticBatchCost | None" = None,
    ) -> int:
        """Cycles a warm dispatch saves over a cold one (>= 0)."""
        return self.batch_cycles(batch_size) - self.warm_batch_cycles(
            batch_size, prev_size, prev_cost
        )


def crosscheck(
    scheduled: ScheduledBatchCost,
    analytic: AnalyticBatchCost,
    batch_sizes: tuple[int, ...] = (1, 4, 8),
    rel_tol: float = 0.02,
) -> dict[int, dict[str, float]]:
    """Compare exact scheduler cycles against the closed-form model.

    Returns per-batch-size ``{"scheduled", "analytic", "rel_error"}`` and
    raises :class:`~repro.errors.ConfigError` if any relative error
    exceeds ``rel_tol`` — the guard that keeps the fast analytic path
    consistent with the bit-exact engine.
    """
    report: dict[int, dict[str, float]] = {}
    for batch in batch_sizes:
        exact = scheduled.batch_cycles(batch)
        model = analytic.batch_cycles(batch)
        rel = abs(model - exact) / exact
        report[batch] = {
            "scheduled": float(exact),
            "analytic": float(model),
            "rel_error": float(rel),
        }
        if rel > rel_tol:
            raise ConfigError(
                f"analytic model diverges from scheduler at batch {batch}:"
                f" {model} vs {exact} cycles ({rel:.1%} > {rel_tol:.1%})"
            )
    return report
