"""Closed-form pipelined stream cost (the analytic side of the pipeline).

:class:`AnalyticStreamCost` prices the stream-pipelined schedule of
:mod:`repro.hw.pipeline` without executing any data: per-batch pipeline
ops are derived from the shape-level stage descriptions of
:mod:`repro.mapping.shapes` (the same source the non-pipelined
:class:`~repro.perf.model.CapsAccPerformanceModel` prices), then run
through the identical stream timing model.  This is the pipelined
counterpart of :class:`~repro.serve.costs.AnalyticBatchCost`: orders of
magnitude faster than probing the execution engine, and kept honest by
:func:`stream_crosscheck` against the compiled program's exact timing
(:class:`~repro.hw.scheduler.PipelinedStreamScheduler`).

The two sides differ only in their inputs — the analytic ops include the
mapping model's bulk-transfer steps, the program's ops reflect the
compiled stream's exact job interleaving — so agreement is tight (<2 %) but not
bit-exact, mirroring the ``AnalyticBatchCost`` / ``ScheduledBatchCost``
relationship established for the non-pipelined path.
"""

from __future__ import annotations

from typing import Sequence

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.errors import ConfigError
from repro.hw.accelerator import plan_tiling
from repro.hw.activation import batched_activation_latency
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
from repro.mapping.shapes import batch_stage, full_inference_stages, transfer_cycles

#: Analytic per-batch op timelines, shared across instances: the
#: expansion is pure in (network, optimized_routing, conv_policy, accel
#: config, batch), so sweep points revisiting the same shapes — every
#: window/prestage setting of one array size, every serving run of one
#: configuration — skip the rebuild.
_ANALYTIC_OPS_CACHE: dict[tuple, list[PipelineOp]] = {}


def clear_analytic_ops_cache() -> None:
    """Drop every memoized analytic op timeline."""
    _ANALYTIC_OPS_CACHE.clear()

#: Stream length used to probe the steady state: long enough for the
#: settled window (see ``StreamTiming.steady_marginal_cycles``) to cover
#: a whole period of the marginal — on some shapes the two in-flight
#: batches alternate roles, so settled marginals oscillate with period
#: two and the steady state is their average (asserted in tests).
PROBE_STREAM_LENGTH = 7


class AnalyticStreamCost:
    """Closed-form cold/steady-state costs of the pipelined stream schedule.

    Parameters
    ----------
    network:
        CapsuleNet architecture (defaults to the paper's MNIST network).
    accel_config:
        Accelerator configuration (array size, FIFO depth, ...).
    optimized_routing:
        Apply the first-softmax skip (paper Section V-C).
    conv_policy:
        Convolution mapping policy (see :func:`repro.mapping.shapes.conv_stage`).
    window / prestage_depth:
        Stream-pipeline parameters (see :mod:`repro.hw.pipeline`).
    """

    def __init__(
        self,
        network: CapsNetConfig | None = None,
        accel_config: AcceleratorConfig | None = None,
        optimized_routing: bool = True,
        conv_policy: str = "channel_parallel",
        window: int = DEFAULT_WINDOW,
        prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
    ) -> None:
        self.network = network if network is not None else mnist_capsnet_config()
        self._config = accel_config if accel_config is not None else AcceleratorConfig()
        self.optimized_routing = optimized_routing
        self.conv_policy = conv_policy
        self.window = window
        self.prestage_depth = prestage_depth
        self._ops_memo: dict[int, list[PipelineOp]] = {}
        self._cold_memo: dict[int, int] = {}
        self._steady_memo: dict[int, int] = {}

    @property
    def config(self) -> AcceleratorConfig:
        """The accelerator configuration costs are computed for."""
        return self._config

    def batch_ops(self, batch: int) -> list[PipelineOp]:
        """Pipeline ops of one batch, derived from the mapped stage shapes.

        Memoized per instance and module-wide (the expansion is pure in
        the network / mapping policy / accelerator config / batch size).
        """
        if batch < 1:
            raise ConfigError("batch size must be positive")
        if batch not in self._ops_memo:
            key = (
                self.network,
                self.optimized_routing,
                self.conv_policy,
                self._config,
                batch,
            )
            cached = _ANALYTIC_OPS_CACHE.get(key)
            if cached is not None:
                self._ops_memo[batch] = cached
                return cached
            config = self._config
            ops: list[PipelineOp] = []
            stages = full_inference_stages(
                self.network,
                optimized_routing=self.optimized_routing,
                conv_policy=self.conv_policy,
            )
            for stage in stages:
                staged = batch_stage(stage, batch)
                for gemm in staged.gemms:
                    plan = plan_tiling(config, gemm.m, gemm.k, gemm.n)
                    ops.extend(
                        job_ops(
                            config,
                            plan,
                            groups=gemm.count,
                            weight_source=gemm.weight_source,
                            layer=staged.name,
                        )
                    )
                for work in staged.activations:
                    units = work.units if work.units is not None else config.cols
                    ops.append(
                        activation_op(
                            batched_activation_latency(
                                work.mode, work.n, work.groups, units
                            ),
                            layer=staged.name,
                        )
                    )
                if staged.transfer_words:
                    ops.append(
                        activation_op(
                            transfer_cycles(
                                staged.transfer_words, config.data_bus_words
                            ),
                            layer=staged.name,
                        )
                    )
            self._ops_memo[batch] = _ANALYTIC_OPS_CACHE[key] = ops
        return self._ops_memo[batch]

    def stream_timing(self, batch_sizes: Sequence[int]) -> StreamTiming:
        """Pipelined timing of an arbitrary stream of batch sizes.

        Memoized through :func:`repro.hw.pipeline.cached_stream_timing`
        (repeated identical probe streams are bit-identical cache hits).
        """
        ops = [self.batch_ops(size) for size in batch_sizes]
        return cached_stream_timing(
            ops,
            list(batch_sizes),
            window=self.window,
            prestage_depth=self.prestage_depth,
        )

    def cold_cycles(self, batch: int) -> int:
        """Cycles for one batch alone, the pipeline starting empty."""
        if batch not in self._cold_memo:
            self._cold_memo[batch] = self.stream_timing([batch]).finish_cycles
        return self._cold_memo[batch]

    def steady_cycles(self, batch: int) -> int:
        """Steady-state marginal cycles of one batch in a homogeneous stream."""
        if batch not in self._steady_memo:
            timing = self.stream_timing([batch] * PROBE_STREAM_LENGTH)
            self._steady_memo[batch] = timing.steady_marginal_cycles
        return self._steady_memo[batch]

    def cycles_per_image(self, batch: int, steady: bool = True) -> float:
        """Amortized cycles per image (steady-state by default)."""
        cycles = self.steady_cycles(batch) if steady else self.cold_cycles(batch)
        return cycles / batch


def stream_crosscheck(
    scheduled,
    analytic: AnalyticStreamCost,
    batch_sizes: tuple[int, ...] = (1, 4, 8),
    rel_tol: float = 0.02,
) -> dict[int, dict[str, float]]:
    """Compare the compiled program's stream timing against the closed form.

    ``scheduled`` is a :class:`~repro.hw.scheduler.PipelinedStreamScheduler`
    (duck-typed: anything with ``probe_timing``).  Per batch size, the
    steady-state marginal of a homogeneous probe stream is compared;
    raises :class:`~repro.errors.ConfigError` beyond ``rel_tol`` — the
    guard that keeps the fast analytic path honest.
    """
    report: dict[int, dict[str, float]] = {}
    for batch in batch_sizes:
        exact = scheduled.probe_timing([batch] * PROBE_STREAM_LENGTH).steady_marginal_cycles
        model = analytic.steady_cycles(batch)
        rel = abs(model - exact) / exact
        report[batch] = {
            "scheduled": float(exact),
            "analytic": float(model),
            "rel_error": float(rel),
        }
        if rel > rel_tol:
            raise ConfigError(
                f"analytic stream cost diverges from the scheduler at batch"
                f" {batch}: {model} vs {exact} cycles ({rel:.1%} > {rel_tol:.1%})"
            )
    return report
