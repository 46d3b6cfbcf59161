"""Batched multi-image scheduling of *compiled* instruction streams.

:class:`BatchScheduler` consumes the graph→ISA compiler
(:mod:`repro.compiler`): any network — a
:class:`~repro.compiler.zoo.CompiledNetwork`, a
:class:`~repro.capsnet.quantized.QuantizedCapsuleNet` (compiled on the fly,
program memoized per architecture) or a zoo name string — lowers to one
instruction stream, and a :class:`~repro.compiler.executor.StreamExecutor`
runs it batch by batch:

* **Convolutions** — the batch's im2col patches stack into a single
  ``(B*M, K)`` stream per weight tile (one ``GEMM`` instruction), so each
  tile loads once per *batch* instead of once per image — the paper's
  weight reuse extended across images.
* **ClassCaps FC** — one ``GEMM`` per input capsule: the capsule's private
  weight matrix is loaded once and the ``B`` capsule vectors stream
  through it (``M = B`` instead of ``M = 1``).
* **Routing** — coupling coefficients differ per image, so the
  per-(image, class) GEMMs execute as ``GROUPED_GEMM`` instructions whose
  accounting is their exact sequential sum.

Cycles and pipeline op timelines come from the compiled program
(:mod:`repro.compiler.cost`), never from tracing an execution; the
accounting is pinned by ``tests/compiler/fixtures/zoo_accounting.json``.
For the MNIST CapsNet the outputs match
:class:`~repro.mapping.execute.MappedInference` image for image.
"""

from __future__ import annotations

import numpy as np
from typing import Iterable, Sequence

from dataclasses import dataclass

from repro.compiler.cost import (
    program_ops,
    program_steady_cycles,
    program_stream_timing,
)
from repro.compiler.executor import StreamExecutor
from repro.compiler.zoo import CompiledNetwork, as_compiled
from repro.errors import ShapeError
from repro.hw.accelerator import CapsAccAccelerator
from repro.hw.pipeline import (
    DEFAULT_PRESTAGE_DEPTH,
    DEFAULT_WINDOW,
    PipelineOp,
    StreamTiming,
)
from repro.hw.report import BatchResult, LayerReport, TraceEvent

__all__ = [
    "BatchResult",
    "BatchScheduler",
    "LayerReport",
    "PipelinedStreamScheduler",
    "StreamResult",
    "TraceEvent",
]


class BatchScheduler:
    """Schedules whole compiled networks as batched GEMM jobs.

    ``network`` may be a :class:`CompiledNetwork`, a
    :class:`QuantizedCapsuleNet` or a zoo name (see
    :func:`repro.compiler.zoo.as_compiled`).
    """

    def __init__(
        self,
        network,
        accelerator: CapsAccAccelerator | None = None,
        engine: str = "fast",
    ) -> None:
        compiled = as_compiled(network)
        self.compiled = compiled
        #: The quantized golden model, when the network has one (CapsNet
        #: architectures); ``None`` for pure zoo baselines.
        self.qnet = compiled.qnet
        if accelerator is None:
            accelerator = CapsAccAccelerator(formats=compiled.formats)
        self.accelerator = accelerator
        self.engine = engine
        # Share the network's ROMs so all paths are the same bits.
        self._executor = StreamExecutor(
            compiled.program,
            compiled.params,
            compiled.formats,
            luts=compiled.luts,
            accelerator=accelerator,
            engine=engine,
        )

    @property
    def activation(self):
        """The shared activation unit (LUT ROMs included)."""
        return self._executor.activation

    def run_batch(self, images: np.ndarray) -> BatchResult:
        """Execute one batch of ``(B, H, W)`` or ``(B, C, H, W)`` images."""
        return self._executor.run_batch(images)


# ---- stream-level cross-batch pipelining -------------------------------------


@dataclass
class StreamResult:
    """Outputs and pipelined timing of one scheduled batch stream.

    ``results`` are the per-batch :class:`BatchResult` objects — produced
    by the same engine as :class:`BatchScheduler`, so outputs are
    bit-identical to scheduling each batch standalone.  ``timing`` is the
    stream-pipelined schedule; the non-pipelined reference (the sum of
    each batch's double-buffered accounting) is kept for comparison.
    """

    results: list[BatchResult]
    timing: StreamTiming

    @property
    def predictions(self) -> np.ndarray:
        """Concatenated predictions across the stream."""
        return np.concatenate([result.predictions for result in self.results])

    @property
    def total_images(self) -> int:
        """Images across every batch."""
        return sum(result.batch for result in self.results)

    @property
    def overlapped_cycles(self) -> int:
        """Non-pipelined reference: per-batch double-buffered accounting."""
        return sum(result.overlapped_cycles for result in self.results)

    def pipelined_speedup(self) -> float:
        """Whole-stream speedup over per-batch double-buffered scheduling."""
        finish = self.timing.finish_cycles
        if finish == 0:
            return 0.0
        return self.overlapped_cycles / finish


class PipelinedStreamScheduler:
    """Schedules a *stream* of batches with cross-batch pipelining.

    Wraps a :class:`BatchScheduler`: every batch executes through the
    same engine (outputs bit-identical, image for image), while timing
    comes from the stream schedule of :mod:`repro.hw.pipeline` over the
    compiled program's op timelines — weight tiles prestage across
    job/layer/batch boundaries and up to ``window`` batches keep the
    array hot through each other's activation passes.
    """

    def __init__(
        self,
        network,
        accelerator: CapsAccAccelerator | None = None,
        engine: str = "fast",
        window: int = DEFAULT_WINDOW,
        prestage_depth: int = DEFAULT_PRESTAGE_DEPTH,
    ) -> None:
        self.scheduler = BatchScheduler(network, accelerator=accelerator, engine=engine)
        self.window = window
        self.prestage_depth = prestage_depth

    @property
    def compiled(self) -> CompiledNetwork:
        return self.scheduler.compiled

    @property
    def qnet(self):
        """The quantized golden model, when the network has one."""
        return self.scheduler.qnet

    @property
    def accelerator(self) -> CapsAccAccelerator:
        return self.scheduler.accelerator

    def batch_ops(self, batch_size: int) -> list[PipelineOp]:
        """Pipeline ops of one batch (shape-driven, shared across instances)."""
        if batch_size < 1:
            raise ShapeError("batch must contain at least one image")
        return program_ops(self.accelerator.config, self.compiled.program, batch_size)

    def probe_timing(self, batch_sizes: Sequence[int]) -> StreamTiming:
        """Stream timing for a sequence of batch sizes, without execution."""
        return program_stream_timing(
            self.accelerator.config,
            self.compiled.program,
            batch_sizes,
            window=self.window,
            prestage_depth=self.prestage_depth,
        )

    def steady_state_cycles(self, batch_size: int, stream_length: int = 7) -> int:
        """Steady-state marginal cycles of one batch in a homogeneous stream.

        Seven batches are enough for the settled window to cover a whole
        period of the marginal (the cold fill takes three batches to wash
        out, and settled marginals can oscillate with period two; tests
        assert stability across stream lengths).
        """
        return program_steady_cycles(
            self.accelerator.config,
            self.compiled.program,
            batch_size,
            stream_length,
            window=self.window,
            prestage_depth=self.prestage_depth,
        )

    def run_stream(self, batches: Iterable[np.ndarray]) -> StreamResult:
        """Execute a stream of batches; outputs bit-identical, timing pipelined."""
        results = [self.scheduler.run_batch(np.asarray(images)) for images in batches]
        if not results:
            raise ShapeError("a stream needs at least one batch")
        timing = self.probe_timing([result.batch for result in results])
        return StreamResult(results=results, timing=timing)
