"""Cycle-stepped, bit-accurate CapsAcc micro-architecture simulator.

Models the architecture of paper Section IV / Figures 10-11:

* :mod:`repro.hw.pe` — one processing element (scalar reference of Fig 11b).
* :mod:`repro.hw.systolic` — the n x m systolic array, vectorized across
  PEs but cycle-for-cycle and bit-for-bit equivalent to the scalar PE.
* :mod:`repro.hw.accumulator` — per-column FIFO accumulators (Fig 11c).
* :mod:`repro.hw.activation` — the activation unit with ReLU / norm /
  squash / softmax datapaths and their paper latencies (Fig 11d-g).
* :mod:`repro.hw.buffers` — data / routing / weight buffers and memories
  with bandwidth limits and access counting (for the power model).
* :mod:`repro.hw.accelerator` — the top level that executes GEMM jobs and
  layer schedules, producing both bit-exact results and cycle statistics;
  its ``gemm_cycles``/``gemm_stats`` formulas are what
  :mod:`repro.compiler.cost` prices compiled programs with.
* :mod:`repro.hw.pipeline` / :mod:`repro.hw.scheduler` — the pipelined
  stream schedule and the batched scheduler wrappers.
"""

from repro.hw.config import AcceleratorConfig
from repro.hw.stats import CycleStats
from repro.hw.pe import ProcessingElement
from repro.hw.systolic import SystolicArray
from repro.hw.accumulator import AccumulatorBank
from repro.hw.activation import ActivationUnit, activation_latency
from repro.hw.buffers import Buffer, MemoryModel
from repro.hw.accelerator import CapsAccAccelerator, GemmJob

# The batched scheduler depends on the quantized model layer; re-export it
# lazily so `import repro.hw` alone doesn't pull the full CapsNet stack.
_SCHEDULER_EXPORTS = ("BatchResult", "BatchScheduler", "LayerReport")


def __getattr__(name: str):
    if name in _SCHEDULER_EXPORTS:
        from repro.hw import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BatchResult",
    "BatchScheduler",
    "LayerReport",
    "AcceleratorConfig",
    "CycleStats",
    "ProcessingElement",
    "SystolicArray",
    "AccumulatorBank",
    "ActivationUnit",
    "activation_latency",
    "Buffer",
    "MemoryModel",
    "CapsAccAccelerator",
    "GemmJob",
]
