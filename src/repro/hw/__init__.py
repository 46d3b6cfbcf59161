"""Cycle-stepped, bit-accurate CapsAcc micro-architecture simulator.

Models the architecture of paper Section IV / Figures 10-11:

* :mod:`repro.hw.pe` — one processing element (scalar reference of Fig 11b).
* :mod:`repro.hw.systolic` — the n x m systolic array, vectorized across
  PEs but cycle-for-cycle and bit-for-bit equivalent to the scalar PE.
* :mod:`repro.hw.accumulator` — per-column FIFO accumulators (Fig 11c).
* :mod:`repro.hw.activation` — the activation unit with ReLU / norm /
  squash / softmax datapaths and their paper latencies (Fig 11d-g).
* :mod:`repro.hw.buffers` — data / routing / weight buffers with
  bandwidth limits and access counting (for the power model).
* :mod:`repro.hw.accelerator` — the top level: GEMM tiling, the stepped
  array engine and buffer read counters; its ``gemm_cycles``/
  ``gemm_stats`` formulas are what :mod:`repro.compiler.cost` prices
  compiled programs with.
* :mod:`repro.hw.pipeline` — the pipelined stream schedule that
  :mod:`repro.compiler.cost` drives with compiled programs' op timelines.
* :mod:`repro.hw.report` — the per-layer and per-batch reports the
  compiled-stream executor returns.
"""

from repro.hw.config import AcceleratorConfig
from repro.hw.stats import CycleStats
from repro.hw.pe import ProcessingElement
from repro.hw.systolic import SystolicArray
from repro.hw.accumulator import AccumulatorBank
from repro.hw.activation import ActivationUnit, activation_latency
from repro.hw.buffers import Buffer
from repro.hw.accelerator import CapsAccAccelerator

__all__ = [
    "AcceleratorConfig",
    "CycleStats",
    "ProcessingElement",
    "SystolicArray",
    "AccumulatorBank",
    "ActivationUnit",
    "activation_latency",
    "Buffer",
    "CapsAccAccelerator",
]
