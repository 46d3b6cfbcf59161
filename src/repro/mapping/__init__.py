"""Dataflow mappings of CapsuleNet operations onto the accelerator.

Implements paper Section V alongside the compiler (:mod:`repro.compiler`),
whose lowering fixes the Fig 12/14 layer and routing mappings and whose
cost model prices them:

* :mod:`repro.mapping.loopnest` — the mapping loop nest of Fig 13.
* :mod:`repro.mapping.execute` — executable lowering: runs an actual
  quantized inference through the cycle-level accelerator, producing
  results that are bit-identical to :class:`repro.capsnet.quantized.
  QuantizedCapsuleNet` (the functional-compliance proof).
"""

from repro.mapping.loopnest import Loop, LoopNest, capsule_loop_nest
from repro.mapping.execute import MappedInference, MappedResult

__all__ = [
    "Loop",
    "LoopNest",
    "capsule_loop_nest",
    "MappedInference",
    "MappedResult",
]
