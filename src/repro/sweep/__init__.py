"""Design-space sweep engine: declarative grids over the cost models.

Design-space exploration — window / prestage-depth / array size through
the compiled program's stream timing, serving policies through the fast
simulator — needs thousands of cheap evaluations.  This package
provides the three pieces:

* :func:`~repro.sweep.grid.expand_grid` — declarative parameter grids
  (a mapping of axis name to values, expanded to the cartesian product
  in declaration order);
* :class:`~repro.sweep.runner.SweepSpec` — one sweep description: the
  tier (``analytic`` prices each point from the network's compiled
  program, :func:`~repro.compiler.cost.program_stream_timing`;
  ``serving`` runs the
  streaming-fast serving simulator), the network, the swept axes, and
  the fixed serving settings;
* :func:`~repro.sweep.runner.run_sweep` — evaluates every point,
  optionally fanned out across processes, returning a
  :class:`~repro.sweep.runner.SweepResult` with JSON/CSV writers and a
  printable table.

The ``repro sweep`` CLI is a thin front-end over these.
"""

from repro.sweep.grid import expand_grid
from repro.sweep.runner import (
    ANALYTIC_AXES,
    SERVING_AXES,
    SweepResult,
    SweepSpec,
    evaluate_point,
    run_sweep,
)

__all__ = [
    "ANALYTIC_AXES",
    "SERVING_AXES",
    "SweepResult",
    "SweepSpec",
    "evaluate_point",
    "expand_grid",
    "run_sweep",
]
