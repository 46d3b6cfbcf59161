"""Performance models: CapsAcc cycle model and the GPU baseline.

* :mod:`repro.perf.cycles` — closed-form cycle accounting for mapped
  stages, built on the same formulas as the cycle-stepped simulator
  (exact agreement asserted in tests).
* :mod:`repro.perf.model` — :class:`CapsAccPerformanceModel`, producing the
  per-layer (Fig 16) and per-routing-step (Fig 17) numbers in real time
  units.
* :mod:`repro.perf.gpu` / :mod:`repro.perf.kernels` — the framework-op-level
  GPU model substituting the paper's GTX1070 + PyTorch measurements.
* :mod:`repro.perf.calibration` — the single place where digitized paper
  values and calibration constants live.
* :mod:`repro.perf.compare` — speedup computation and paper comparison.
"""

from repro.perf.cycles import StagePerf, stage_performance
from repro.perf.model import CapsAccPerformanceModel, InferencePerformance
from repro.perf.gpu import GpuDeviceProfile, GpuModel, gtx1070_paper_profile, gtx1070_ideal_profile
from repro.perf.kernels import CapsNetGpuWorkload, ImplementationProfile
from repro.perf.compare import SpeedupReport, compare_layers, compare_routing_steps

__all__ = [
    "StagePerf",
    "stage_performance",
    "CapsAccPerformanceModel",
    "InferencePerformance",
    "GpuDeviceProfile",
    "GpuModel",
    "gtx1070_paper_profile",
    "gtx1070_ideal_profile",
    "CapsNetGpuWorkload",
    "ImplementationProfile",
    "SpeedupReport",
    "compare_layers",
    "compare_routing_steps",
]
