"""Performance models: the CapsAcc figures and the GPU baseline.

* :mod:`repro.perf.compare` — the CapsAcc side of Figs 16/17 and the
  ablations, priced from the compiled CapsNet program
  (:func:`~repro.perf.compare.capsacc_layer_cycles`), plus speedup
  computation and paper comparison.
* :mod:`repro.perf.gpu` / :mod:`repro.perf.kernels` — the framework-op-level
  GPU model substituting the paper's GTX1070 + PyTorch measurements.
* :mod:`repro.perf.calibration` — the single place where digitized paper
  values and calibration constants live.
* :mod:`repro.perf.roofline` — the roofline behind the Section III
  motivation.
"""

from repro.perf.gpu import GpuDeviceProfile, GpuModel, gtx1070_paper_profile, gtx1070_ideal_profile
from repro.perf.kernels import CapsNetGpuWorkload, ImplementationProfile
from repro.perf.compare import (
    SpeedupReport,
    capsacc_layer_cycles,
    compare_layers,
    compare_routing_steps,
)

__all__ = [
    "GpuDeviceProfile",
    "GpuModel",
    "gtx1070_paper_profile",
    "gtx1070_ideal_profile",
    "CapsNetGpuWorkload",
    "ImplementationProfile",
    "SpeedupReport",
    "capsacc_layer_cycles",
    "compare_layers",
    "compare_routing_steps",
]
