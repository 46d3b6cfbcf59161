"""Digitized paper values and calibration targets.

Single source of truth for every number taken from the paper.  Exact
values come from tables; per-layer / per-step times come from reading the
log-scale bar charts (Figs 8, 9, 16, 17) and are therefore approximate —
they are used only as calibration targets and comparison references, never
inside the simulator itself.
"""

from __future__ import annotations

#: Fig 8 (GPU layer-wise inference time, milliseconds; digitized).
PAPER_GPU_LAYER_MS = {
    "Conv1": 1.0,
    "PrimaryCaps": 2.4,
    "ClassCaps": 20.0,
}

#: Fig 9 (GPU routing step time, microseconds; digitized).  The per-step
#: labels follow the paper's x-axis; values for iterations 2/3 are close to
#: iteration 1 in the figure and are digitized jointly.
PAPER_GPU_STEP_US = {
    "Load": 200.0,
    "FC": 150.0,
    "Softmax": 1000.0,
    "Sum": 1000.0,
    "Squash": 4000.0,
    "Update": 1500.0,
}

#: Fig 16 annotations: CapsAcc speedup over GPU per layer (>1 = CapsAcc
#: faster).  Conv1 is annotated "46% slower".
PAPER_LAYER_SPEEDUP = {
    "Conv1": 1.0 / 1.46,
    "ClassCaps": 12.0,
    "Total": 6.0,
}

#: Fig 17 annotations: CapsAcc speedup over GPU per routing step.
PAPER_STEP_SPEEDUP = {
    "Load": 1.09,
    "FC": 1.0 / 1.14,
    "Softmax": 3.0,
    "Sum": 3.0,
    "Squash": 172.0,
    "Update": 6.0,
}

#: Table II: synthesized accelerator parameters.
PAPER_TABLE2 = {
    "technology_nm": 32,
    "voltage_v": 1.05,
    "area_mm2": 2.90,
    "power_mw": 202.0,
    "clock_mhz": 250.0,
    "bit_width": 8,
    "onchip_memory_mb": 8,
}

#: Table III: per-component area (um^2) and power (mW).
PAPER_TABLE3 = {
    "Accumulator": {"area_um2": 311_961, "power_mw": 22.80},
    "Activation": {"area_um2": 143_045, "power_mw": 5.94},
    "Data Buffer": {"area_um2": 1_332_349, "power_mw": 95.96},
    "Routing Buffer": {"area_um2": 316_226, "power_mw": 22.78},
    "Weight Buffer": {"area_um2": 115_643, "power_mw": 8.34},
    "Systolic Array": {"area_um2": 680_525, "power_mw": 46.09},
    "Other": {"area_um2": 4_330, "power_mw": 0.13},
}

#: Fig 18 breakdowns (percent of total), as annotated in the paper.
PAPER_AREA_BREAKDOWN_PCT = {
    "Accumulator": 11.0,
    "Activation": 5.0,
    "Data Buffer": 46.0,
    "Routing Buffer": 11.0,
    "Weight Buffer": 4.0,
    "Systolic Array": 23.0,
    "Other": 0.2,
}

PAPER_POWER_BREAKDOWN_PCT = {
    "Accumulator": 11.0,
    "Activation": 3.0,
    "Data Buffer": 47.0,
    "Routing Buffer": 11.0,
    "Weight Buffer": 4.0,
    "Systolic Array": 23.0,
    "Other": 0.1,
}

#: Fig 3: peak of the squash derivative (paper-reported coordinates; the
#: analytic values are x = 1/sqrt(3) ~ 0.57735 and y = 3*sqrt(3)/8 = 0.6495).
PAPER_SQUASH_DERIVATIVE_PEAK = (0.5767, 0.6495)
