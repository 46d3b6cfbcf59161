"""Fig 16: layer-wise CapsAcc vs GPU comparison.

The paper annotates: ClassCaps 12x faster, overall 6x faster, Conv1 46%
slower.  The compiled convolution mapping (output channels across
columns) makes Conv1 *faster* than the GPU as well; the paper's
accumulator-minimizing channel-serial mapping is slower than the GPU on
Conv1, bracketing the paper's annotation — see the conv-mapping ablation
(:func:`repro.experiments.ablations.conv_mapping_policy`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capsnet.config import CapsNetConfig
from repro.experiments.common import format_table, log_bar_chart, ratio_label
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import SpeedupReport, compare_layers


@dataclass
class Fig16Result:
    """Layer comparison plus the direction check against the paper."""

    report: SpeedupReport
    directions: dict[str, bool]


def run(
    config: CapsNetConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
) -> Fig16Result:
    """Run the Fig 16 comparison."""
    report = compare_layers(network=config, accelerator=accelerator)
    directions = {row.name: row.direction_matches_paper for row in report.rows}
    return Fig16Result(report=report, directions=directions)


def format_report(result: Fig16Result) -> str:
    """Printable Fig 16 with paper annotations."""
    rows = []
    chart_values: dict[str, float] = {}
    for row in result.report.rows:
        paper = ratio_label(row.paper_speedup) if row.paper_speedup else "-"
        rows.append((row.name, row.gpu_us / 1e3, row.capsacc_us / 1e3, ratio_label(row.speedup), paper))
        chart_values[f"{row.name} GPU"] = row.gpu_us / 1e3
        chart_values[f"{row.name} CapsAcc"] = row.capsacc_us / 1e3
    table = format_table(
        ["Layer", "GPU [ms]", "CapsAcc [ms]", "speedup", "paper"],
        rows,
        title="Fig 16: layer-wise CapsAcc vs GPU",
    )
    chart = log_bar_chart(chart_values, "ms")
    return table + "\n\n" + chart
