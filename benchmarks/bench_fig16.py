"""Benchmark: regenerate Fig 16 (layer-wise CapsAcc vs GPU)."""

from repro.experiments import ablations, fig16


def test_fig16(benchmark):
    result = benchmark(fig16.run)
    report = result.report
    # Reproduction claims: ClassCaps near the paper's 12x, total in the
    # single-digit-x band of the paper's 6x.
    assert 8.0 < report.row("ClassCaps").speedup < 20.0
    assert 3.0 < report.row("Total").speedup < 9.0
    benchmark.extra_info["speedups"] = {
        row.name: round(row.speedup, 2) for row in report.rows
    }
    print(fig16.format_report(result))


def test_fig16_channel_serial_conv(benchmark):
    """The paper-literal accumulator-minimizing conv mapping (ablation):
    under it the GPU wins Conv1, as the paper's '46% slower' annotation."""
    result = benchmark(ablations.conv_mapping_policy)
    gpu_us = fig16.run().report.row("Conv1").gpu_us
    speedup = gpu_us / result.variants["channel_serial"]
    assert speedup < 1.0
    benchmark.extra_info["conv1_speedup"] = round(speedup, 3)
