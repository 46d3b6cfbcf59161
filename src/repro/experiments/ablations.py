"""Ablation studies for the design choices DESIGN.md calls out.

The CapsAcc timings are priced from the compiled CapsNet program
(:func:`repro.perf.compare.capsacc_layer_cycles`):

* **Routing optimization** (Section V-C): skipping the first softmax.
* **Weight double-buffering** (the Weight2 register, Section IV-A).
* **Systolic array size** sweep.
* **Convolution mapping policy** (channel-parallel vs channel-serial).
* **Bit width** sweep: area/power of wider datapaths plus the squash LUT
  error at reduced input precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.compiler.cost import program_layers
from repro.experiments.common import format_table
from repro.fixedpoint.luts import build_squash_lut
from repro.fixedpoint.formats import QFormat
from repro.hw.accelerator import gemm_cycles
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import capsacc_layer_cycles, capsacc_program
from repro.synthesis.report import SynthesisReport


@dataclass
class AblationResult:
    """One ablation axis: named variants and their metric values."""

    axis: str
    metric: str
    variants: dict[str, float] = field(default_factory=dict)

    def ratio(self, variant_a: str, variant_b: str) -> float:
        """Metric ratio between two variants."""
        return self.variants[variant_a] / self.variants[variant_b]


def _total_ms(
    config: CapsNetConfig, accel: AcceleratorConfig, optimized_routing: bool = True
) -> float:
    cycles = sum(capsacc_layer_cycles(config, accel, optimized_routing).values())
    return cycles / accel.clock_mhz / 1e3


def routing_optimization(config: CapsNetConfig | None = None) -> AblationResult:
    """Total inference time with and without the first-softmax skip."""
    config = config if config is not None else mnist_capsnet_config()
    result = AblationResult(axis="routing-optimization", metric="total_ms")
    for label, optimized in (("optimized (skip softmax1)", True), ("textbook", False)):
        result.variants[label] = _total_ms(config, AcceleratorConfig(), optimized)
    return result


def weight_double_buffering(config: CapsNetConfig | None = None) -> AblationResult:
    """Total inference time with and without the Weight2 register.

    Without it every weight-tile load stalls the array: the program's
    sequential cycles instead of its double-buffered ones.
    """
    config = config if config is not None else mnist_capsnet_config()
    result = AblationResult(axis="weight-double-buffering", metric="total_ms")
    for label, accel in (
        ("double-buffered (Weight2)", AcceleratorConfig()),
        ("single-buffered", AcceleratorConfig().without_weight_reuse()),
    ):
        result.variants[label] = _total_ms(config, accel)
    return result


def array_size_sweep(
    config: CapsNetConfig | None = None,
    sizes: tuple[int, ...] = (4, 8, 16, 32),
) -> AblationResult:
    """Total inference time across systolic array sizes."""
    config = config if config is not None else mnist_capsnet_config()
    result = AblationResult(axis="array-size", metric="total_ms")
    for size in sizes:
        accel = AcceleratorConfig().with_array(size, size)
        result.variants[f"{size}x{size}"] = _total_ms(config, accel)
    return result


def conv_mapping_policy(config: CapsNetConfig | None = None) -> AblationResult:
    """Conv1 latency under the two convolution mapping policies.

    ``channel_parallel`` is the compiled mapping (output channels across
    the array columns) and wins against the GPU.  ``channel_serial`` is
    the paper's accumulator-minimizing traversal: the compiled Conv1
    ``GEMM (m, k, n)`` runs as ``n`` single-column ``(m, k, 1)`` jobs,
    plus the same ReLU.  It loses to the GPU on Conv1, consistent with
    the paper's "46% slower" annotation.
    """
    config = config if config is not None else mnist_capsnet_config()
    accel = AcceleratorConfig()
    program = capsacc_program(config)
    gemm = next(i for i in program.gemm_instructions() if i.layer == "conv1")
    m, k, n = gemm.attrs["m"], gemm.attrs["k"], gemm.attrs["n"]
    relu = program_layers(accel, program, 1)["conv1"].stats.activation_cycles
    cycles = {
        "channel_parallel": capsacc_layer_cycles(config, accel)["conv1"],
        "channel_serial": n * gemm_cycles(accel, m, k, 1)["total"] + relu,
    }
    result = AblationResult(axis="conv-mapping", metric="conv1_us")
    for policy, count in cycles.items():
        result.variants[policy] = count / accel.clock_mhz
    return result


def bitwidth_sweep(widths: tuple[int, ...] = (4, 6, 8, 12, 16)) -> AblationResult:
    """Accelerator area as the data/weight width scales.

    The accumulator width tracks the product width plus the paper's nine
    guard bits (8+8 -> 25).
    """
    result = AblationResult(axis="bit-width", metric="area_mm2")
    for width in widths:
        accel = AcceleratorConfig(
            data_bits=width, weight_bits=width, acc_bits=2 * width + 9
        )
        report = SynthesisReport(config=accel)
        result.variants[f"{width}b"] = report.table2()["area_mm2"]
    return result


def squash_lut_precision(
    data_bits: tuple[int, ...] = (4, 5, 6, 7, 8),
    samples: int = 4000,
    seed: int = 5,
) -> AblationResult:
    """End-to-end squash error as the LUT data input width scales.

    Random real (component, norm) pairs are quantized onto the LUT input
    grids, looked up, and compared against the exact squash output —
    capturing input quantization, table rounding and output quantization
    together.  The paper chose a 6-bit data input; the sweep shows the
    accuracy knee around that choice.
    """
    import numpy as np

    from repro.fixedpoint.luts import squash_gain
    from repro.fixedpoint.quantize import from_raw, to_raw

    rng = np.random.default_rng(seed)
    result = AblationResult(axis="squash-lut-precision", metric="mean_abs_error")
    for bits in data_bits:
        fmt = QFormat(total_bits=bits, frac_bits=bits - 3)
        lut = build_squash_lut(data_fmt=fmt)
        norms = rng.uniform(0.0, lut.b_fmt.max_value, size=samples)
        components = rng.uniform(-1.0, 1.0, size=samples) * norms
        exact = components * squash_gain(norms)
        got = from_raw(
            lut.lookup(to_raw(components, fmt), to_raw(norms, lut.b_fmt)), lut.out_fmt
        )
        result.variants[f"{bits}b data"] = float(np.mean(np.abs(got - exact)))
    return result


def run_all(config: CapsNetConfig | None = None) -> list[AblationResult]:
    """Every ablation in one list."""
    config = config if config is not None else mnist_capsnet_config()
    return [
        routing_optimization(config),
        weight_double_buffering(config),
        array_size_sweep(config),
        conv_mapping_policy(config),
        bitwidth_sweep(),
        squash_lut_precision(),
    ]


def format_report(results: list[AblationResult]) -> str:
    """Printable ablation summary."""
    blocks = []
    for result in results:
        rows = [(name, value) for name, value in result.variants.items()]
        blocks.append(
            format_table(
                ["variant", result.metric],
                rows,
                title=f"Ablation: {result.axis}",
            )
        )
    return "\n\n".join(blocks)
