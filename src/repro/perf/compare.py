"""CapsAcc-vs-GPU comparison (Figs 16 and 17) and paper-value checks.

The CapsAcc side of every paper figure is priced from the compiled
CapsNet program (:mod:`repro.compiler.cost`), the same stream serving and
the sweep price: :func:`capsacc_layer_cycles` gives the cycles per compiled
layer plus the routing steps' bulk buffer transfers.  The comparison
functions pair it with the GPU workload model and compute speedups per
layer and per routing step, next to the paper's annotated factors,
producing the data behind Figs 16/17 and the rows recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.compiler.cost import program_layers, program_transfer_cycles
from repro.compiler.isa import Program
from repro.compiler.lower import compile_graph
from repro.compiler.zoo import capsnet_graph
from repro.hw.config import AcceleratorConfig
from repro.perf import calibration
from repro.perf.gpu import GpuModel, gtx1070_paper_profile
from repro.perf.kernels import CapsNetGpuWorkload

#: Compiled layers reported under their own paper layer; the rest is ClassCaps.
PAPER_LAYERS = {"conv1": "Conv1", "primarycaps": "PrimaryCaps"}


@functools.lru_cache(maxsize=8)
def capsacc_program(network: CapsNetConfig, optimized_routing: bool = True) -> Program:
    """The compiled CapsNet stream the CapsAcc figures are priced from."""
    return compile_graph(capsnet_graph(network, optimized_routing=optimized_routing))


def capsacc_layer_cycles(
    network: CapsNetConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
    optimized_routing: bool = True,
    batch: int = 1,
) -> dict[str, int]:
    """CapsAcc cycles per compiled layer of one batch, in stream order.

    Each layer's :func:`~repro.compiler.cost.program_layers` cycles —
    double-buffered, or sequential when ``accelerator`` has no Weight2
    register — plus its bulk buffer transfers
    (:func:`~repro.compiler.cost.program_transfer_cycles`).  Fig 17's
    ``load`` step and an optimized (skipped) ``softmax1`` are
    transfer-only layers.
    """
    network = network if network is not None else mnist_capsnet_config()
    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    program = capsacc_program(network, optimized_routing)
    layers = program_layers(accelerator, program, batch)
    transfers = program_transfer_cycles(accelerator, program, batch)
    cycles = dict.fromkeys(
        instr.layer
        for instr in program.instructions
        if instr.layer in layers or instr.layer in transfers
    )
    for name in cycles:
        report = layers.get(name)
        if report is None:
            compute = 0
        elif accelerator.weight_double_buffer:
            compute = report.overlapped_cycles
        else:
            compute = report.stats.total_cycles
        cycles[name] = compute + transfers.get(name, 0)
    return cycles


def layer_times_us(cycles: dict[str, int], clock_mhz: float) -> dict[str, float]:
    """Per-paper-layer latency in microseconds (the Fig 16 aggregation)."""
    layers = {"Conv1": 0.0, "PrimaryCaps": 0.0, "ClassCaps": 0.0}
    for name, count in cycles.items():
        layers[PAPER_LAYERS.get(name, "ClassCaps")] += count / clock_mhz
    layers["Total"] = sum(layers.values())
    return layers


def routing_step_times_us(cycles: dict[str, int], clock_mhz: float) -> dict[str, float]:
    """Per-routing-step latency with the paper's Fig 17 labels.

    Every ClassCaps layer in stream order (``FC, Load, Softmax1, Sum1,
    Squash1, Update1, ...``), the prediction GEMMs labelled ``FC``.
    """
    return {
        "FC" if name == "classcaps_fc" else name.capitalize(): count / clock_mhz
        for name, count in cycles.items()
        if name not in PAPER_LAYERS
    }


@dataclass
class SpeedupRow:
    """One compared quantity: GPU time, CapsAcc time, speedups."""

    name: str
    gpu_us: float
    capsacc_us: float
    paper_speedup: float | None = None

    @property
    def speedup(self) -> float:
        """Measured CapsAcc speedup over the GPU (>1 = CapsAcc faster)."""
        return self.gpu_us / self.capsacc_us if self.capsacc_us else float("inf")

    @property
    def direction_matches_paper(self) -> bool:
        """Whether the winner matches the paper's annotation."""
        if self.paper_speedup is None:
            return True
        return (self.speedup >= 1.0) == (self.paper_speedup >= 1.0)


@dataclass
class SpeedupReport:
    """A set of compared rows plus convenience accessors."""

    rows: list[SpeedupRow] = field(default_factory=list)

    def row(self, name: str) -> SpeedupRow:
        """Look up a row by name."""
        for entry in self.rows:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_table(self) -> list[tuple]:
        """Rows as ``(name, gpu_us, capsacc_us, speedup, paper)`` tuples."""
        return [
            (row.name, row.gpu_us, row.capsacc_us, row.speedup, row.paper_speedup)
            for row in self.rows
        ]


def compare_layers(
    network: CapsNetConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
    gpu: GpuModel | None = None,
) -> SpeedupReport:
    """Per-layer CapsAcc vs GPU comparison (Fig 16)."""
    network = network if network is not None else mnist_capsnet_config()
    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    gpu = gpu if gpu is not None else GpuModel(gtx1070_paper_profile())
    workload = CapsNetGpuWorkload(network)
    capsacc_layers = layer_times_us(
        capsacc_layer_cycles(network, accelerator), accelerator.clock_mhz
    )
    gpu_layers = {
        layer: gpu.sequence_time_us(kernels)
        for layer, kernels in workload.layer_kernels().items()
    }
    gpu_layers["Total"] = sum(gpu_layers.values())
    report = SpeedupReport()
    for layer in ("Conv1", "PrimaryCaps", "ClassCaps", "Total"):
        report.rows.append(
            SpeedupRow(
                name=layer,
                gpu_us=gpu_layers[layer],
                capsacc_us=capsacc_layers[layer],
                paper_speedup=calibration.PAPER_LAYER_SPEEDUP.get(layer),
            )
        )
    return report


def compare_routing_steps(
    network: CapsNetConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
    optimized_routing: bool = True,
    gpu: GpuModel | None = None,
) -> SpeedupReport:
    """Per-routing-step CapsAcc vs GPU comparison (Fig 17)."""
    network = network if network is not None else mnist_capsnet_config()
    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    gpu = gpu if gpu is not None else GpuModel(gtx1070_paper_profile())
    workload = CapsNetGpuWorkload(network)
    gpu_steps = {
        label: gpu.sequence_time_us(kernels)
        for label, kernels in workload.routing_step_kernels().items()
    }
    capsacc_steps = routing_step_times_us(
        capsacc_layer_cycles(network, accelerator, optimized_routing),
        accelerator.clock_mhz,
    )
    report = SpeedupReport()
    for label, gpu_us in gpu_steps.items():
        base = label.rstrip("123")
        report.rows.append(
            SpeedupRow(
                name=label,
                gpu_us=gpu_us,
                capsacc_us=capsacc_steps[label],
                paper_speedup=calibration.PAPER_STEP_SPEEDUP.get(base),
            )
        )
    return report
