"""Energy per inference (extension experiment).

The paper reports steady-state power (Table II/III); combined with the
measured latency this implies an energy per inference.  This experiment
computes energy two independent ways and cross-checks them:

* **top-down**: Table II power x modelled inference latency;
* **bottom-up**: per-event energies (MACs, buffer words, LUT lookups) times
  the compiled program's activity counts
  (:func:`~repro.compiler.cost.program_stats`, the counts an executed
  batch reports).

The bottom-up dynamic energy must come out below the top-down envelope
(which also contains static and clock-tree power) — a consistency check on
both models — and the breakdown shows where the energy goes, extending the
paper's Fig 18 story from silicon area to actual work.

Latency and activity both come from the compiled instruction stream
(:mod:`repro.compiler`).  The pipelined schedule is priced too: the
steady-state marginal cycles of a back-to-back inference stream give the
amortized latency, so the top-down energy per inference shrinks by
exactly the pipeline overlap — dynamic work is unchanged, only the
static/clock power window narrows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.compiler.cost import program_stats, program_steady_cycles
from repro.experiments.common import format_table
from repro.hw.config import AcceleratorConfig
from repro.perf.compare import capsacc_layer_cycles, capsacc_program
from repro.perf.gpu import GpuModel, gtx1070_paper_profile
from repro.perf.kernels import CapsNetGpuWorkload
from repro.synthesis.power import energy_per_inference_uj
from repro.synthesis.report import SynthesisReport


#: GTX1070 board power (TDP) used for the GPU energy comparison.
GPU_TDP_W = 150.0


@dataclass
class EnergyResult:
    """Energy accounting for one inference."""

    latency_ms: float
    total_power_mw: float
    topdown_energy_uj: float
    bottomup_energy_uj: dict[str, float]
    gpu_latency_ms: float = 0.0
    pipelined_latency_ms: float = 0.0
    pipelined_energy_uj: float = 0.0

    @property
    def bottomup_total_uj(self) -> float:
        """Total dynamic energy from activity counts."""
        return sum(self.bottomup_energy_uj.values())

    @property
    def consistent(self) -> bool:
        """Dynamic (bottom-up) energy must fit inside the power envelope."""
        return self.bottomup_total_uj <= self.topdown_energy_uj

    @property
    def gpu_energy_uj(self) -> float:
        """GPU energy per inference at TDP (an optimistic-for-CapsAcc upper
        bound; the comparison note discusses it)."""
        return GPU_TDP_W * 1e3 * self.gpu_latency_ms

    @property
    def efficiency_gain(self) -> float:
        """CapsAcc energy advantage over the GPU per inference."""
        if self.topdown_energy_uj == 0:
            return float("inf")
        return self.gpu_energy_uj / self.topdown_energy_uj

    @property
    def pipeline_speedup(self) -> float:
        """Sequential latency over pipelined steady-state latency."""
        if self.pipelined_latency_ms == 0:
            return float("inf")
        return self.latency_ms / self.pipelined_latency_ms


def run(
    config: CapsNetConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
) -> EnergyResult:
    """Compute both energy estimates for one inference."""
    config = config if config is not None else mnist_capsnet_config()
    accelerator = accelerator if accelerator is not None else AcceleratorConfig()

    program = capsacc_program(config)
    total_cycles = sum(capsacc_layer_cycles(config, accelerator).values())
    latency_ms = accelerator.cycles_to_ms(total_cycles)
    power_mw = SynthesisReport(config=accelerator).table2()["power_mw"]
    topdown_uj = power_mw * latency_ms  # mW x ms = uJ
    bottomup = energy_per_inference_uj(program_stats(accelerator, program, 1))

    steady_cycles = program_steady_cycles(accelerator, program, batch=1)
    pipelined_ms = accelerator.cycles_to_ms(steady_cycles)
    pipelined_uj = power_mw * pipelined_ms

    gpu = GpuModel(gtx1070_paper_profile())
    workload = CapsNetGpuWorkload(config)
    gpu_ms = sum(
        gpu.sequence_time_us(kernels) for kernels in workload.layer_kernels().values()
    ) / 1e3
    return EnergyResult(
        latency_ms=latency_ms,
        total_power_mw=power_mw,
        topdown_energy_uj=topdown_uj,
        bottomup_energy_uj=bottomup,
        gpu_latency_ms=gpu_ms,
        pipelined_latency_ms=pipelined_ms,
        pipelined_energy_uj=pipelined_uj,
    )


def format_report(result: EnergyResult) -> str:
    """Printable energy report."""
    rows = [
        (name, f"{uj:.1f}")
        for name, uj in sorted(
            result.bottomup_energy_uj.items(), key=lambda item: -item[1]
        )
    ]
    rows.append(("TOTAL (dynamic, bottom-up)", f"{result.bottomup_total_uj:.1f}"))
    table = format_table(
        ["contributor", "energy [uJ]"],
        rows,
        title="Energy per inference (bottom-up activity model)",
    )
    summary = (
        f"\nTop-down envelope: {result.total_power_mw:.0f} mW x"
        f" {result.latency_ms:.2f} ms = {result.topdown_energy_uj:.0f} uJ"
        f"\nPipelined (compiled stream, steady state): "
        f"{result.pipelined_latency_ms:.2f} ms -> "
        f"{result.pipelined_energy_uj:.0f} uJ per inference"
        f" ({result.pipeline_speedup:.2f}x vs sequential)"
        f"\nConsistency (dynamic <= envelope): "
        + ("yes" if result.consistent else "NO")
        + f"\nGPU at {GPU_TDP_W:.0f} W TDP x {result.gpu_latency_ms:.1f} ms ="
        f" {result.gpu_energy_uj / 1e3:.1f} mJ per inference"
        f" -> CapsAcc is ~{result.efficiency_gain:.0f}x more energy-efficient"
        "\n(TDP overstates real GPU draw on this workload; even at 1/10 of"
        " TDP the gain stays in the hundreds)"
    )
    return table + summary
