"""Power and energy estimation.

Two complementary models:

* **Power from area** — each component dissipates ``area x density x
  (V / V_nom)^2 x (f / f_nom)`` with per-kind densities fitted once to the
  paper's Table III (power per area is nearly uniform there).  This yields
  the steady-state inference power of Table II / Fig 18.
* **Energy from activity** — dynamic energy per inference integrates the
  simulator's access counters (MACs, buffer words, LUT lookups) against
  per-event energies; used by the energy-per-inference extension
  experiment and the ablation sweeps.
"""

from __future__ import annotations

from repro.hw.config import AcceleratorConfig
from repro.hw.stats import CycleStats
from repro.synthesis.components import ComponentEstimate
from repro.synthesis.tech import TECH_32NM, TechnologyParameters


def component_power_mw(
    components: list[ComponentEstimate],
    tech: TechnologyParameters = TECH_32NM,
    voltage_v: float | None = None,
    clock_mhz: float | None = None,
) -> dict[str, float]:
    """Per-component power in milliwatts."""
    voltage = voltage_v if voltage_v is not None else tech.nominal_voltage_v
    clock = clock_mhz if clock_mhz is not None else tech.nominal_clock_mhz
    voltage_scale = (voltage / tech.nominal_voltage_v) ** 2
    clock_scale = clock / tech.nominal_clock_mhz
    return {
        component.name: component.area_mm2
        * tech.density(component.kind)
        * voltage_scale
        * clock_scale
        for component in components
    }


def total_power_mw(
    components: list[ComponentEstimate],
    tech: TechnologyParameters = TECH_32NM,
    voltage_v: float | None = None,
    clock_mhz: float | None = None,
) -> float:
    """Total accelerator power in milliwatts."""
    return sum(component_power_mw(components, tech, voltage_v, clock_mhz).values())


#: Mapping of access-counter categories to technology energy events.
_ACCESS_EVENTS = {
    "data_buffer.read": "sram_access",
    "data_buffer.write": "sram_access",
    "weight_buffer.read": "sram_access",
    "weight_buffer.write": "sram_access",
    "routing_buffer.read": "sram_access",
    "routing_buffer.write": "sram_access",
    "accumulator.write": "regfile_access",
    "activation.ops": "lut_access",
    "memory.read": "memory_access",
    "memory.write": "memory_access",
}


def energy_per_inference_uj(
    stats: CycleStats,
    tech: TechnologyParameters = TECH_32NM,
) -> dict[str, float]:
    """Dynamic energy per inference in microjoules, by contributor.

    ``stats`` aggregates one full inference (MAC count plus buffer access
    counters, as :func:`repro.compiler.cost.program_stats` or an executed
    batch report them).
    """
    energy = {"mac": stats.mac_count * tech.access_energy("mac") * 1e-6}
    for category, words in stats.accesses.items():
        event = _ACCESS_EVENTS.get(category, "sram_access")
        key = category.split(".")[0]
        energy[key] = energy.get(key, 0.0) + words * tech.access_energy(event) * 1e-6
    return energy


def average_power_mw(
    stats: CycleStats,
    config: AcceleratorConfig,
    tech: TechnologyParameters = TECH_32NM,
) -> float:
    """Dynamic power implied by per-inference energy and latency."""
    total_uj = sum(energy_per_inference_uj(stats, tech).values())
    seconds = stats.total_cycles / (config.clock_mhz * 1e6)
    if seconds == 0:
        return 0.0
    return total_uj * 1e-6 / seconds * 1e3
