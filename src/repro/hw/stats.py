"""Cycle and access statistics collected by the simulator.

Every executor returns a :class:`CycleStats`; stats compose with ``+`` so a
layer is the sum of its GEMM tiles and a network is the sum of its layers.
Buffer access counts feed the dynamic-power estimate of the synthesis model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class FrozenCounts(dict):
    """A read-only ``dict`` of access counts, shared between reports.

    Mutators raise :class:`TypeError`; copies (``dict(...)``,
    :func:`dataclasses.asdict`, pickling) still work.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError("access counts are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (type(self), (dict(self),))


@dataclass
class CycleStats:
    """Cycle breakdown and event counters for a simulated stage."""

    #: Total cycles including every overlap-adjusted overhead.
    total_cycles: int = 0
    #: Cycles in which the array was streaming useful data.
    compute_cycles: int = 0
    #: Cycles stalled waiting for weight loads (zero with double-buffering
    #: whenever the load fits under the compute time).
    weight_stall_cycles: int = 0
    #: Pipeline fill/drain cycles (array skew and accumulator drain).
    fill_drain_cycles: int = 0
    #: Cycles spent in the activation unit beyond GEMM overlap.
    activation_cycles: int = 0
    #: Multiply-accumulate operations actually performed on useful data.
    mac_count: int = 0
    #: Buffer/memory traffic in words, keyed by ``"<buffer>.<read|write>"``.
    accesses: dict[str, int] = field(default_factory=dict)

    def add_access(self, key: str, words: int) -> None:
        """Record ``words`` of traffic on an access category."""
        self.accesses[key] = self.accesses.get(key, 0) + int(words)

    def __add__(self, other: "CycleStats") -> "CycleStats":
        merged = dict(self.accesses)
        for key, value in other.accesses.items():
            merged[key] = merged.get(key, 0) + value
        return CycleStats(
            total_cycles=self.total_cycles + other.total_cycles,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            weight_stall_cycles=self.weight_stall_cycles + other.weight_stall_cycles,
            fill_drain_cycles=self.fill_drain_cycles + other.fill_drain_cycles,
            activation_cycles=self.activation_cycles + other.activation_cycles,
            mac_count=self.mac_count + other.mac_count,
            accesses=merged,
        )

    def utilization(self, num_pes: int) -> float:
        """Achieved MACs per PE-cycle (1.0 = every PE busy every cycle)."""
        if self.total_cycles == 0:
            return 0.0
        return self.mac_count / (self.total_cycles * num_pes)

    def time_us(self, clock_mhz: float) -> float:
        """Wall-clock microseconds at the given clock."""
        return self.total_cycles / clock_mhz

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.total_cycles} cycles"
            f" (compute {self.compute_cycles},"
            f" stalls {self.weight_stall_cycles},"
            f" fill/drain {self.fill_drain_cycles},"
            f" activation {self.activation_cycles});"
            f" {self.mac_count} MACs"
        )
