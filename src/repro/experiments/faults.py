"""Fault-tolerance study: goodput vs crash rate vs retry budget.

The serving extension's fault layer (:mod:`repro.serve.faults`) injects
deterministic worker crashes — a per-placement Bernoulli draw from a
seeded stream — and contains them with bounded retry/requeue plus array
quarantine and health-probed readmission.  :func:`run` maps that design
space: one saturating Poisson trace served under every (crash rate,
retry budget) pair, reporting goodput (completed / offered), terminal
failures, retry volume, quarantine recovery time, and the p99 latency
cost of riding through the faults.  Closed-form batch costs keep the
grid cheap.

The study quantifies the two claims the fault layer makes: a retry
budget of a few attempts is enough to hold goodput at 100% under
transient crash rates (failures appear only when the budget is cut to
one attempt), and the latency price of fault tolerance is paid in the
tail, not the median.

:func:`run_integrity` maps the silent-data-corruption axis the same
way: one trace served under every (corruption rate, check mode) pair —
no checks, ABFT checksums, checksums + canary probes
(:mod:`repro.serve.integrity`) — reporting the corrupted-served
fraction, goodput, and the p99 cost of the checks.  The headline claim:
with checksums armed the corrupted-served fraction is exactly zero
(every in-envelope flip is detected and retried), while the unchecked
server quietly returns corrupted results at the injection rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import format_table
from repro.hw.config import AcceleratorConfig


@dataclass
class FaultStudyResult:
    """One row per (crash rate, retry budget) grid point."""

    rows: list[dict]
    rate_multiplier: float
    offered_rps: float
    arrays: int

    def row(self, crash_rate: float, max_attempts: int) -> dict:
        """The grid row of one (crash rate, retry budget) pair."""
        for entry in self.rows:
            if (
                entry["crash_rate"] == crash_rate
                and entry["max_attempts"] == max_attempts
            ):
                return entry
        raise KeyError((crash_rate, max_attempts))


@dataclass
class IntegrityStudyResult:
    """One row per (corruption rate, check mode) grid point."""

    rows: list[dict]
    rate_multiplier: float
    offered_rps: float
    arrays: int

    def row(self, corrupt_rate: float, mode: str) -> dict:
        """The grid row of one (corruption rate, check mode) pair."""
        for entry in self.rows:
            if entry["corrupt_rate"] == corrupt_rate and entry["mode"] == mode:
                return entry
        raise KeyError((corrupt_rate, mode))


def run(
    network: str = "mnist",
    accelerator: AcceleratorConfig | None = None,
    crash_rates: tuple[float, ...] = (0.0, 0.05, 0.15),
    attempt_budgets: tuple[int, ...] = (1, 3),
    rate_multiplier: float = 2.5,
    requests: int = 192,
    max_batch: int = 8,
    max_wait_us: float = 2000.0,
    arrays: int = 2,
    seed: int = 7,
    fault_seed: int = 11,
) -> FaultStudyResult:
    """Serve one trace under every (crash rate, retry budget) pair.

    The arrival rate is ``rate_multiplier`` times the pool's batch-1
    service capacity (the saturation scenario the other serving studies
    use); every grid point sees the same trace and the same fault seed,
    so rows differ only in the injected crash probability and the
    per-request attempt budget.  ``crash_rate=0`` rows run without an
    injector — the no-fault baseline the overhead gate measures against.
    """
    from repro.serve import (
        ScheduledBatchCost,
        FaultPlan,
        RetryPolicy,
        ServerConfig,
        ServingSimulator,
        poisson_trace,
    )

    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    cost = ScheduledBatchCost(network, accel_config=accelerator)
    capacity_rps = arrays * accelerator.clock_mhz * 1e6 / cost.batch_cycles(1)
    trace = poisson_trace(
        rate_multiplier * capacity_rps, requests, np.random.default_rng(seed)
    )
    rows = []
    for crash_rate in crash_rates:
        for max_attempts in attempt_budgets:
            server = ServerConfig.from_policy(
                "fifo",
                cost,
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                arrays=arrays,
                fault_plan=(
                    FaultPlan(crash_rate=crash_rate, seed=fault_seed)
                    if crash_rate > 0.0
                    else None
                ),
                retry=RetryPolicy(max_attempts=max_attempts),
            )
            report = ServingSimulator(trace, server=server).run()
            latency = report.latency_summary()["total"]
            faults = report.faults or {}
            rows.append(
                {
                    "crash_rate": crash_rate,
                    "max_attempts": max_attempts,
                    "offered": report.offered,
                    "completed": report.completed,
                    "goodput": report.goodput,
                    "failed": report.failed_count,
                    "crashes": int(faults.get("crashes", 0)),
                    "retries": int(faults.get("retries", 0)),
                    "quarantines": int(faults.get("quarantines", 0)),
                    "recovery_max_us": float(faults.get("recovery_max_us", 0.0)),
                    "p50_us": latency["p50_us"],
                    "p99_us": latency["p99_us"],
                }
            )
    return FaultStudyResult(
        rows=rows,
        rate_multiplier=rate_multiplier,
        offered_rps=trace.offered_rps,
        arrays=arrays,
    )


def run_integrity(
    accelerator: AcceleratorConfig | None = None,
    corrupt_rates: tuple[float, ...] = (0.0, 0.08),
    check_modes: tuple[str, ...] = ("none", "checksum", "checksum+canary"),
    network: str = "mnist",
    rate_multiplier: float = 2.5,
    requests: int = 192,
    max_batch: int = 8,
    max_wait_us: float = 2000.0,
    arrays: int = 2,
    seed: int = 7,
    fault_seed: int = 11,
) -> IntegrityStudyResult:
    """Serve one trace under every (corruption rate, check mode) pair.

    Detection coverage and check overhead in one grid: rows with
    ``mode='none'`` serve corrupted results silently (the
    corrupted-served fraction tracks the injection rate), checksum rows
    detect every in-envelope flip and retry it (corrupted-served is
    exactly zero), and the ``corrupt_rate=0`` rows isolate the pure
    overhead of pricing the ABFT checksums (from the zoo network's
    compiled instruction stream) into every batch.
    """
    from repro.serve import (
        ScheduledBatchCost,
        FaultPlan,
        ServerConfig,
        ServingSimulator,
        poisson_trace,
    )

    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    costs = {
        mode: ScheduledBatchCost(network, accel_config=accelerator, integrity=mode)
        for mode in check_modes
    }
    baseline = next(iter(costs.values()))
    capacity_rps = arrays * accelerator.clock_mhz * 1e6 / baseline.batch_cycles(1)
    trace = poisson_trace(
        rate_multiplier * capacity_rps, requests, np.random.default_rng(seed)
    )
    rows = []
    for corrupt_rate in corrupt_rates:
        for mode in check_modes:
            server = ServerConfig.from_policy(
                "fifo",
                costs[mode],
                max_batch=max_batch,
                max_wait_us=max_wait_us,
                arrays=arrays,
                fault_plan=(
                    FaultPlan(corrupt_rate=corrupt_rate, seed=fault_seed)
                    if corrupt_rate > 0.0
                    else None
                ),
                integrity=mode if mode != "none" else None,
            )
            report = ServingSimulator(trace, server=server).run()
            latency = report.latency_summary()["total"]
            faults = report.faults or {}
            corrupted_served = int(faults.get("corrupted_served", 0))
            rows.append(
                {
                    "corrupt_rate": corrupt_rate,
                    "mode": mode,
                    "offered": report.offered,
                    "completed": report.completed,
                    "goodput": report.goodput,
                    "corruptions": int(faults.get("corruptions", 0)),
                    "detected": int(faults.get("detected", 0)),
                    "corrupted_served": corrupted_served,
                    "corrupted_fraction": corrupted_served / max(report.offered, 1),
                    "canaries": int(faults.get("canaries", 0)),
                    "retries": int(faults.get("retries", 0)),
                    "p50_us": latency["p50_us"],
                    "p99_us": latency["p99_us"],
                }
            )
    return IntegrityStudyResult(
        rows=rows,
        rate_multiplier=rate_multiplier,
        offered_rps=trace.offered_rps,
        arrays=arrays,
    )


def format_report(result: FaultStudyResult) -> str:
    """Printable fault-tolerance grid."""
    rows = [
        (
            f"{entry['crash_rate']:g}",
            str(entry["max_attempts"]),
            f"{entry['goodput']:.1%}",
            str(entry["failed"]),
            str(entry["crashes"]),
            str(entry["retries"]),
            f"{entry['recovery_max_us'] / 1e3:.1f}",
            f"{entry['p50_us'] / 1e3:.2f}",
            f"{entry['p99_us'] / 1e3:.2f}",
        )
        for entry in result.rows
    ]
    return format_table(
        [
            "crash rate",
            "budget",
            "goodput",
            "failed",
            "crashes",
            "retries",
            "recover ms",
            "p50 ms",
            "p99 ms",
        ],
        rows,
        title=(
            "Fault-tolerance study: crash rate x retry budget"
            f" ({result.rate_multiplier:g}x saturation,"
            f" {result.offered_rps:,.0f} req/s offered,"
            f" {result.arrays} array(s))"
        ),
    )


def format_integrity_report(result: IntegrityStudyResult) -> str:
    """Printable detection-coverage x check-overhead grid."""
    rows = [
        (
            f"{entry['corrupt_rate']:g}",
            entry["mode"],
            f"{entry['goodput']:.1%}",
            str(entry["corruptions"]),
            str(entry["detected"]),
            f"{entry['corrupted_fraction']:.1%}",
            str(entry["canaries"]),
            str(entry["retries"]),
            f"{entry['p50_us'] / 1e3:.2f}",
            f"{entry['p99_us'] / 1e3:.2f}",
        )
        for entry in result.rows
    ]
    return format_table(
        [
            "corrupt rate",
            "checks",
            "goodput",
            "corrupt",
            "detect",
            "served bad",
            "canaries",
            "retries",
            "p50 ms",
            "p99 ms",
        ],
        rows,
        title=(
            "Integrity study: corruption rate x check mode"
            f" ({result.rate_multiplier:g}x saturation,"
            f" {result.offered_rps:,.0f} req/s offered,"
            f" {result.arrays} array(s))"
        ),
    )
