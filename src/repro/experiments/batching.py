"""Batching extensions: GPU crossover and serving-policy comparison.

The paper's comparison is batch-1 inference — the embedded / latency-
critical case CapsAcc targets.  A GPU amortizes its per-op dispatch
overhead over larger batches, so there is a crossover batch size beyond
which GPU *throughput* (not latency) overtakes the batch-1 accelerator.
:func:`run` sweeps the batch size, reporting images/s for both targets
and the crossover — quantifying the domain where the paper's conclusion
holds.

:func:`policy_comparison` studies the *serving* side of batching: the
same saturating arrival trace served under each named serving-policy
preset (``fifo`` / ``deadline`` / ``greedy``; see
:mod:`repro.serve.policies`), reporting throughput, p50/p99 latency,
shed rate and SLA misses — the policy-level design space the pluggable
protocols open (closed-form costs, so the sweep is cheap).

:func:`oracle_admission_study` closes the ROADMAP admission-control
item: the backlog-estimate :class:`~repro.serve.policies.DeadlineAdmission`
(at several slack settings) is compared against a **simulate-ahead
oracle** shedder — admission with hindsight, computed by iterated
re-simulation: serve the trace, shed exactly the requests that missed
their deadline, re-serve, and repeat to a fixed point.  The oracle is
not a deployable policy (it reads the future) and not an optimum — it
sheds the minimum hindsight-certain misses, trading nothing off — but
it anchors the comparison: how the arrival-time backlog estimate's
shed/goodput/p99 triangle at each slack sits against pure hindsight
shedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.capsnet.config import CapsNetConfig, mnist_capsnet_config
from repro.experiments.common import format_table
from repro.hw.config import AcceleratorConfig
from repro.perf.gpu import GpuModel, gtx1070_paper_profile, scale_kernels_to_batch
from repro.perf.compare import capsacc_layer_cycles
from repro.perf.kernels import CapsNetGpuWorkload


@dataclass
class BatchingResult:
    """Throughput per batch size and the crossover."""

    batch_sizes: list[int]
    gpu_images_per_s: dict[int, float]
    capsacc_images_per_s: float
    capsacc_latency_ms: float

    @property
    def crossover_batch(self) -> int | None:
        """Smallest swept batch at which the GPU's throughput wins."""
        for batch in self.batch_sizes:
            if self.gpu_images_per_s[batch] > self.capsacc_images_per_s:
                return batch
        return None


def run(
    config: CapsNetConfig | None = None,
    accelerator: AcceleratorConfig | None = None,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> BatchingResult:
    """Sweep GPU batch sizes against the batch-1 accelerator."""
    config = config if config is not None else mnist_capsnet_config()
    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    gpu = GpuModel(gtx1070_paper_profile())
    workload = CapsNetGpuWorkload(config)
    batch1_kernels = [
        kernel
        for kernels in workload.layer_kernels().values()
        for kernel in kernels
    ]
    gpu_throughput = {}
    for batch in batch_sizes:
        seconds = gpu.sequence_time_s(scale_kernels_to_batch(batch1_kernels, batch))
        gpu_throughput[batch] = batch / seconds

    cycles = sum(capsacc_layer_cycles(config, accelerator).values())
    latency_ms = cycles / accelerator.clock_mhz / 1e3
    return BatchingResult(
        batch_sizes=list(batch_sizes),
        gpu_images_per_s=gpu_throughput,
        capsacc_images_per_s=1e3 / latency_ms,
        capsacc_latency_ms=latency_ms,
    )


@dataclass
class PolicyComparisonResult:
    """One row per serving-policy preset on a shared saturating trace."""

    rows: list[dict]
    rate_multiplier: float
    deadline_ms: float
    offered_rps: float

    def row(self, policy: str) -> dict:
        """The comparison row of one named policy."""
        for entry in self.rows:
            if entry["policy"] == policy:
                return entry
        raise KeyError(policy)


def policy_comparison(
    network: str = "mnist",
    accelerator: AcceleratorConfig | None = None,
    policies: tuple[str, ...] = ("fifo", "deadline", "greedy"),
    rate_multiplier: float = 2.5,
    requests: int = 96,
    deadline_ms: float = 10.0,
    max_batch: int = 8,
    max_wait_us: float = 5000.0,
    arrays: int = 1,
    seed: int = 7,
) -> PolicyComparisonResult:
    """Serve one saturating trace under each serving-policy preset.

    The arrival rate is ``rate_multiplier`` times the batch-1 service
    capacity (the ``bench_serving.py`` saturation scenario); every policy
    sees the same trace and the same per-request SLA of ``deadline_ms``.
    Costs come from the zoo network's compiled program in closed form,
    so the comparison is cheap enough for design-space sweeps.
    """
    from repro.serve import (
        ScheduledBatchCost,
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
    for name in policies:
        server = ServerConfig.from_policy(
            name,
            cost,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            arrays=arrays,
            deadline_us=deadline_ms * 1000.0,
        )
        report = ServingSimulator(trace, server=server).run()
        latency = report.latency_summary()["total"]
        rows.append(
            {
                "policy": name,
                "describe": server.describe(),
                "throughput_rps": report.throughput_rps,
                "mean_batch_size": report.mean_batch_size,
                "p50_us": latency["p50_us"],
                "p99_us": latency["p99_us"],
                "shed_rate": report.shed_rate,
                "deadline_miss_rate": report.deadline_miss_rate,
            }
        )
    return PolicyComparisonResult(
        rows=rows,
        rate_multiplier=rate_multiplier,
        deadline_ms=deadline_ms,
        offered_rps=trace.offered_rps,
    )


@dataclass(frozen=True)
class _ShedIndices:
    """Oracle admission: shed exactly a precomputed set of request indices.

    Internal to the simulate-ahead study — not a registered policy (it
    encodes hindsight, not an arrival-time decision rule).
    """

    indices: frozenset

    def admit(self, request, now_us, queue, pool) -> bool:
        return request.index not in self.indices

    def describe(self) -> str:
        return f"oracle-shed[{len(self.indices)}]"


@dataclass
class AdmissionStudyResult:
    """Deadline-admission slack settings vs the simulate-ahead oracle."""

    rows: list[dict]
    rate_multiplier: float
    deadline_ms: float
    offered_rps: float
    oracle_iterations: int
    #: Whether the oracle reached a missless fixed point within its
    #: iteration budget; ``False`` means the "oracle" row still contains
    #: deadline misses and is labeled ``oracle(truncated)``.
    oracle_converged: bool = True

    def row(self, label: str) -> dict:
        """The study row with one label (``slack=...us`` or ``oracle``)."""
        for entry in self.rows:
            if entry["label"] == label:
                return entry
        raise KeyError(label)


def _admission_row(label: str, report) -> dict:
    latency = report.latency_summary()["total"]
    served = report.completed
    misses = report.deadline_miss_count
    # Goodput — deadline-met requests per second, the quantity admission
    # control exists to maximize — is normalized by the *offered* trace
    # window, not the makespan: a policy that sheds nearly everything
    # finishes early, and dividing by its shrunken makespan would reward
    # exactly that.
    window_s = report.offered / report.offered_rps if report.offered_rps else 0.0
    return {
        "label": label,
        "offered": report.offered,
        "served": served,
        "shed_rate": report.shed_rate,
        "deadline_miss_rate": report.deadline_miss_rate,
        "throughput_rps": report.throughput_rps,
        "goodput_rps": ((served - misses) / window_s if window_s else 0.0),
        "p99_us": latency["p99_us"],
    }


def oracle_admission_study(
    network: str = "mnist",
    accelerator: AcceleratorConfig | None = None,
    slacks_us: tuple[float, ...] = (0.0, 1000.0, 5000.0),
    rate_multiplier: float = 2.5,
    requests: int = 96,
    deadline_ms: float = 10.0,
    max_batch: int = 8,
    max_wait_us: float = 5000.0,
    arrays: int = 1,
    seed: int = 7,
    max_iterations: int = 8,
) -> AdmissionStudyResult:
    """Compare deadline admission at several slacks against the oracle.

    Every row serves the same saturating Poisson trace with the same
    SLA-aware :class:`~repro.serve.batcher.DeadlineBatcher` (slack 0), so
    only the *admission* rule differs: the backlog-estimate
    :class:`~repro.serve.policies.DeadlineAdmission` at each entry of
    ``slacks_us``, and the simulate-ahead oracle (iterated re-simulation
    shedding exactly the requests that would miss; usually settles in
    two or three passes).  Closed-form costs keep the repeated
    simulations cheap.
    """
    from repro.errors import ConfigError
    from repro.serve import (
        ScheduledBatchCost,
        DeadlineAdmission,
        DeadlineBatcher,
        ServerConfig,
        ServingSimulator,
        poisson_trace,
    )

    if max_iterations < 1:
        raise ConfigError("the oracle needs at least one simulation pass")
    accelerator = accelerator if accelerator is not None else AcceleratorConfig()
    cost = ScheduledBatchCost(network, accel_config=accelerator)
    capacity_rps = arrays * accelerator.clock_mhz * 1e6 / cost.batch_cycles(1)
    trace = poisson_trace(
        rate_multiplier * capacity_rps, requests, np.random.default_rng(seed)
    )

    def simulate(admission):
        server = ServerConfig(
            cost=cost,
            admission=admission,
            batching=DeadlineBatcher(max_batch=max_batch, max_wait_us=max_wait_us),
            arrays=arrays,
            deadline_us=deadline_ms * 1000.0,
        )
        return ServingSimulator(trace, server=server).run()

    rows = []
    for slack in slacks_us:
        report = simulate(DeadlineAdmission(slack_us=slack))
        rows.append(_admission_row(f"slack={slack:g}us", report))

    # Simulate-ahead oracle: shed exactly the requests that miss, then
    # re-serve — removing them can only relieve the backlog, so the shed
    # set grows monotonically and the iteration reaches a fixed point.
    shed: frozenset = frozenset()
    iterations = 0
    converged = False
    report = None
    for iterations in range(1, max_iterations + 1):
        report = simulate(_ShedIndices(shed))
        missed = {
            record.index for record in report.requests if record.missed_deadline
        }
        if not missed:
            converged = True
            break
        shed = shed | frozenset(missed)
    # An exhausted budget means the last pass still misses deadlines —
    # that row is *not* hindsight shedding, so label it loudly.
    rows.append(_admission_row("oracle" if converged else "oracle(truncated)", report))
    return AdmissionStudyResult(
        rows=rows,
        rate_multiplier=rate_multiplier,
        deadline_ms=deadline_ms,
        offered_rps=trace.offered_rps,
        oracle_iterations=iterations,
        oracle_converged=converged,
    )


def format_admission_report(result: AdmissionStudyResult) -> str:
    """Printable admission study table."""
    rows = [
        (
            entry["label"],
            f"{entry['shed_rate']:.1%}",
            f"{entry['deadline_miss_rate']:.1%}",
            f"{entry['goodput_rps']:.1f}",
            f"{entry['p99_us'] / 1e3:.2f}",
        )
        for entry in result.rows
    ]
    return format_table(
        ["admission", "shed", "SLA miss", "goodput req/s", "p99 ms"],
        rows,
        title=(
            "Admission study: backlog-estimate deadline shedding vs"
            f" simulate-ahead oracle ({result.rate_multiplier:g}x saturation,"
            f" {result.deadline_ms:g} ms SLA,"
            f" oracle settled in {result.oracle_iterations} pass(es))"
        ),
    )


def format_policy_report(result: PolicyComparisonResult) -> str:
    """Printable serving-policy comparison."""
    rows = [
        (
            entry["policy"],
            f"{entry['throughput_rps']:.1f}",
            f"{entry['mean_batch_size']:.2f}",
            f"{entry['p50_us'] / 1e3:.2f}",
            f"{entry['p99_us'] / 1e3:.2f}",
            f"{entry['shed_rate']:.1%}",
            f"{entry['deadline_miss_rate']:.1%}",
        )
        for entry in result.rows
    ]
    return format_table(
        [
            "policy",
            "served req/s",
            "batch",
            "p50 ms",
            "p99 ms",
            "shed",
            "SLA miss",
        ],
        rows,
        title=(
            "Serving-policy comparison:"
            f" {result.rate_multiplier:g}x saturation"
            f" ({result.offered_rps:,.0f} req/s offered),"
            f" {result.deadline_ms:g} ms SLA"
        ),
    )


def format_report(result: BatchingResult) -> str:
    """Printable batching study."""
    rows = [
        (batch, f"{result.gpu_images_per_s[batch]:.1f}", f"{result.capsacc_images_per_s:.1f}")
        for batch in result.batch_sizes
    ]
    table = format_table(
        ["GPU batch", "GPU img/s", "CapsAcc img/s (batch 1)"],
        rows,
        title="Batching study: throughput crossover",
    )
    crossover = result.crossover_batch
    if crossover is None:
        note = "\nNo crossover within the swept range."
    else:
        note = (
            f"\nGPU throughput overtakes at batch {crossover}; below that —"
            " the paper's embedded batch-1 regime — CapsAcc wins on both"
            " latency and throughput."
        )
    return table + note
