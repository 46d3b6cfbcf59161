"""Sim-vs-live crosschecks over :class:`~repro.serve.stats.ServingReport`.

Both the discrete-event simulator and the live runtime emit the same
report type, so checking that the simulator predicts the live system
(or that two deterministic runs decided alike) reduces to comparing two
reports:

* :func:`decision_diffs` — exact policy
  equivalence of two deterministic recorded runs: same sheds, same
  per-request timings, same batch formation and placement (a traced run
  against an untraced one, say: tracers must steer nothing).
* :func:`compare_reports` — statistical agreement for wall-clock runs:
  live latency percentiles within a relative tolerance of the simulated
  ones.
* :func:`compare_reports_median` — the variance-aware form over
  repeated trials: medians with a spread-widened tolerance, robust
  enough to gate regimes where host noise dominates single runs (paced
  load on a shared runner, not just saturated drain).
"""

from __future__ import annotations

import math

from repro.serve.stats import ServingReport

#: Cap on reported differences; past this the lists are truncated.
MAX_DIFFS = 20


def _request_rows(report: ServingReport) -> list[tuple]:
    """Per-request decisions, order-normalized.

    Global request indices follow admission order, which differs
    between a live run and its simulation, so rows are keyed by
    observable timings instead.
    """
    return sorted(
        (
            record.arrival_us,
            record.tenant,
            record.shed,
            record.dispatch_us,
            record.done_us,
        )
        for record in report.requests
    )


def _batch_rows(report: ServingReport) -> list[tuple]:
    """Per-batch decisions, order-normalized (completion order differs)."""
    return sorted(
        (
            batch.dispatch_us,
            batch.array,
            batch.size,
            batch.warm,
            batch.cycles,
            batch.tenant,
        )
        for batch in report.batches
    )


def decision_diffs(sim: ServingReport, live: ServingReport) -> list[str]:
    """Every way two recorded reports' policy decisions disagree.

    Empty means the two runs admitted, shed, batched, placed, and timed
    every request identically.  Both reports must carry full per-request
    tables (recorded mode, not streaming).
    """
    diffs: list[str] = []
    for label, a, b in (
        ("offered", sim.offered, live.offered),
        ("shed", sim.shed_count, live.shed_count),
        ("batches", sim.batch_count, live.batch_count),
    ):
        if a != b:
            diffs.append(f"{label}: sim={a} live={b}")
    sim_requests = _request_rows(sim)
    live_requests = _request_rows(live)
    for row_a, row_b in zip(sim_requests, live_requests):
        if row_a != row_b:
            diffs.append(f"request: sim={row_a} live={row_b}")
            if len(diffs) >= MAX_DIFFS:
                return diffs
    sim_batches = _batch_rows(sim)
    live_batches = _batch_rows(live)
    for row_a, row_b in zip(sim_batches, live_batches):
        if row_a != row_b:
            diffs.append(f"batch: sim={row_a} live={row_b}")
            if len(diffs) >= MAX_DIFFS:
                return diffs
    return diffs


def compare_reports(
    sim: ServingReport, live: ServingReport, rel_tol: float = 0.2
) -> dict:
    """Statistical sim-vs-live agreement: counts plus latency ratios.

    Returns a JSON-friendly dict; ``within_tol`` is True when the live
    p50 and p99 total latencies both sit within ``rel_tol`` (relative)
    of the simulated ones.  Ratios are live/sim (``inf`` if the
    simulated value is zero but the live one is not).
    """
    sim_latency = sim.latency_summary()["total"]
    live_latency = live.latency_summary()["total"]
    result: dict = {
        "rel_tol": rel_tol,
        "counts": {
            "sim": {"offered": sim.offered, "completed": sim.completed,
                    "shed": sim.shed_count, "batches": sim.batch_count},
            "live": {"offered": live.offered, "completed": live.completed,
                     "shed": live.shed_count, "batches": live.batch_count},
        },
    }
    within = True
    for metric in ("p50_us", "p99_us"):
        sim_value = sim_latency[metric]
        live_value = live_latency[metric]
        if sim_value > 0.0:
            ratio = live_value / sim_value
        else:
            ratio = math.inf if live_value > 0.0 else 1.0
        ok = abs(live_value - sim_value) <= rel_tol * max(sim_value, 1e-9)
        within = within and ok
        result[metric] = {
            "sim": sim_value,
            "live": live_value,
            "ratio": ratio,
            "within_tol": ok,
        }
    result["within_tol"] = within
    return result


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def compare_reports_median(
    pairs: list[tuple[ServingReport, ServingReport]],
    rel_tol: float = 0.2,
    spread_factor: float = 2.0,
) -> dict:
    """Variance-aware sim-vs-live agreement over repeated trials.

    ``pairs`` is one ``(sim, live)`` report pair per trial of the same
    workload.  For each latency metric the gate compares the *median*
    live value against the *median* simulated value, with a tolerance
    widened by the observed trial-to-trial spread::

        tol = max(rel_tol, spread_factor * spread)

    where ``spread`` is the median absolute deviation of the per-trial
    live/sim ratios, relative to the median ratio.  A regime where host
    noise scatters single runs (an idle-system percentile on a shared
    1-CPU runner) widens its own tolerance instead of flaking; a quiet
    regime keeps the strict ``rel_tol``.  Returns a JSON-friendly dict
    shaped like :func:`compare_reports` plus per-metric ``spread`` /
    ``tolerance`` and the raw per-trial ratios.
    """
    if not pairs:
        raise ValueError("compare_reports_median needs at least one trial")
    per_trial = [compare_reports(sim, live, rel_tol=rel_tol) for sim, live in pairs]
    result: dict = {
        "rel_tol": rel_tol,
        "spread_factor": spread_factor,
        "trials": len(pairs),
    }
    within = True
    for metric in ("p50_us", "p99_us"):
        sims = [trial[metric]["sim"] for trial in per_trial]
        lives = [trial[metric]["live"] for trial in per_trial]
        ratios = [trial[metric]["ratio"] for trial in per_trial]
        sim_med = _median(sims)
        live_med = _median(lives)
        finite = [r for r in ratios if math.isfinite(r)]
        if finite:
            ratio_med = _median(finite)
            deviations = [abs(r - ratio_med) for r in finite]
            spread = (
                _median(deviations) / ratio_med if ratio_med > 0.0 else math.inf
            )
        else:
            ratio_med = math.inf
            spread = math.inf
        # An unmeasurable spread (degenerate sims) falls back to the
        # strict tolerance rather than an infinitely forgiving one.
        widened = spread_factor * spread if math.isfinite(spread) else 0.0
        tolerance = max(rel_tol, widened)
        ok = abs(live_med - sim_med) <= tolerance * max(sim_med, 1e-9)
        within = within and ok
        result[metric] = {
            "sim": sim_med,
            "live": live_med,
            "ratio": ratio_med,
            "ratios": ratios,
            "spread": spread,
            "tolerance": tolerance,
            "within_tol": ok,
        }
    result["within_tol"] = within
    return result
