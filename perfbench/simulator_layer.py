"""Host cost of the discrete-event simulator on a workload's network.

Runs ``serve-sim``'s defaults — scheduled cost model, ``fifo``,
``max_batch`` 8 — over 2 arrays on a seeded Poisson trace at 1.5x the
pool's capacity.  Nothing runs the numerics; ``ServingCore`` runs in
virtual time, so the only thing measured is how fast each path (the
recorded path, the streaming path and ``replay_virtual``) gets through
the trace on the host, plus the cost model's cold pricing.  The same
run checks that the recorded path and the virtual replay make identical
decisions and that the streaming path counts the same requests.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import report_counts

#: ``serve-sim`` defaults, with a second array so dispatch has a choice.
SIM = {"max_batch": 8, "max_wait_us": 2000.0, "arrays": 2, "load": 1.5, "requests": 10000}
#: Seconds of repetitions per simulator path.
REPEAT_S = 1.0


def repeat_for(seconds: float, run_once, at_least: int = 3) -> list[float]:
    """Call ``run_once`` (it returns the seconds it measured) for ``seconds``."""
    times = []
    stop_at = time.perf_counter() + seconds
    while len(times) < at_least or time.perf_counter() < stop_at:
        times.append(run_once())
    return times


def timed_sim(arrivals, server, **run_kwargs):
    """``(seconds, report)`` of one ``ServingSimulator.run()``."""
    from repro.serve import ServingSimulator

    simulator = ServingSimulator(arrivals, server=server)
    start = time.perf_counter()
    report = simulator.run(**run_kwargs)
    return time.perf_counter() - start, report


def measure(compiled, seed: int) -> dict:
    """Simulator metrics and checks for ``compiled`` (a zoo network)."""
    from repro.hw.config import AcceleratorConfig
    from repro.serve import ScheduledBatchCost, make_trace, replay_virtual
    from repro.serve.compare import decision_diffs
    from repro.serve.policies import ServerConfig

    max_batch = SIM["max_batch"]
    cost = ScheduledBatchCost(qnet=compiled, accel_config=AcceleratorConfig())
    start = time.perf_counter()
    for size in range(1, max_batch + 1):
        cost.batch_cycles(size)
    price_s = (time.perf_counter() - start) / max_batch
    server = ServerConfig.from_policy(
        "fifo",
        cost,
        max_batch=max_batch,
        max_wait_us=SIM["max_wait_us"],
        arrays=SIM["arrays"],
        network_name=compiled.name,
    )
    batch_us = cost.batch_cycles(max_batch) / cost.config.clock_mhz
    capacity_rps = SIM["arrays"] * max_batch / (batch_us / 1e6)
    arrivals = make_trace(
        "poisson", SIM["load"] * capacity_rps, SIM["requests"], np.random.default_rng(seed)
    )

    recorded_counts: list[dict] = []
    first: list = []

    def recorded() -> float:
        elapsed, report = timed_sim(arrivals, server)
        if not first:
            first.append(report)
        recorded_counts.append(report_counts(report))
        return elapsed

    def replay() -> float:
        start = time.perf_counter()
        replay_virtual(server, arrivals)
        return time.perf_counter() - start

    recorded_s = repeat_for(REPEAT_S, recorded)
    streaming_s = repeat_for(
        REPEAT_S, lambda: timed_sim(arrivals, server, record_requests=False)[0]
    )
    replay_s = repeat_for(REPEAT_S, replay)

    problems = []
    expected = recorded_counts[0]
    diffs = decision_diffs(first[0], replay_virtual(server, arrivals))
    if diffs:
        problems.append(f"simulator vs replay_virtual: {diffs[:3]}")
    streaming = report_counts(timed_sim(arrivals, server, record_requests=False)[1])
    if streaming != expected:
        problems.append(f"simulator streaming counts {streaming} != recorded {expected}")
    if any(counts != expected for counts in recorded_counts):
        problems.append("a repeated simulator run diverged from the first")
    served = expected["completed"] + expected["shed_count"] + expected["failed_count"]
    if not expected["offered"] == served == arrivals.count:
        problems.append(f"simulator lost requests: {expected} for {arrivals.count} offered")

    per_request = 1e6 / arrivals.count
    return {
        "metrics": {
            "sim.recorded_us_per_req": statistics.median(recorded_s) * per_request,
            "sim.streaming_us_per_req": statistics.median(streaming_s) * per_request,
            "sim.replay_us_per_req": statistics.median(replay_s) * per_request,
            "cost.price_ms": price_s * 1e3,
        },
        "problems": problems,
    }
