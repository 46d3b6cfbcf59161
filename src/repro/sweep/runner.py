"""Sweep evaluation: per-point cost models, process fan-out, artifacts.

Two evaluation tiers share one declarative grid:

* ``analytic`` — each point is priced from the network's compiled
  program (:func:`~repro.compiler.cost.program_stream_timing`:
  steady-state and cold cycles per image, modeled throughput, pipelined
  speedup over the per-batch double-buffered schedule) plus the
  synthesis model's area/power for the point's array size.  Cheap
  enough for wide grids — this is the window / prestage / array-size
  exploration.
* ``serving`` — each point runs the discrete-event serving simulator in
  its ``record_requests=False`` streaming mode on a seeded saturating
  Poisson trace, reporting served throughput, latency percentiles, shed
  and SLA-miss rates.  Accurate tier for policy/batching axes.

Every point is independent, so :func:`run_sweep` can fan the grid out
across worker processes (`processes=1` stays serial; results are
identical either way — the fan-out only changes wall clock).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.sweep.grid import expand_grid

#: Axes the analytic tier understands.
ANALYTIC_AXES = ("network", "array", "window", "prestage_depth", "batch")

#: Axes the serving tier understands (hardware axes plus policy knobs).
SERVING_AXES = ANALYTIC_AXES + (
    "policy",
    "max_batch",
    "max_wait_us",
    "rate_multiplier",
    "arrays",
    "dispatch",
    "crash_rate",
    "max_attempts",
    "corrupt_rate",
    "integrity",
)

#: Tier name -> allowed axes.
TIERS = {"analytic": ANALYTIC_AXES, "serving": SERVING_AXES}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep description: tier, network, axes, fixed settings.

    ``axes`` maps axis names to value tuples (see :data:`TIERS` for the
    names each tier accepts); every other field is the fixed setting a
    point inherits when it does not sweep that axis.  The spec is plain
    data — picklable, so worker processes rebuild it from a dict.
    """

    tier: str = "analytic"
    network: str = "mnist"
    axes: dict = field(default_factory=dict)
    #: Fixed defaults for un-swept axes.
    array: int = 16
    window: int = 2
    prestage_depth: int = 4
    batch: int = 8
    #: Serving-tier settings.
    policy: str = "fifo"
    max_batch: int = 8
    max_wait_us: float = 2000.0
    rate_multiplier: float = 2.5
    arrays: int = 1
    dispatch: str | None = None
    #: Fault axes (``crash_rate`` > 0 enables injection; points with
    #: faults run the recording path — the streaming fast path refuses
    #: fault plans — so keep fault grids modest).
    crash_rate: float = 0.0
    max_attempts: int = 3
    #: Integrity axes: seeded silent-corruption injection rate and the
    #: check mode countering it (armed points also run the recording
    #: path).
    corrupt_rate: float = 0.0
    integrity: str = "none"
    fault_seed: int = 1
    requests: int = 2000
    deadline_ms: float | None = None
    pipeline: bool = False
    seed: int = 7
    latency_bin_us: float = 50.0
    #: Include the synthesis model's area/power columns (analytic tier).
    synthesis: bool = True

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ConfigError(
                f"unknown sweep tier {self.tier!r} (choose from {tuple(TIERS)})"
            )
        from repro.compiler.zoo import zoo_names

        names = zoo_names()
        if self.network not in names:
            raise ConfigError(
                f"unknown network {self.network!r} (choose from {names})"
            )
        allowed = TIERS[self.tier]
        for name in self.axes:
            if name not in allowed:
                raise ConfigError(
                    f"axis {name!r} is not a {self.tier}-tier axis"
                    f" (choose from {allowed})"
                )
        for value in self.axes.get("network", ()):
            if value not in names:
                raise ConfigError(
                    f"unknown network {value!r} on the network axis"
                    f" (choose from {names})"
                )
        from repro.serve.integrity import CHECK_MODES

        for mode in (self.integrity, *self.axes.get("integrity", ())):
            if mode not in CHECK_MODES:
                raise ConfigError(
                    f"unknown integrity mode {mode!r}"
                    f" (choose from {CHECK_MODES})"
                )
        if self.requests < 1:
            raise ConfigError("requests must be positive")

    def points(self) -> list[dict]:
        """The expanded grid."""
        return expand_grid(self.axes)


def _accel_config(array: int):
    from repro.hw.config import AcceleratorConfig

    return AcceleratorConfig().with_array(array, array)


def _setting(spec: SweepSpec, point: dict, name: str):
    """A point's value for one axis, falling back to the spec default."""
    return point.get(name, getattr(spec, name))


def evaluate_analytic_point(spec: SweepSpec, point: dict) -> dict:
    """Closed-form metrics of one (array, window, prestage, batch) point."""
    from repro.compiler.cost import program_steady_cycles, program_stream_timing
    from repro.compiler.zoo import get_network
    from repro.serve.costs import ScheduledBatchCost

    array = int(_setting(spec, point, "array"))
    window = int(_setting(spec, point, "window"))
    prestage = int(_setting(spec, point, "prestage_depth"))
    batch = int(_setting(spec, point, "batch"))
    network_name = str(_setting(spec, point, "network"))
    network = get_network(network_name)
    config = _accel_config(array)
    double_buffered = ScheduledBatchCost(network, accel_config=config).batch_cycles(
        batch
    )
    pipelined = {"window": window, "prestage_depth": prestage}
    steady = program_steady_cycles(config, network.program, batch, **pipelined)
    cold = program_stream_timing(
        config, network.program, [batch], **pipelined
    ).finish_cycles
    steady_per_image = steady / batch
    row = {
        **point,
        "network": network_name,
        "array": array,
        "window": window,
        "prestage_depth": prestage,
        "batch": batch,
        "steady_cycles_per_image": steady_per_image,
        "cold_cycles": cold,
        "images_per_s": (
            config.clock_mhz * 1e6 / steady_per_image if steady_per_image else 0.0
        ),
        "latency_ms": config.cycles_to_us(cold) / 1e3,
        "pipeline_speedup": double_buffered / steady if steady else 0.0,
    }
    if spec.synthesis:
        from repro.synthesis.report import SynthesisReport

        table = SynthesisReport(config=config).table2()
        row["area_mm2"] = table["area_mm2"]
        row["power_mw"] = table["power_mw"]
    return row


def evaluate_serving_point(spec: SweepSpec, point: dict) -> dict:
    """Fast-simulator metrics of one serving-configuration point."""
    from repro.compiler.zoo import get_network
    from repro.serve import (
        FaultPlan,
        RetryPolicy,
        ScheduledBatchCost,
        ServerConfig,
        ServingSimulator,
        poisson_trace,
    )

    array = int(_setting(spec, point, "array"))
    window = int(_setting(spec, point, "window"))
    prestage = int(_setting(spec, point, "prestage_depth"))
    policy = str(_setting(spec, point, "policy"))
    max_batch = int(_setting(spec, point, "max_batch"))
    max_wait_us = float(_setting(spec, point, "max_wait_us"))
    rate_multiplier = float(_setting(spec, point, "rate_multiplier"))
    arrays = int(_setting(spec, point, "arrays"))
    dispatch = _setting(spec, point, "dispatch")
    crash_rate = float(_setting(spec, point, "crash_rate"))
    max_attempts = int(_setting(spec, point, "max_attempts"))
    corrupt_rate = float(_setting(spec, point, "corrupt_rate"))
    integrity = str(_setting(spec, point, "integrity"))
    network_name = str(_setting(spec, point, "network"))
    config = _accel_config(array)
    cost = ScheduledBatchCost(
        get_network(network_name),
        accel_config=config,
        pipeline=spec.pipeline,
        window=window,
        prestage_depth=prestage,
        integrity=integrity,
    )
    capacity_rps = arrays * config.clock_mhz * 1e6 / cost.batch_cycles(1)
    trace = poisson_trace(
        rate_multiplier * capacity_rps,
        spec.requests,
        np.random.default_rng(spec.seed),
    )
    server = ServerConfig.from_policy(
        policy,
        cost,
        max_batch=max_batch,
        max_wait_us=max_wait_us,
        dispatch=dispatch,
        arrays=arrays,
        pipeline=spec.pipeline,
        deadline_us=(
            spec.deadline_ms * 1000.0 if spec.deadline_ms is not None else None
        ),
        network_name=network_name,
        fault_plan=(
            FaultPlan(
                crash_rate=crash_rate,
                corrupt_rate=corrupt_rate,
                seed=spec.fault_seed,
            )
            if crash_rate > 0.0 or corrupt_rate > 0.0
            else None
        ),
        retry=RetryPolicy(max_attempts=max_attempts),
        integrity=integrity if integrity != "none" else None,
    )
    # Fault and integrity points need the recording path (the streaming
    # fast path refuses both); clean points keep the fast tier.
    report = ServingSimulator(trace, server=server).run(
        record_requests=crash_rate > 0.0
        or corrupt_rate > 0.0
        or integrity != "none",
        latency_bin_us=spec.latency_bin_us,
    )
    latency = report.latency_summary()["total"]
    utilization = [stat["utilization"] for stat in report.array_stats]
    faults = report.faults or {}
    return {
        **point,
        "network": network_name,
        "array": array,
        "policy": policy,
        "arrays": arrays,
        "rate_multiplier": rate_multiplier,
        "crash_rate": crash_rate,
        "max_attempts": max_attempts,
        "corrupt_rate": corrupt_rate,
        "integrity": integrity,
        "corruptions": int(faults.get("corruptions", 0)),
        "detected": int(faults.get("detected", 0)),
        "corrupted_served": int(faults.get("corrupted_served", 0)),
        "offered_rps": report.offered_rps,
        "throughput_rps": report.throughput_rps,
        "served": report.completed,
        "goodput": report.goodput,
        "failed": report.failed_count,
        "retries": int(faults.get("retries", 0)),
        "crashes": int(faults.get("crashes", 0)),
        "shed_rate": report.shed_rate,
        "deadline_miss_rate": report.deadline_miss_rate,
        "mean_batch_size": report.mean_batch_size,
        "p50_us": latency["p50_us"],
        "p99_us": latency["p99_us"],
        "mean_utilization": (
            sum(utilization) / len(utilization) if utilization else 0.0
        ),
        "wall_rps": report.wall_rps,
    }


def evaluate_point(spec: SweepSpec, point: dict) -> dict:
    """Evaluate one sweep point under the spec's tier."""
    if spec.tier == "analytic":
        return evaluate_analytic_point(spec, point)
    return evaluate_serving_point(spec, point)


def _worker(payload: tuple[dict, dict]) -> dict:
    """Process-pool entry: rebuild the spec and evaluate one point."""
    spec_fields, point = payload
    return evaluate_point(SweepSpec(**spec_fields), point)


@dataclass
class SweepResult:
    """Every evaluated sweep point, plus artifact writers."""

    spec: SweepSpec
    rows: list[dict]
    wall_seconds: float
    processes: int

    def best(self, metric: str, maximize: bool = True) -> dict:
        """The row optimizing one metric."""
        if not self.rows:
            raise ConfigError("the sweep produced no rows")
        chooser = max if maximize else min
        return chooser(self.rows, key=lambda row: row[metric])

    def to_dict(self) -> dict:
        """JSON-serializable artifact."""
        return {
            "sweep": asdict(self.spec),
            "points": len(self.rows),
            "processes": self.processes,
            "wall_seconds": self.wall_seconds,
            "rows": self.rows,
        }

    def write_json(self, path: str | Path) -> None:
        """Write the artifact JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def write_csv(self, path: str | Path) -> None:
        """Write the rows as CSV (columns from the first row)."""
        if not self.rows:
            raise ConfigError("the sweep produced no rows")
        columns = list(self.rows[0])
        with Path(path).open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(self.rows)

    def format_table(self) -> str:
        """Human-readable sweep table for the CLI."""
        if not self.rows:
            return "(no sweep points)"
        network_column = (
            [("network", lambda r: str(r["network"]))]
            if "network" in self.spec.axes
            else []
        )
        if self.spec.tier == "analytic":
            columns = network_column + [
                ("array", lambda r: f"{r['array']}x{r['array']}"),
                ("window", lambda r: str(r["window"])),
                ("prestage", lambda r: str(r["prestage_depth"])),
                ("batch", lambda r: str(r["batch"])),
                ("cyc/img", lambda r: f"{r['steady_cycles_per_image']:,.0f}"),
                ("img/s", lambda r: f"{r['images_per_s']:,.0f}"),
                ("speedup", lambda r: f"{r['pipeline_speedup']:.3f}x"),
                ("latency ms", lambda r: f"{r['latency_ms']:.3f}"),
            ]
            if "area_mm2" in self.rows[0]:
                columns += [
                    ("area mm2", lambda r: f"{r['area_mm2']:.2f}"),
                    ("power mW", lambda r: f"{r['power_mw']:.1f}"),
                ]
        else:
            columns = network_column + [
                ("array", lambda r: f"{r['array']}x{r['array']}"),
                ("policy", lambda r: str(r["policy"])),
                ("arrays", lambda r: str(r["arrays"])),
                ("rate", lambda r: f"{r['rate_multiplier']:g}x"),
                ("req/s", lambda r: f"{r['throughput_rps']:,.0f}"),
                ("batch", lambda r: f"{r['mean_batch_size']:.2f}"),
                ("p50 ms", lambda r: f"{r['p50_us'] / 1e3:.2f}"),
                ("p99 ms", lambda r: f"{r['p99_us'] / 1e3:.2f}"),
                ("shed", lambda r: f"{r['shed_rate']:.1%}"),
                ("util", lambda r: f"{r['mean_utilization']:.1%}"),
            ]
            if any(row.get("crash_rate") for row in self.rows):
                columns += [
                    ("crash", lambda r: f"{r['crash_rate']:g}"),
                    ("tries", lambda r: str(r["max_attempts"])),
                    ("goodput", lambda r: f"{r['goodput']:.1%}"),
                    ("failed", lambda r: str(r["failed"])),
                ]
            if any(
                row.get("corrupt_rate") or row.get("integrity", "none") != "none"
                for row in self.rows
            ):
                columns += [
                    ("corrupt", lambda r: f"{r['corrupt_rate']:g}"),
                    ("checks", lambda r: str(r["integrity"])),
                    ("detect", lambda r: str(r["detected"])),
                    ("bad", lambda r: str(r["corrupted_served"])),
                ]
        header = " ".join(f"{name:>10s}" for name, _ in columns)
        lines = [
            f"Sweep — {self.spec.tier} tier, {self.spec.network} network,"
            f" {len(self.rows)} point(s), {self.processes} process(es),"
            f" {self.wall_seconds:.2f} s",
            header,
        ]
        for row in self.rows:
            lines.append(" ".join(f"{fmt(row):>10s}" for _, fmt in columns))
        return "\n".join(lines)


def run_sweep(spec: SweepSpec, processes: int = 1) -> SweepResult:
    """Evaluate every grid point, optionally across worker processes.

    ``processes`` <= 1 evaluates serially in this process; larger values
    fan points out over a :class:`concurrent.futures.ProcessPoolExecutor`
    (falling back to serial if the platform refuses to spawn workers).
    Row order always matches the grid expansion, so artifacts are
    identical whatever the fan-out.
    """
    points = spec.points()
    wall_start = time.perf_counter()
    spec_fields = asdict(spec)
    used = 1
    rows: list[dict] | None = None
    if processes > 1 and len(points) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            workers = min(processes, len(points))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(
                    pool.map(_worker, [(spec_fields, point) for point in points])
                )
            used = workers
        except (OSError, PermissionError):
            rows = None  # sandboxed platform: fall back to serial
    if rows is None:
        rows = [evaluate_point(spec, point) for point in points]
    return SweepResult(
        spec=spec,
        rows=rows,
        wall_seconds=time.perf_counter() - wall_start,
        processes=used,
    )
