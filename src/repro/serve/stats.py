"""Serving statistics: latency decomposition, percentiles, report JSON.

Every simulated request's end-to-end latency splits into three causes:

* **batching** — time spent waiting while an array sat idle (the policy
  deliberately coalescing; bounded by the batcher's ``max_wait_us``);
* **queueing** — time spent waiting while every array was busy (capacity
  pressure; unbounded under overload);
* **compute** — time the request's batch occupied an array.

The simulator attributes waiting to batching vs queueing by integrating
the "any array idle" indicator over each request's waiting interval, so
the two components always sum exactly to the total wait.

With stream pipelining a fourth, informational component appears:
**drain saved** — the time a request's batch did *not* pay because it ran
back to back on a warm array (the compute component is already the warm
figure, so queueing + batching + compute still sums to the latency).

Admission control adds **shed** requests: rejected at arrival, recorded
with their timestamps but never dispatched.  Latency statistics cover
served requests only; the report carries the shed count/rate and, for
requests with deadlines, the SLA miss rate among the served.
Multi-tenant runs additionally break requests, sheds, and latency down
per tenant.

Long traces do not need the per-request tables at all: the simulator's
``record_requests=False`` mode folds every served request into
:class:`StreamingStats` — fixed-resolution :class:`LatencyHistogram`
accumulators per latency component (O(1) memory in the trace length)
plus exact streaming counters — and the :class:`ServingReport` reads
from either representation through the same properties.  Counts, rates,
means and the makespan are exact; percentiles are reported at histogram
resolution (within half a bin of the nearest-rank sample percentile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Percentiles reported for every latency component.
PERCENTILES = (50, 95, 99)

#: Default width of one streaming-latency histogram bin, in microseconds.
#: Percentiles from the streaming path land within half a bin of the
#: nearest-rank sample percentile, so 50 us resolves millisecond-scale
#: serving latencies to well under a percent.
DEFAULT_LATENCY_BIN_US = 50.0


def percentile_summary(values_us: np.ndarray) -> dict[str, float]:
    """Mean and p50/p95/p99 of a latency sample, in microseconds."""
    values = np.asarray(values_us, dtype=np.float64)
    if values.size == 0:
        return {"mean_us": 0.0, **{f"p{p}_us": 0.0 for p in PERCENTILES}}
    summary = {"mean_us": float(values.mean())}
    for p in PERCENTILES:
        summary[f"p{p}_us"] = float(np.percentile(values, p))
    return summary


class LatencyHistogram:
    """Fixed- or log-resolution streaming latency accumulator.

    ``kind="linear"`` (default) buckets values into ``bin_us``-wide bins
    (bin ``i`` covers ``[i * bin_us, (i + 1) * bin_us)``); the count
    array grows by doubling, so memory is bounded by the largest observed
    latency, not the number of samples.  The mean and the count are
    exact; a percentile is the midpoint of the bin holding the
    nearest-rank sample, so it sits within half a bin of the exact order
    statistic.

    ``kind="log"`` buckets HDR-histogram style: values below ``bin_us``
    share bucket 0, and each factor-of-two octave above ``bin_us`` splits
    into ``subbins`` equal-width buckets, so every bucket's width is at
    most ``1/subbins`` of its lower bound.  Memory becomes *logarithmic*
    in the largest latency (a handful of KB out to hours) instead of
    linear — a deeply overloaded run cannot blow the count array up —
    and percentile error is bounded *relatively* (within one bucket, i.e.
    ``1/subbins`` of the value) rather than absolutely.

    Adds are buffered and flushed through :func:`numpy.bincount` in
    chunks, keeping the per-sample cost of the simulator's fast path at
    a list append.
    """

    _FLUSH_AT = 4096

    def __init__(
        self,
        bin_us: float = DEFAULT_LATENCY_BIN_US,
        kind: str = "linear",
        subbins: int = 32,
    ) -> None:
        if not (math.isfinite(bin_us) and bin_us > 0):
            from repro.errors import ConfigError

            raise ConfigError("histogram bin width must be finite and positive")
        if kind not in ("linear", "log"):
            from repro.errors import ConfigError

            raise ConfigError(f"unknown histogram kind {kind!r} (linear or log)")
        if subbins < 1:
            from repro.errors import ConfigError

            raise ConfigError("subbins must be positive")
        self.bin_us = float(bin_us)
        self.kind = kind
        self.subbins = int(subbins)
        self._count = 0
        self._total_us = 0.0
        self._max_us = 0.0
        # int32 counts: per-bin counts are bounded by the sample count,
        # and the narrower dtype halves the cost of growing into the
        # million-bin tails an overloaded run produces.
        self._counts = np.zeros(64, dtype=np.int32)
        self._buffer: list[float] = []

    @property
    def count(self) -> int:
        """Samples folded in so far (buffered adds included)."""
        return self._count + len(self._buffer)

    @property
    def max_us(self) -> float:
        """Largest added sample (buffer flushed first)."""
        self._flush()
        return self._max_us

    def add(self, value_us: float) -> None:
        """Fold one latency sample in (negative epsilon clamps to zero)."""
        self._buffer.append(value_us)
        if len(self._buffer) >= self._FLUSH_AT:
            self._flush()

    def add_array(self, values_us, copy: bool = True) -> None:
        """Fold a whole array of samples in one vectorized pass.

        ``copy=False`` skips the defensive copy for callers handing over
        a temporary they will not reuse — the ingest clamps negative
        epsilon to zero *in place*.
        """
        self._flush()
        if copy:
            values = np.array(values_us, dtype=np.float64)
        else:
            values = np.asarray(values_us, dtype=np.float64)
        if values.size:
            self._ingest(values)

    def add_weighted(self, value_us: float, count: int) -> None:
        """Fold ``count`` identical samples in (one bin update)."""
        if count <= 0:
            return
        value = max(value_us, 0.0)
        index = self._index_of(value)
        if index >= self._counts.size:
            self._grow(index)
        self._counts[index] += count
        self._count += count
        self._total_us += value * count
        if value > self._max_us:
            self._max_us = value

    def _grow(self, top: int) -> None:
        # Factor-four growth keeps total copy work well under 2x the
        # final size even for histograms that end millions of bins wide.
        grown = max(top + 1, 4 * self._counts.size)
        counts = np.zeros(grown, dtype=np.int32)
        counts[: self._counts.size] = self._counts
        self._counts = counts

    def _flush(self) -> None:
        if not self._buffer:
            return
        values = np.asarray(self._buffer, dtype=np.float64)
        self._buffer.clear()
        self._ingest(values)

    def _index_of(self, value: float) -> int:
        """Bucket index of one (non-negative) value."""
        if self.kind == "linear":
            return int(value / self.bin_us)
        scaled = value / self.bin_us
        if scaled < 1.0:
            return 0
        # frexp: scaled = m * 2**e with m in [0.5, 1), so the octave
        # above bin_us is e - 1 and 2m - 1 in [0, 1) locates the value
        # inside it; truncation lands in [0, subbins).
        m, e = math.frexp(scaled)
        return 1 + (e - 1) * self.subbins + int((2.0 * m - 1.0) * self.subbins)

    def _bucket_midpoint_us(self, index: int) -> float:
        """Midpoint of a bucket (the percentile representative)."""
        if self.kind == "linear":
            return (index + 0.5) * self.bin_us
        if index == 0:
            return 0.5 * self.bin_us
        octave, pos = divmod(index - 1, self.subbins)
        base = self.bin_us * float(2**octave)
        lo = base * (1.0 + pos / self.subbins)
        hi = base * (1.0 + (pos + 1) / self.subbins)
        return 0.5 * (lo + hi)

    def _ingest(self, values: np.ndarray) -> None:
        np.maximum(values, 0.0, out=values)
        self._count += values.size
        self._total_us += float(values.sum())
        self._max_us = max(self._max_us, float(values.max()))
        if self.kind == "linear":
            bins = (values / self.bin_us).astype(np.int64)
        else:
            scaled = values / self.bin_us
            m, e = np.frexp(scaled)
            raw = (
                1
                + (e.astype(np.int64) - 1) * self.subbins
                + ((2.0 * m - 1.0) * self.subbins).astype(np.int64)
            )
            bins = np.where(scaled < 1.0, 0, raw)
        top = int(bins.max())
        if top >= self._counts.size:
            self._grow(top)
        # Chunk values cluster (latencies drift slowly), so a bincount
        # over the chunk's own bin range is usually cheapest; fall back
        # to a scatter-add when the chunk is sparse across a wide range,
        # so the work never scales with the histogram's total bin count
        # (overload tails reach millions of bins).
        bottom = int(bins.min())
        width = top - bottom + 1
        if width <= 32 * bins.size:
            self._counts[bottom : top + 1] += np.bincount(
                bins - bottom, minlength=width
            ).astype(np.int32, copy=False)
        else:
            np.add.at(self._counts, bins, 1)

    @property
    def mean_us(self) -> float:
        """Exact mean of every added sample."""
        self._flush()
        if self.count == 0:
            return 0.0
        return self._total_us / self.count

    def percentile(self, p: float) -> float:
        """Linear-interpolated ``p``-percentile at histogram resolution.

        Mirrors :func:`numpy.percentile`'s default (linear) method on the
        binned data: the fractional rank interpolates between the two
        bracketing order statistics, each located to its bin and
        represented by the bin midpoint.  Because the estimate is a
        convex combination of two midpoints that each sit within half a
        bucket of their exact order statistic, the result is guaranteed
        within the wider bracketing bucket's half-width of the exact
        :func:`numpy.percentile` value (half a bin for ``linear``; a
        ``1/subbins`` relative error for ``log``).
        """
        self._flush()
        if self.count == 0:
            return 0.0
        cumulative = np.cumsum(self._counts)
        position = p / 100.0 * (self.count - 1)
        lower = int(position)
        fraction = position - lower
        # Order statistic i (0-based) is the (i + 1)-th smallest sample.
        low_bin = int(np.searchsorted(cumulative, lower + 1))
        if self.kind == "linear":
            value = (low_bin + 0.5) * self.bin_us
            if fraction > 0.0:
                high_bin = int(np.searchsorted(cumulative, lower + 2))
                value += fraction * ((high_bin - low_bin) * self.bin_us)
            return value
        value = self._bucket_midpoint_us(low_bin)
        if fraction > 0.0:
            high_bin = int(np.searchsorted(cumulative, lower + 2))
            value += fraction * (self._bucket_midpoint_us(high_bin) - value)
        return value

    def summary(self) -> dict[str, float]:
        """:func:`percentile_summary`-compatible mean/p50/p95/p99 dict."""
        summary = {"mean_us": self.mean_us}
        for p in PERCENTILES:
            summary[f"p{p}_us"] = self.percentile(p)
        return summary

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same bucketing) into this one."""
        if (
            other.bin_us != self.bin_us
            or other.kind != self.kind
            or other.subbins != self.subbins
        ):
            from repro.errors import ConfigError

            raise ConfigError("cannot merge histograms with different bucketing")
        other._flush()
        self._flush()
        if other._counts.size > self._counts.size:
            self._counts = np.concatenate(
                [
                    self._counts,
                    np.zeros(other._counts.size - self._counts.size, dtype=np.int32),
                ]
            )
        self._counts[: other._counts.size] += other._counts
        self._count += other._count
        self._total_us += other._total_us
        self._max_us = max(self._max_us, other._max_us)


class StreamingStats:
    """O(1)-memory aggregate of a serving run (``record_requests=False``).

    Everything the report needs without the per-request/per-batch tables:
    exact offered/served/shed counts, per-component latency histograms,
    batch-size histogram, warm/drain accounting, and per-tenant
    breakdowns.  ``components`` always carries ``total`` / ``queueing`` /
    ``batching`` / ``compute`` histograms (plus ``drain_saved`` when the
    run is pipelined).
    """

    def __init__(
        self, bin_us: float = DEFAULT_LATENCY_BIN_US, pipeline: bool = False
    ) -> None:
        self.bin_us = float(bin_us)
        names = ["total", "queueing", "batching", "compute"]
        if pipeline:
            names.append("drain_saved")
        self.components = {name: LatencyHistogram(bin_us) for name in names}
        self.offered = 0
        self.shed = 0
        #: Requests terminally failed by the fault layer (attempt budget
        #: exhausted after crashes) — neither shed nor served.
        self.failed = 0
        self.batches = 0
        self.warm_batches = 0
        self.drain_saved_us = 0.0
        self.deadline_misses = 0
        self.served_with_deadline = 0
        self.batch_sizes: dict[int, int] = {}

    @property
    def completed(self) -> int:
        """Requests admitted and served."""
        return self.offered - self.shed - self.failed

    def add_batch(self, size: int, warm: bool, drain_saved_us: float) -> None:
        """Account one dispatched batch."""
        self.batches += 1
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        if warm:
            self.warm_batches += 1
            self.drain_saved_us += drain_saved_us

    def add_request(
        self,
        latency_us: float,
        queueing_us: float,
        batching_us: float,
        compute_us: float,
        drain_saved_us: float = 0.0,
    ) -> None:
        """Fold one served request's latency decomposition in."""
        components = self.components
        components["total"].add(latency_us)
        components["queueing"].add(queueing_us)
        components["batching"].add(batching_us)
        components["compute"].add(compute_us)
        drain = components.get("drain_saved")
        if drain is not None:
            drain.add(drain_saved_us)

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Mean/p50/p95/p99 per component, from the histograms."""
        return {name: hist.summary() for name, hist in self.components.items()}


def tenant_summary_from_streaming(
    name: str,
    weight: float,
    stats: StreamingStats,
    total_served: int,
) -> dict:
    """One tenant's report entry from its streaming accumulator."""
    return {
        "tenant": name,
        "weight": weight,
        "offered": stats.offered,
        "served": stats.completed,
        "shed": stats.shed,
        "failed": stats.failed,
        "served_share": (stats.completed / total_served if total_served else 0.0),
        "deadline_misses": stats.deadline_misses,
        "latency_us": stats.components["total"].summary(),
    }


@dataclass
class RequestRecord:
    """Timestamps and latency decomposition of one served request."""

    index: int
    arrival_us: float
    dispatch_us: float = 0.0
    done_us: float = 0.0
    batch_index: int = -1
    #: Wait attributable to deliberate coalescing (an array was idle).
    batching_us: float = 0.0
    #: Wait attributable to capacity (every array was busy).
    queueing_us: float = 0.0
    #: Time saved because the batch ran warm (informational; not part of
    #: the queueing/batching/compute sum — compute is already warm).
    drain_saved_us: float = 0.0
    #: Which tenant the request belongs to ("" in single-tenant runs).
    tenant: str = ""
    #: Absolute completion deadline (SLA); ``inf`` = none.
    deadline_us: float = math.inf
    #: Rejected by the admission policy at arrival (never dispatched).
    shed: bool = False
    #: Terminally failed by the fault layer (crashes exhausted the
    #: per-request attempt budget) — admitted but never completed.
    failed: bool = False

    @property
    def compute_us(self) -> float:
        """Time the request's batch occupied an array."""
        return self.done_us - self.dispatch_us

    @property
    def latency_us(self) -> float:
        """End-to-end latency from arrival to completion."""
        return self.done_us - self.arrival_us

    @property
    def missed_deadline(self) -> bool:
        """Served past a finite deadline (shed/failed requests excluded)."""
        return (
            not self.shed
            and not self.failed
            and math.isfinite(self.deadline_us)
            and self.done_us > self.deadline_us
        )


@dataclass
class BatchRecord:
    """One dispatched batch: membership, placement, and exact cycles."""

    index: int
    size: int
    array: int
    dispatch_us: float
    done_us: float
    cycles: int
    request_indices: list[int] = field(default_factory=list)
    #: Whether the batch ran back to back on a warm (pipelined) array.
    warm: bool = False
    #: Time the warm hand-off saved over a cold dispatch.
    drain_saved_us: float = 0.0
    #: Which tenant's queue formed the batch ("" in single-tenant runs).
    tenant: str = ""
    #: True when the batch crashed instead of completing; ``done_us`` is
    #: then the completion it was *predicted* to reach (its compute span
    #: actually closed at crash detection).
    crashed: bool = False


@dataclass
class ServingReport:
    """Everything a serving simulation produced, JSON-serializable.

    Two interchangeable representations back the summary properties: the
    full per-request/per-batch tables (``requests`` / ``batches``), or —
    in the simulator's ``record_requests=False`` mode — a
    :class:`StreamingStats` aggregate with the tables left empty.
    """

    network: str
    trace_name: str
    offered_rps: float
    policy: dict
    arrays: int
    clock_mhz: float
    accounting: str
    requests: list[RequestRecord]
    batches: list[BatchRecord]
    array_stats: list[dict]
    makespan_us: float
    wall_seconds: float
    predictions: np.ndarray | None = None
    pipeline: bool = False
    #: Per-tenant breakdowns (None in single-tenant runs).
    tenants: list[dict] | None = None
    #: Streaming aggregate of a ``record_requests=False`` run (the
    #: per-request/per-batch tables are empty when this is set).
    streaming: StreamingStats | None = None
    #: Fault-layer accounting (crashes, retries, failures, quarantines,
    #: recovery times) — None when the run saw no fault machinery.
    faults: dict | None = None

    @property
    def served(self) -> list[RequestRecord]:
        """Requests that were admitted and completed (empty in streaming mode)."""
        return [
            record
            for record in self.requests
            if not record.shed and not record.failed
        ]

    @property
    def completed(self) -> int:
        """Number of requests served (shed/failed requests excluded)."""
        if self.streaming is not None:
            return self.streaming.completed
        return len(self.requests) - self.shed_count - self.failed_count

    @property
    def offered(self) -> int:
        """Number of requests that arrived (served + shed + failed)."""
        if self.streaming is not None:
            return self.streaming.offered
        return len(self.requests)

    @property
    def shed_count(self) -> int:
        """Requests rejected by the admission policy."""
        if self.streaming is not None:
            return self.streaming.shed
        return sum(1 for record in self.requests if record.shed)

    @property
    def failed_count(self) -> int:
        """Requests terminally failed by the fault layer."""
        if self.streaming is not None:
            return self.streaming.failed
        return sum(1 for record in self.requests if record.failed)

    @property
    def goodput(self) -> float:
        """Completed fraction of offered requests (1.0 = nothing lost)."""
        if self.offered == 0:
            return 1.0
        return self.completed / self.offered

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals shed."""
        if self.offered == 0:
            return 0.0
        return self.shed_count / self.offered

    @property
    def deadline_miss_count(self) -> int:
        """Served requests that finished past a finite deadline."""
        if self.streaming is not None:
            return self.streaming.deadline_misses
        return sum(1 for record in self.requests if record.missed_deadline)

    @property
    def deadline_miss_rate(self) -> float:
        """SLA miss fraction among served requests with deadlines."""
        if self.streaming is not None:
            with_deadline = self.streaming.served_with_deadline
        else:
            with_deadline = sum(
                1
                for record in self.requests
                if not record.shed and math.isfinite(record.deadline_us)
            )
        if with_deadline == 0:
            return 0.0
        return self.deadline_miss_count / with_deadline

    @property
    def throughput_rps(self) -> float:
        """Achieved throughput in simulated requests per second."""
        if self.makespan_us <= 0:
            return 0.0
        return self.completed / self.makespan_us * 1e6

    @property
    def wall_rps(self) -> float:
        """Host-side simulation throughput (requests per wall second)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def batch_count(self) -> int:
        """Number of dispatched batches."""
        if self.streaming is not None:
            return self.streaming.batches
        return len(self.batches)

    @property
    def mean_batch_size(self) -> float:
        """Average formed batch size."""
        if self.batch_count == 0:
            return 0.0
        return self.completed / self.batch_count

    @property
    def warm_batches(self) -> int:
        """Batches that ran back to back on a warm (pipelined) array."""
        if self.streaming is not None:
            return self.streaming.warm_batches
        return sum(1 for batch in self.batches if batch.warm)

    @property
    def drain_saved_total_us(self) -> float:
        """Total time warm hand-offs saved across all warm batches."""
        if self.streaming is not None:
            return self.streaming.drain_saved_us
        return sum(batch.drain_saved_us for batch in self.batches)

    def array_utilization(self) -> dict[int, float]:
        """Busy fraction per array (busy-us / makespan-us).

        The same figure a :class:`~repro.obs.tracer.RecordingTracer`
        derives independently from its busy-span events
        (``array_utilization(makespan_us)``) — the obs tests assert the
        two agree exactly, which pins the tracer's span accounting to
        the pool's charge accounting.
        """
        return {
            int(stat["array"]): float(stat["utilization"])
            for stat in self.array_stats
        }

    def batch_size_histogram(self) -> dict[int, int]:
        """How many batches formed at each size."""
        if self.streaming is not None:
            return dict(sorted(self.streaming.batch_sizes.items()))
        histogram: dict[int, int] = {}
        for batch in self.batches:
            histogram[batch.size] = histogram.get(batch.size, 0) + 1
        return dict(sorted(histogram.items()))

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Mean/p50/p95/p99 per component over served requests."""
        if self.streaming is not None:
            return self.streaming.latency_summary()
        served = self.served
        components = {
            "total": np.array([r.latency_us for r in served]),
            "queueing": np.array([r.queueing_us for r in served]),
            "batching": np.array([r.batching_us for r in served]),
            "compute": np.array([r.compute_us for r in served]),
        }
        if self.pipeline:
            components["drain_saved"] = np.array([r.drain_saved_us for r in served])
        return {name: percentile_summary(values) for name, values in components.items()}

    def to_dict(self) -> dict:
        """JSON-serializable summary (per-request records elided)."""
        return {
            "network": self.network,
            "trace": self.trace_name,
            "offered_rps": self.offered_rps,
            "policy": self.policy,
            "arrays": self.arrays,
            "clock_mhz": self.clock_mhz,
            "accounting": self.accounting,
            "pipeline": self.pipeline,
            "record_requests": self.streaming is None,
            "latency_bin_us": (
                self.streaming.bin_us if self.streaming is not None else None
            ),
            "requests": self.completed,
            "offered_requests": self.offered,
            "shed": self.shed_count,
            "shed_rate": self.shed_rate,
            "failed": self.failed_count,
            "goodput": self.goodput,
            "faults": self.faults,
            "deadline_miss_rate": self.deadline_miss_rate,
            "tenants": self.tenants,
            "batches": self.batch_count,
            "warm_batches": self.warm_batches,
            "drain_saved_us": self.drain_saved_total_us,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {
                str(size): count for size, count in self.batch_size_histogram().items()
            },
            "makespan_us": self.makespan_us,
            "throughput_rps": self.throughput_rps,
            "wall_seconds": self.wall_seconds,
            "wall_rps": self.wall_rps,
            "array_utilization": [stat["utilization"] for stat in self.array_stats],
            "latency_us": self.latency_summary(),
        }

    def format_table(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"Serving simulation — {self.network} network, {self.trace_name} trace,"
            f" {self.policy['describe']}, {self.arrays} array(s)",
            f"  offered {self.offered_rps:,.1f} req/s ->"
            f" served {self.completed} requests in {self.makespan_us / 1e3:,.2f} ms"
            f" = {self.throughput_rps:,.1f} req/s"
            f" ({self.accounting} accounting at {self.clock_mhz:.0f} MHz)",
            f"  batches: {self.batch_count} (mean size {self.mean_batch_size:.2f},"
            f" histogram {self.batch_size_histogram()})",
            *(
                [
                    f"  admission: shed {self.shed_count}/{self.offered}"
                    f" ({self.shed_rate:.1%}); deadline misses among served:"
                    f" {self.deadline_miss_count} ({self.deadline_miss_rate:.1%})"
                ]
                if self.shed_count or self.deadline_miss_count
                else []
            ),
            *(
                [
                    f"  tenant {entry['tenant']}: {entry['served']} served"
                    f" / {entry['shed']} shed, p99"
                    f" {entry['latency_us']['p99_us']:,.0f}us"
                    for entry in self.tenants
                ]
                if self.tenants
                else []
            ),
            *(
                [
                    f"  faults: {self.faults['crashes']} crashes"
                    f" ({self.faults['injected']} injected),"
                    f" {self.faults['retries']} retries,"
                    f" {self.faults['failed']} failed,"
                    f" {self.faults['quarantines']} quarantines"
                    f" (max recovery"
                    f" {self.faults['recovery_max_us']:,.0f}us);"
                    f" goodput {self.goodput:.2%}"
                ]
                if self.faults
                else []
            ),
            *(
                [
                    f"  integrity: {self.faults['corruptions']} corruptions"
                    f" ({self.faults['detected']} detected,"
                    f" {self.faults['corrupted_served']} requests served"
                    " corrupted);"
                    f" canaries {self.faults['canaries']}"
                    f" ({self.faults['canary_detected']} detections)"
                ]
                if self.faults
                and (
                    self.faults.get("corruptions")
                    or self.faults.get("canaries")
                )
                else []
            ),
            *(
                [
                    f"  pipeline: {self.warm_batches}/{self.batch_count} warm batches,"
                    f" {self.drain_saved_total_us:,.0f}us drain saved"
                ]
                if self.pipeline
                else []
            ),
            "  array utilization: "
            + ", ".join(
                f"#{stat['array']} {stat['utilization']:.1%}" for stat in self.array_stats
            ),
            f"  simulator wall clock: {self.wall_seconds:.3f} s"
            f" = {self.wall_rps:,.1f} req/s host",
            f"  {'latency':10s} {'mean':>10s} {'p50':>10s} {'p95':>10s} {'p99':>10s}",
        ]
        for name, summary in self.latency_summary().items():
            lines.append(
                f"  {name:10s} {summary['mean_us']:9.0f}us {summary['p50_us']:9.0f}us"
                f" {summary['p95_us']:9.0f}us {summary['p99_us']:9.0f}us"
            )
        return "\n".join(lines)
