"""Completion sinks: one surface for recorded, streaming, and live runs.

Historically the serving simulator had two hard-wired result paths —
``record_requests=True`` filled per-request/per-batch tables inline, and
``record_requests=False`` folded everything into streaming histograms.
The live runtime would have needed a third.  A :class:`CompletionSink`
is the one protocol all three drive: the event loop reports arrivals,
sheds, and completed batches; the sink owns how they are materialized.

* :class:`RecordingSink` — full :class:`~repro.serve.stats.RequestRecord`
  / :class:`~repro.serve.stats.BatchRecord` tables, exact percentiles.
  The arithmetic of the per-member latency decomposition is kept
  bit-identical to the historical recorded path.
* :class:`StreamingSink` — O(1)-memory
  :class:`~repro.serve.stats.StreamingStats` histograms; counts exact,
  percentiles at histogram resolution.

Both end in the same :class:`~repro.serve.stats.ServingReport`, which is
what makes a sim-vs-live crosscheck a one-function comparison
(:mod:`repro.serve.compare`).

The ``on_batch`` contract passes per-member *inputs* (arrival, deadline,
idle-integral snapshot) plus the batch's dispatch/done instants and the
idle integral at dispatch; the sink derives each member's wait and its
batching-vs-queueing split.  ``dispatch_us``/``done_us`` are virtual
times in the simulator and wall-clock times in the live runtime — the
sink cannot tell the difference, which is the point.

Sinks aggregate *outcomes* into reports; the observability layer
(:mod:`repro.obs`) is the complementary surface for *events*: a tracer
on the serving core sees the full per-request lifecycle (including
intermediate instants sinks never learn, like batch formation and
stacked dispatch) and feeds timeline exports and live metrics.  Note
the simulator's streaming fast path supports no tracer — it bypasses
the instrumented core (see :meth:`ServingSimulator.run
<repro.serve.simulator.ServingSimulator.run>`).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

from repro.serve.stats import (
    DEFAULT_LATENCY_BIN_US,
    BatchRecord,
    RequestRecord,
    StreamingStats,
)


@runtime_checkable
class CompletionSink(Protocol):
    """Where a serving run's outcomes accumulate."""

    def on_arrival(
        self, arrival_us: float, deadline_us: float = math.inf, tenant: str = ""
    ) -> int:
        """Register one arriving request; returns its global index."""
        ...

    def on_shed(self, index: int) -> None:
        """Request ``index`` was rejected by admission (never served)."""
        ...

    def on_failed(self, index: int) -> None:
        """Request ``index`` terminally failed (crash budget exhausted)."""
        ...

    def on_batch(
        self,
        *,
        tenant: str,
        array: int,
        size: int,
        dispatch_us: float,
        done_us: float,
        cycles: int,
        warm: bool,
        drain_saved_us: float,
        member_indices: Sequence[int],
        member_arrivals: Sequence[float],
        member_deadlines: Sequence[float],
        member_idle_snaps: Sequence[float],
        idle_accum_us: float,
        crashed: bool = False,
    ) -> int:
        """Fold one finished batch in; returns the batch index.

        ``crashed=True`` records a batch the fault layer killed — its
        members either retried (a later ``on_batch`` overwrites them) or
        terminally failed (``on_failed`` marks them).
        """
        ...


class RecordingSink:
    """Per-request / per-batch tables (the exact-percentile path)."""

    def __init__(self) -> None:
        self.requests: list[RequestRecord] = []
        self.batches: list[BatchRecord] = []

    def on_arrival(
        self, arrival_us: float, deadline_us: float = math.inf, tenant: str = ""
    ) -> int:
        """Append a request record; returns its index."""
        index = len(self.requests)
        self.requests.append(
            RequestRecord(
                index=index,
                arrival_us=arrival_us,
                tenant=tenant,
                deadline_us=deadline_us,
            )
        )
        return index

    def on_shed(self, index: int) -> None:
        """Mark a request shed."""
        self.requests[index].shed = True

    def on_failed(self, index: int) -> None:
        """Mark a request terminally failed by the fault layer."""
        self.requests[index].failed = True

    def on_batch(
        self,
        *,
        tenant: str,
        array: int,
        size: int,
        dispatch_us: float,
        done_us: float,
        cycles: int,
        warm: bool,
        drain_saved_us: float,
        member_indices: Sequence[int],
        member_arrivals: Sequence[float],
        member_deadlines: Sequence[float],
        member_idle_snaps: Sequence[float],
        idle_accum_us: float,
        crashed: bool = False,
    ) -> int:
        """Record the batch and fill every member's decomposition."""
        batch = BatchRecord(
            index=len(self.batches),
            size=size,
            array=array,
            dispatch_us=dispatch_us,
            done_us=done_us,
            cycles=cycles,
            request_indices=list(member_indices),
            warm=warm,
            drain_saved_us=drain_saved_us,
            tenant=tenant,
            crashed=crashed,
        )
        self.batches.append(batch)
        requests = self.requests
        for index, snap in zip(member_indices, member_idle_snaps):
            record = requests[index]
            record.dispatch_us = dispatch_us
            record.done_us = done_us
            record.batch_index = batch.index
            record.drain_saved_us = drain_saved_us
            # Clamp float-epsilon residue of the idle-time integral so
            # components stay non-negative and sum to the wait.
            wait = dispatch_us - record.arrival_us
            batching = idle_accum_us - snap
            record.batching_us = min(max(batching, 0.0), wait)
            record.queueing_us = wait - record.batching_us
        return batch.index


class StreamingSink:
    """O(1)-memory histograms (the streaming-percentile path)."""

    def __init__(
        self, bin_us: float = DEFAULT_LATENCY_BIN_US, pipeline: bool = False
    ) -> None:
        self.stats = StreamingStats(bin_us=bin_us, pipeline=pipeline)
        #: Kept empty — the streaming representation has no tables; the
        #: attributes exist so report assembly reads any sink uniformly.
        self.requests: list[RequestRecord] = []
        self.batches: list[BatchRecord] = []
        self._next_index = 0
        self._next_batch = 0

    def on_arrival(
        self, arrival_us: float, deadline_us: float = math.inf, tenant: str = ""
    ) -> int:
        """Count one offered request; returns its index."""
        index = self._next_index
        self._next_index += 1
        self.stats.offered += 1
        return index

    def on_shed(self, index: int) -> None:
        """Count one shed request."""
        self.stats.shed += 1

    def on_failed(self, index: int) -> None:
        """Count one terminally failed request."""
        self.stats.failed += 1

    def on_batch(
        self,
        *,
        tenant: str,
        array: int,
        size: int,
        dispatch_us: float,
        done_us: float,
        cycles: int,
        warm: bool,
        drain_saved_us: float,
        member_indices: Sequence[int],
        member_arrivals: Sequence[float],
        member_deadlines: Sequence[float],
        member_idle_snaps: Sequence[float],
        idle_accum_us: float,
        crashed: bool = False,
    ) -> int:
        """Fold the batch and each member's decomposition into histograms."""
        if crashed:
            # A crashed batch served nobody: its members either retry
            # (folded by their eventual completing batch) or terminally
            # fail (counted by ``on_failed``).
            index = self._next_batch
            self._next_batch += 1
            return index
        stats = self.stats
        compute = done_us - dispatch_us
        stats.add_batch(size, warm, drain_saved_us)
        inf = math.inf
        for arrival, deadline, snap in zip(
            member_arrivals, member_deadlines, member_idle_snaps
        ):
            wait = dispatch_us - arrival
            batching = idle_accum_us - snap
            if batching < 0.0:
                batching = 0.0
            elif batching > wait:
                batching = wait
            stats.add_request(
                done_us - arrival, wait - batching, batching, compute, drain_saved_us
            )
            if deadline != inf:
                stats.served_with_deadline += 1
                if done_us > deadline:
                    stats.deadline_misses += 1
        index = self._next_batch
        self._next_batch += 1
        return index
