"""Live serving runtime: real requests on the simulated accelerator.

The discrete-event :class:`~repro.serve.simulator.ServingSimulator` and
this runtime drive the SAME engine (:class:`RuntimeEngine` around
:class:`~repro.serve.core.ServingCore`) behind the SAME
:class:`~repro.serve.policies.ServerConfig`; the only differences are
who supplies the time (a :class:`~repro.serve.clock.Clock` — virtual vs
monotonic) and what a batch *is* (a priced duration vs a real numpy
batch executed on a :mod:`~repro.serve.workers` executor).  Both paths
end in the same :class:`~repro.serve.stats.ServingReport`, so comparing
a simulated run against a live one is a one-function crosscheck
(:mod:`repro.serve.compare`).

Three layers, each usable on its own:

* :class:`MeasuredBatchCost` — a serving cost model calibrated from the
  real executor (measured microseconds per batch size), so admission
  and dispatch policies predict with live numbers and a simulator run
  over recorded live arrivals predicts live latency.
* :class:`RuntimeEngine` — the time-source-agnostic serving state
  machine: offer / dispatch-ready / complete at caller-supplied
  instants, idle-integral bookkeeping, sink reporting, report assembly.
  :func:`run_virtual` drives it from a virtual clock over its tenants'
  traces; that loop is the simulator's recorded path
  (:meth:`ServingSimulator.run <repro.serve.simulator.ServingSimulator.run>`)
  and :func:`replay_virtual`, so a simulated run and the live runtime
  share every line of serving logic but the clock.
* :class:`ServingRuntime` — the asyncio front-end: in-process
  ``await submit(image)``, paced open-loop load
  (:meth:`ServingRuntime.run_load`), and a JSONL socket server
  (:meth:`ServingRuntime.serve_socket`) that pipelines each connection:
  it keeps reading while up to :data:`SOCKET_INFLIGHT_LIMIT` (64) of the
  connection's requests are in flight, and replies in completion order,
  so clients match replies to requests by ``id``.  Requests buffer into a
  power-of-two image ring so FIFO batches assemble as zero-copy
  contiguous views; formed batches execute on a thread pool sized like
  the simulated array pool, and completions re-enter the event loop via
  ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import math
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.compiler.zoo import zoo_names
from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.obs.tracer import combine_tracers
from repro.serve.batcher import QueuedRequest
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.core import (
    EVENT_ARRIVE,
    EVENT_CRASH,
    EVENT_DONE,
    EVENT_RECOVER,
    EVENT_REQUEUE,
    EVENT_TIMEOUT,
    PlacedBatch,
    ServingCore,
    group_requeues,
)
from repro.serve.dispatcher import ArrayPool
from repro.serve.faults import InjectedCrashError
from repro.serve.policies import CostBank, ServerConfig, TenantSpec
from repro.serve.sinks import CompletionSink, RecordingSink, StreamingSink
from repro.serve.stats import RequestRecord, ServingReport, percentile_summary
from repro.serve.trace import ArrivalTrace
from repro.serve.workers import CompiledStreamExecutor, WorkerCrashError


#: Requests one socket connection may have in flight; at the bound its
#: handler stops reading, so TCP pushes back on the client.
SOCKET_INFLIGHT_LIMIT = 64


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line of a JSONL stream, ``b""`` at its end.

    A line longer than the reader's limit is discarded through its newline
    (or the end of the stream) and read as ``None``.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed


class RequestShedError(RuntimeError):
    """The admission policy rejected a submitted request."""


class MeasuredBatchCost:
    """Serving cost model calibrated from measured batch latencies.

    The simulator's cost models price batches from the cycle-accurate
    schedule; a live host's batch latency also carries Python/numpy
    overheads the schedule cannot see.  This model interpolates
    *measured* microseconds over a set of ``(batch size, us)``
    calibration points (linear between points, extrapolated from the
    nearest segment), quantized to cycles at the accelerator clock so
    every policy that predicts compute — deadline admission, greedy
    dispatch — reasons with live numbers.

    Warm costs equal cold costs (a live host has no modelled drain
    overlap), so it composes with the non-pipelined policy surface.
    """

    pipeline = False
    accounting = "measured"

    def __init__(
        self,
        config: AcceleratorConfig,
        points: list[tuple[int, float]],
    ) -> None:
        if not points:
            raise ConfigError("a measured cost needs at least one point")
        self.config = config
        self.points = sorted((int(size), float(us)) for size, us in points)
        sizes = [size for size, _ in self.points]
        if len(set(sizes)) != len(sizes):
            raise ConfigError("duplicate batch size in calibration points")
        for _, us in self.points:
            if not (math.isfinite(us) and us > 0):
                raise ConfigError("measured latencies must be finite and positive")
        self._sizes = sizes
        self._memo: dict[int, int] = {}

    @classmethod
    def calibrate(
        cls,
        executor,
        images: np.ndarray,
        sizes=(1, 2, 4, 8, 16, 32, 64, 128),
        repeats: int = 3,
        config: AcceleratorConfig | None = None,
    ) -> "MeasuredBatchCost":
        """Time the executor at each batch size (best of ``repeats``)."""
        if config is None:
            config = AcceleratorConfig()
        points = []
        for size in sizes:
            if size > len(images):
                break
            batch = np.ascontiguousarray(images[:size])
            executor.execute(0, batch)  # warm caches / lazy allocations
            best = math.inf
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                executor.execute(0, batch)
                best = min(best, (time.perf_counter() - start) * 1e6)
            points.append((size, best))
        return cls(config, points)

    @classmethod
    def from_report(
        cls,
        report: ServingReport,
        config: AcceleratorConfig | None = None,
    ) -> "MeasuredBatchCost":
        """Fit in-situ batch costs from a live run's recorded batches.

        Isolated calibration underestimates a loaded host, so the
        sim-vs-live latency crosscheck prices batches at the mean
        *observed* duration per batch size — the simulator then predicts
        the live queueing dynamics, which is the thing under test.  A
        recorded duration runs from dispatch until the event loop frees
        the array, so it carries the loop's work on the host: completing
        the batch, and admitting whatever arrived meanwhile (admission
        shares the interpreter with the engine, so during an arrival
        burst the first batches run slower).  The mean keeps that work
        in the price — the simulated array does the same total work as
        the live one — where the median would price it away.
        """
        if config is None:
            config = AcceleratorConfig()
        by_size: dict[int, list[float]] = {}
        for batch in report.batches:
            by_size.setdefault(batch.size, []).append(batch.done_us - batch.dispatch_us)
        if not by_size:
            raise ConfigError("the report has no recorded batches to fit")
        points = [
            (size, float(np.mean(durations)))
            for size, durations in sorted(by_size.items())
        ]
        return cls(config, points)

    def predict_us(self, size: int) -> float:
        """Interpolated batch latency in microseconds."""
        points = self.points
        if len(points) == 1:
            anchor, us = points[0]
            return us * (size / anchor)
        if size <= points[0][0]:
            low, high = points[0], points[1]
        elif size >= points[-1][0]:
            low, high = points[-2], points[-1]
        else:
            at = bisect_right(self._sizes, size)
            low, high = points[at - 1], points[at]
        (s0, u0), (s1, u1) = low, high
        return u0 + (size - s0) / (s1 - s0) * (u1 - u0)

    def batch_cycles(self, size: int) -> int:
        """Predicted cycles for a cold batch of ``size``."""
        cycles = self._memo.get(size)
        if cycles is None:
            cycles = max(1, int(round(self.predict_us(size) * self.config.clock_mhz)))
            self._memo[size] = cycles
        return cycles

    def warm_batch_cycles(self, size: int, prev_size, prev_cost=None) -> int:
        """Warm equals cold: live batches have no modelled drain overlap."""
        return self.batch_cycles(size)

    def drain_saved_cycles(self, size: int, prev_size, prev_cost=None) -> int:
        """No drain model, so nothing is ever saved."""
        return 0


class RuntimeEngine:
    """Time-source-agnostic serving engine around a :class:`ServingCore`.

    Every method takes an explicit ``now_us``; the caller owns the clock
    — :func:`run_virtual` advances a virtual one over an event heap
    (the simulator's recorded path), :class:`ServingRuntime` passes
    monotonic wall time.  The engine owns what both need: the idle-time
    integral for the batching/queueing attribution, the per-request
    arrival snapshots, sink reporting, and report assembly.
    """

    def __init__(
        self,
        server: ServerConfig,
        tenants: list[TenantSpec] | None = None,
        sink: CompletionSink | None = None,
        tracer=None,
        bank: CostBank | None = None,
    ) -> None:
        specs = (
            list(tenants)
            if tenants is not None
            else [TenantSpec(name=server.network_name, trace=None)]
        )
        if not specs:
            raise ConfigError("the tenants list needs at least one tenant")
        self.server = server
        self.sink = sink if sink is not None else RecordingSink()
        self.core = ServingCore(server, specs, bank=bank, tracer=tracer)
        self.offered = 0
        self.makespan_us = 0.0
        self._idle_accum = 0.0
        self._last_time = 0.0
        self._snapshots: dict[int, float] = {}

    def tick(self, now_us: float) -> None:
        """Advance the any-array-idle integral to ``now_us``."""
        if now_us <= self._last_time:
            return
        if self.core.pool.has_idle():
            self._idle_accum += now_us - self._last_time
        self._last_time = now_us

    def offer(
        self,
        now_us: float,
        *,
        arrival_us: float | None = None,
        deadline_us: float | None = None,
        tenant: int = 0,
    ) -> tuple[int, bool]:
        """One request arrives: admission, snapshot, sink registration.

        Returns ``(global index, admitted)``.  ``deadline_us`` is an
        absolute instant; when omitted the tenant's relative SLA (if
        any) is stamped on.
        """
        self.tick(now_us)
        state = self.core.tenants[tenant]
        arrival = now_us if arrival_us is None else arrival_us
        if deadline_us is None:
            deadline = (
                arrival + state.deadline_us
                if state.deadline_us is not None
                else math.inf
            )
        else:
            deadline = deadline_us
        index = self.sink.on_arrival(arrival, deadline_us=deadline, tenant=state.name)
        self.offered += 1
        state.global_indices.append(index)
        request = QueuedRequest(index=index, arrival_us=arrival, deadline_us=deadline)
        if self.core.offer(state, request, now_us):
            self._snapshots[index] = self._idle_accum
            return index, True
        self.sink.on_shed(index)
        return index, False

    def shed_arrival(
        self,
        now_us: float,
        *,
        deadline_us: float | None = None,
        tenant: int = 0,
    ) -> int:
        """Count an arrival shed before admission (runtime backpressure)."""
        self.tick(now_us)
        state = self.core.tenants[tenant]
        deadline = deadline_us if deadline_us is not None else math.inf
        index = self.sink.on_arrival(now_us, deadline_us=deadline, tenant=state.name)
        self.offered += 1
        state.global_indices.append(index)
        self.sink.on_shed(index)
        tracer = self.core.tracer
        if tracer.enabled:
            # Backpressure sheds never reach the core's admission hook,
            # so the arrive + shed pair is emitted here to keep every
            # offered request's lifecycle in the event stream.
            tracer.request_arrived(now_us, index, state.name, deadline)
            tracer.request_shed(now_us, index, state.name)
        return index

    def dispatch_ready(
        self, now_us: float, force: bool = False
    ) -> list[PlacedBatch]:
        """Form and place every batch that can start at ``now_us``.

        While an array is idle and a tenant is ready, place a batch.  ``force`` flushes
        non-ready remainders (shutdown drain).  Each placed batch is
        stamped with the idle integral for the sink's wait attribution.
        """
        self.tick(now_us)
        placed_batches: list[PlacedBatch] = []
        pool = self.core.pool
        while pool.has_idle():
            placed = self.core.form_and_place(now_us, force=force)
            if placed is None:
                break
            placed.idle_accum_us = self._idle_accum
            placed_batches.append(placed)
        return placed_batches

    def complete(self, now_us: float, placed: PlacedBatch) -> None:
        """A placed batch finished at ``now_us``: free the array, report
        to the sink.

        :func:`run_virtual` completes at the predicted
        ``placed.done_us``; the live runtime at the wall instant its
        loop takes the batch back from the worker.
        """
        self.tick(now_us)
        self.core.release(placed.array, now_us)
        if placed.corrupt is not None:
            # Undetected corruption: the batch completes and its members
            # are served wrong answers — counted, then traced.
            self.core.served_corrupt(placed, now_us)
        tracer = self.core.tracer
        if tracer.enabled:
            tracer.batch_completed(now_us, placed)
        members = placed.members
        snapshots = self._snapshots
        self.sink.on_batch(
            tenant=placed.tenant.name,
            array=placed.array,
            size=placed.size,
            dispatch_us=placed.dispatch_us,
            done_us=now_us,
            cycles=placed.cycles,
            warm=placed.warm,
            drain_saved_us=placed.drain_saved_us,
            member_indices=[m.index for m in members],
            member_arrivals=[m.arrival_us for m in members],
            member_deadlines=[m.deadline_us for m in members],
            member_idle_snaps=[snapshots.pop(m.index) for m in members],
            idle_accum_us=placed.idle_accum_us,
        )
        if now_us > self.makespan_us:
            self.makespan_us = now_us

    def fail_batch(self, now_us: float, placed: PlacedBatch):
        """A placed batch crashed: contain it, report terminal failures.

        Delegates the failure-domain work (quarantine, retry split,
        fairness credit) to :meth:`ServingCore.fail_batch`, reports
        budget-exhausted members to the sink, and drops their idle
        snapshots — retried members keep theirs, so the batch that
        eventually completes them attributes their wait from the
        original arrival.  Returns ``(retries, failed, quarantined)``
        for the driver to schedule.
        """
        self.tick(now_us)
        retries, failed, quarantined = self.core.fail_batch(placed, now_us)
        members = placed.members
        snapshots = self._snapshots
        # Record the crashed batch itself (execute mode and the batch
        # table count it).  ``done_us`` is the completion it was predicted
        # to reach; retried members keep their snapshots so the batch
        # that eventually completes them attributes the full wait.
        self.sink.on_batch(
            tenant=placed.tenant.name,
            array=placed.array,
            size=placed.size,
            dispatch_us=placed.dispatch_us,
            done_us=placed.done_us,
            cycles=placed.cycles,
            warm=placed.warm,
            drain_saved_us=placed.drain_saved_us,
            member_indices=[m.index for m in members],
            member_arrivals=[m.arrival_us for m in members],
            member_deadlines=[m.deadline_us for m in members],
            member_idle_snaps=[snapshots[m.index] for m in members],
            idle_accum_us=placed.idle_accum_us,
            crashed=True,
        )
        for request in failed:
            snapshots.pop(request.index, None)
            self.sink.on_failed(request.index)
        if now_us > self.makespan_us:
            self.makespan_us = now_us
        return retries, failed, quarantined

    def requeue(self, now_us: float, tenant: int, requests) -> None:
        """Return retried requests to the front of their tenant queue."""
        self.tick(now_us)
        self.core.requeue(self.core.tenants[tenant], list(requests), now_us)

    def recover(self, now_us: float, array: int) -> None:
        """Readmit a quarantined array (the caller health-probed it)."""
        self.tick(now_us)
        self.core.recover(array, now_us)

    def pending_timeouts(self, now_us: float) -> list[float]:
        """Coalescing deadlines of queues that are waiting, not ready."""
        return self.core.pending_timeouts(now_us)

    def next_timeout(self, now_us: float) -> float | None:
        """Earliest coalescing deadline, or ``None``."""
        deadlines = self.core.pending_timeouts(now_us)
        return min(deadlines) if deadlines else None

    def queue_depth(self) -> int:
        """Requests queued across all tenants."""
        return self.core.queue_depth()

    def build_report(
        self,
        trace_name: str = "live",
        offered_rps: float = 0.0,
        wall_seconds: float = 0.0,
        predictions: np.ndarray | None = None,
    ) -> ServingReport:
        """The run so far as a :class:`ServingReport`.

        Multi-tenant runs recorded per request add each tenant's entry,
        computed here rather than per request.
        """
        core = self.core
        sink = self.sink
        streaming = sink.stats if isinstance(sink, StreamingSink) else None
        tenants = core.tenants
        return assemble_report(
            self.server,
            core.pool,
            self.makespan_us,
            trace_name=trace_name,
            offered_rps=offered_rps,
            wall_seconds=wall_seconds,
            requests=sink.requests,
            batches=sink.batches,
            predictions=predictions,
            tenants=(
                _tenant_summaries(tenants, sink.requests)
                if len(tenants) > 1 and streaming is None
                else None
            ),
            streaming=streaming,
            faults=(
                core.fault_stats.to_dict()
                if core.injector is not None or core.fault_stats.any
                else None
            ),
        )


def assemble_report(
    server: ServerConfig,
    pool: ArrayPool,
    makespan_us: float,
    *,
    trace_name: str,
    offered_rps: float,
    wall_seconds: float,
    requests: list[RequestRecord] | None = None,
    batches: list | None = None,
    predictions: np.ndarray | None = None,
    tenants: list[dict] | None = None,
    streaming=None,
    faults: dict | None = None,
) -> ServingReport:
    """The one :class:`ServingReport` assembler every driver ends in."""
    return ServingReport(
        network=server.network_name,
        trace_name=trace_name,
        offered_rps=offered_rps,
        policy=server.policy_json(),
        arrays=server.arrays,
        clock_mhz=server.cost.config.clock_mhz,
        accounting=getattr(server.cost, "accounting", "overlapped"),
        pipeline=server.pipeline,
        requests=requests if requests is not None else [],
        batches=batches if batches is not None else [],
        array_stats=[
            {
                "array": stat.array,
                "busy_us": stat.busy_us,
                "batches": stat.batches,
                "requests": stat.requests,
                "warm_batches": stat.warm_batches,
                "utilization": stat.utilization(makespan_us),
            }
            for stat in pool.stats
        ],
        makespan_us=makespan_us,
        wall_seconds=wall_seconds,
        predictions=predictions,
        tenants=tenants,
        streaming=streaming,
        faults=faults,
    )


def trace_label(tenants) -> tuple[str, float]:
    """``(trace name, offered req/s)`` of a run over the tenants' traces."""
    if len(tenants) == 1:
        return tenants[0].trace.name, tenants[0].trace.offered_rps
    return (
        "+".join(f"{t.name}:{t.trace.name}" for t in tenants),
        sum(t.trace.offered_rps for t in tenants),
    )


def _tenant_summaries(tenants, requests: list[RequestRecord]) -> list[dict]:
    """Per-tenant request/shed/failure/latency breakdown for the report.

    ``served``, ``served_share`` and ``latency_us`` count completed
    requests only: shed and terminally failed requests are neither.
    """
    total_served = sum(1 for record in requests if not (record.shed or record.failed))
    summaries = []
    for tenant in tenants:
        records = [requests[index] for index in tenant.global_indices]
        served = [record for record in records if not (record.shed or record.failed)]
        summaries.append(
            {
                "tenant": tenant.name,
                "weight": tenant.weight,
                "offered": len(records),
                "served": len(served),
                "shed": sum(1 for record in records if record.shed),
                "failed": sum(1 for record in records if record.failed),
                "served_share": (
                    len(served) / total_served if total_served else 0.0
                ),
                "deadline_misses": sum(
                    1 for record in records if record.missed_deadline
                ),
                "latency_us": percentile_summary(
                    np.array([record.latency_us for record in served])
                ),
            }
        )
    return summaries


def run_virtual(
    engine: RuntimeEngine,
    executor=None,
    images: np.ndarray | None = None,
) -> ServingReport:
    """Run ``engine`` over its tenants' traces in virtual time.

    Completions, arrivals, timeouts and the fault events share one heap;
    completions free arrays before arrivals at the same instant see the
    pool, and each batch completes (or crashes) at its predicted instant.
    Batches reach the sink as they complete, so ``report.batches`` is in
    completion order, as in the live runtime.

    With an ``executor``, every recorded batch then runs on its members'
    ``images``, in table order, crashed batches included, so a retried
    request ends with its completing batch's prediction; the report's
    ``wall_seconds`` covers that execution too.
    """
    wall_start = time.perf_counter()
    core = engine.core
    heappush = heapq.heappush
    events: list[tuple[float, int, int, tuple]] = []
    seq = 0
    for state in core.tenants:
        if state.trace is None:
            raise ConfigError(f"tenant {state.name!r} has no trace to replay")
        deadlines = state.trace.deadlines_us
        for local, arrival in enumerate(state.trace.times_us):
            # A finite recorded deadline wins; requests without their
            # own get the configured relative SLA (if any).
            if deadlines is not None and math.isfinite(deadlines[local]):
                deadline = float(deadlines[local])
            elif state.deadline_us is not None:
                deadline = float(arrival) + state.deadline_us
            else:
                deadline = math.inf
            events.append(
                (float(arrival), EVENT_ARRIVE, seq, (state.order, deadline))
            )
            seq += 1
    heapq.heapify(events)
    scheduled_timeouts: set[float] = set()
    running: dict[int, PlacedBatch] = {}
    next_batch = 0

    while events:
        # Every engine call below advances the idle integral first.
        now, kind, _, payload = heapq.heappop(events)
        if kind == EVENT_ARRIVE:
            order, deadline = payload
            engine.offer(now, arrival_us=now, deadline_us=deadline, tenant=order)
        elif kind == EVENT_DONE:
            placed = running.pop(payload)
            engine.complete(now, placed)
        elif kind == EVENT_CRASH:
            # The doomed batch surfaces as a crash at its detection
            # instant; the core contains the damage to this batch.
            placed = running.pop(payload)
            retries, failed, quarantined = engine.fail_batch(now, placed)
            order = placed.tenant.order
            for at_us, group in group_requeues(retries):
                heappush(events, (at_us, EVENT_REQUEUE, seq, (order, group)))
                seq += 1
            if quarantined:
                recover_at = now + core.retry.recovery_us
                heappush(events, (recover_at, EVENT_RECOVER, seq, placed.array))
                seq += 1
        elif kind == EVENT_REQUEUE:
            order, requests = payload
            engine.requeue(now, order, requests)
        elif kind == EVENT_RECOVER:
            engine.recover(now, payload)
        elif core.tracer.enabled:
            # EVENT_TIMEOUT carries no state (readiness re-evaluates
            # below); it only surfaces as an observability event.
            core.tracer.coalescing_timeout(now)

        for placed in engine.dispatch_ready(now):
            running[next_batch] = placed
            if placed.fault:
                detect = placed.dispatch_us + core.fault_plan.detect_delay_us(
                    placed.duration_us
                )
                heappush(events, (detect, EVENT_CRASH, seq, next_batch))
            elif core.detects_corruption(placed):
                # The checksum layer catches the corruption when the batch
                # finishes computing: the array was busy for the full
                # span, then the batch fails like a crash.
                heappush(events, (placed.done_us, EVENT_CRASH, seq, next_batch))
            else:
                heappush(events, (placed.done_us, EVENT_DONE, seq, next_batch))
            seq += 1
            next_batch += 1

        if core.pool.has_idle():
            for deadline in engine.pending_timeouts(now):
                if deadline not in scheduled_timeouts:
                    scheduled_timeouts.add(deadline)
                    heappush(events, (max(deadline, now), EVENT_TIMEOUT, seq, ()))
                    seq += 1

    predictions = None
    if executor is not None:
        predictions = np.full(engine.offered, -1, dtype=np.int64)
        for batch in engine.sink.batches:
            indices = batch.request_indices
            predictions[indices] = executor.execute(batch.array, images[indices])
    trace_name, offered_rps = trace_label(core.tenants)
    return engine.build_report(
        trace_name=trace_name,
        offered_rps=offered_rps,
        wall_seconds=time.perf_counter() - wall_start,
        predictions=predictions,
    )


def replay_virtual(
    server: ServerConfig,
    trace: ArrivalTrace | None = None,
    tenants: list[TenantSpec] | None = None,
    sink: CompletionSink | None = None,
    tracer=None,
) -> ServingReport:
    """Replay a trace through a fresh :class:`RuntimeEngine` in virtual
    time (:func:`run_virtual`): the simulator's recorded run, on the code
    path the live runtime uses."""
    if tenants is None:
        if trace is None:
            raise ConfigError("a trace (or a tenants list) is required")
        tenants = [TenantSpec(name=server.network_name, trace=trace)]
    elif trace is not None:
        raise ConfigError("pass either a trace or a tenants list, not both")
    return run_virtual(RuntimeEngine(server, tenants, sink=sink, tracer=tracer))


class ServingRuntime:
    """Asyncio wall-clock serving front-end over the runtime engine.

    One event-loop thread runs admission/batching/dispatch (cheap, pure
    Python); formed batches execute on a thread pool with one slot per
    simulated array.  Completions land back in the loop via
    ``call_soon_threadsafe``, trigger the next dispatch round, and — for
    requests submitted through :meth:`submit` — resolve their futures.

    ``max_pending`` bounds queued + in-flight requests: :meth:`submit`
    applies backpressure (awaits capacity), the open-loop
    :meth:`run_load` counts overflow arrivals as shed.  Request images
    live in a power-of-two ring indexed by request id, so a FIFO batch
    is a zero-copy contiguous view whenever its members are consecutive
    slots.  Without an ``executor`` the runtime serves the zoo network
    named by ``server.network_name`` through a
    :class:`~repro.serve.workers.CompiledStreamExecutor`; any other name
    raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        server: ServerConfig,
        executor=None,
        sink: CompletionSink | None = None,
        clock: Clock | None = None,
        max_pending: int = 2048,
        tenants: list[TenantSpec] | None = None,
        tracer=None,
        metrics=None,
        metrics_interval_s: float = 1.0,
    ) -> None:
        if executor is None:
            if server.network_name not in zoo_names():
                raise ConfigError(
                    f"no executor given and network_name {server.network_name!r}"
                    f" is not a zoo network; set network_name to one of"
                    f" {', '.join(zoo_names())} or pass an executor"
                )
            executor = CompiledStreamExecutor(server.network_name)
        if max_pending < 1:
            raise ConfigError("max_pending must be positive")
        if metrics_interval_s <= 0.0:
            raise ConfigError("metrics_interval_s must be positive")
        self.server = server
        self.executor = executor
        # The metrics adapter is itself a tracer, so one combined hook
        # target feeds both the recorder and the live counters from the
        # core's single instrumentation point.
        self.metrics = metrics
        self.engine = RuntimeEngine(
            server, tenants, sink=sink, tracer=combine_tracers(tracer, metrics)
        )
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self._metrics_interval_s = metrics_interval_s
        self._metrics_timer: asyncio.TimerHandle | None = None
        self._metrics_epoch_us: float | None = None
        self.max_pending = max_pending
        size = executor.image_size
        capacity = 1
        floor = 2 * (max_pending + server.arrays * server.batching.max_batch)
        while capacity < floor:
            capacity *= 2
        self._ring = np.zeros((capacity, size, size), dtype=np.float64)
        self._mask = capacity - 1
        self._threads = ThreadPoolExecutor(
            max_workers=server.arrays, thread_name_prefix="serve-array"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._futures: dict[int, asyncio.Future] = {}
        self._pending = 0
        self._inflight_batches = 0
        #: Requests from crashed batches waiting out their retry backoff
        #: (not queued, not in flight) — the drain conditions count them
        #: so shutdown never strands a pending retry.
        self._pending_retries = 0
        #: Fatal, runtime-wide failure — set only when recovery is
        #: impossible (an array's worker could not be respawned).
        #: Per-batch crashes never poison the runtime; they fail or
        #: retry only their own batch's requests.
        self._failure: BaseException | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._timer_deadline = math.inf
        self._drain_event: asyncio.Event | None = None
        #: Open socket connections: handler task -> its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closed = False

    # ---- lifecycle ---------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            if self.metrics is not None:
                # Periodic snapshot task: sampled gauges (queue depth,
                # in-flight batches, per-array utilization) refresh every
                # metrics_interval_s for scrapers; counters and latency
                # windows update on events regardless.
                self._metrics_epoch_us = self.clock.now_us()
                self._metrics_timer = loop.call_later(
                    self._metrics_interval_s, self._sample_metrics
                )
        elif self._loop is not loop:
            raise ConfigError("ServingRuntime is bound to one event loop")
        return loop

    def _sample_metrics(self) -> None:
        self._metrics_timer = None
        if self._closed or self.metrics is None:
            return
        self._sample_metrics_now()
        self._metrics_timer = self._loop.call_later(
            self._metrics_interval_s, self._sample_metrics
        )

    async def stop(self) -> None:
        """Flush queued remainders, wait for in-flight work, shut down.

        The shutdown drain dispatches non-ready remainders with
        ``force=True`` — a coalescing batch waiting out its timer is
        flushed immediately instead of being dropped.  Socket connections
        still open afterwards are closed once their replies are flushed,
        and their handlers end before this returns, so none is cancelled
        mid-read when the loop closes.
        """
        if self._closed:
            return
        self._ensure_loop()
        while self._failure is None and (
            self.engine.queue_depth()
            or self._inflight_batches
            or self._pending_retries
        ):
            now = self.clock.now_us()
            for placed in self.engine.dispatch_ready(now, force=True):
                self._launch(placed)
            if (
                self.engine.queue_depth() == 0
                and self._inflight_batches == 0
                and self._pending_retries == 0
            ):
                break
            await self._wait_for_completion()
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._metrics_timer is not None:
            self._metrics_timer.cancel()
            self._metrics_timer = None
        if self.metrics is not None and self._metrics_epoch_us is not None:
            # One last gauge refresh so a post-run scrape sees final state.
            self._sample_metrics_now()
        self._threads.shutdown(wait=True)
        self.executor.close()
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(list(self._connections))

    def _sample_metrics_now(self) -> None:
        engine = self.engine
        self.metrics.sample(
            queue_depth=engine.queue_depth(),
            inflight=self._inflight_batches,
            busy_us={stat.array: stat.busy_us for stat in engine.core.pool.stats},
            elapsed_us=self.clock.now_us() - self._metrics_epoch_us,
        )

    async def _wait_for_completion(self, timeout: float = 0.05) -> None:
        event = asyncio.Event()
        self._drain_event = event
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._drain_event = None

    async def drain(self) -> None:
        """Wait until every queued/in-flight request has completed.

        Coalescing remainders are allowed to wait out their timers (use
        :meth:`stop` to force-flush).  Raises the stored failure if an
        executor crashed.
        """
        self._ensure_loop()
        while True:
            if self._failure is not None:
                raise self._failure
            self._kick(self.clock.now_us())
            if (
                self.engine.queue_depth() == 0
                and self._inflight_batches == 0
                and self._pending_retries == 0
            ):
                return
            await self._wait_for_completion()

    # ---- request entry points ----------------------------------------------

    def _check_images(self, images: np.ndarray) -> None:
        """Reject malformed request images before anything is admitted.

        Each image must be ``(image_size, image_size)``, real-valued and
        finite; a :class:`ValueError` otherwise.
        """
        size = self.executor.image_size
        if images.shape[1:] != (size, size):
            raise ValueError(f"image shape {images.shape[1:]} != ({size}, {size})")
        if images.dtype.kind not in "iuf":
            raise ValueError(f"image dtype {images.dtype} is not real-valued")
        if not np.isfinite(images).all():
            raise ValueError("image has non-finite values")

    @staticmethod
    def _check_deadline(deadline_us) -> None:
        """Reject a non-finite request deadline (JSON ``NaN``/``Infinity``
        parse to floats) before anything is admitted; a
        :class:`ValueError`, as for a malformed image."""
        # An int is finite, and one past float range would overflow isfinite.
        if deadline_us is None or isinstance(deadline_us, int):
            return
        if not math.isfinite(deadline_us):
            raise ValueError(f"deadline_us {deadline_us!r} is not finite")

    async def submit(
        self,
        image: np.ndarray,
        deadline_us: float | None = None,
        tenant: int = 0,
    ) -> int:
        """Serve one request; returns its prediction.

        Applies backpressure at ``max_pending`` (awaits capacity), and
        raises :class:`RequestShedError` if the admission policy sheds
        the request, or :class:`~repro.serve.workers.WorkerCrashError`
        if its batch's executor died.
        """
        loop = self._ensure_loop()
        while self._pending >= self.max_pending:
            if self._failure is not None:
                raise self._failure
            await self._wait_for_completion(timeout=0.01)
        if self._failure is not None:
            raise self._failure
        if self._closed:
            raise ConfigError("runtime is stopped")
        self._check_images(np.asarray(image)[np.newaxis])
        self._check_deadline(deadline_us)
        now = self.clock.now_us()
        index, admitted = self.engine.offer(
            now, deadline_us=deadline_us, tenant=tenant
        )
        if not admitted:
            raise RequestShedError(f"request {index} shed by admission")
        self._pending += 1
        self._ring[index & self._mask] = image
        future: asyncio.Future = loop.create_future()
        self._futures[index] = future
        self._kick(now)
        return await future

    async def run_load(
        self,
        trace: ArrivalTrace,
        images: np.ndarray | None = None,
        tenant: int = 0,
    ) -> float:
        """Offer a trace's arrivals open-loop at real pace.

        Arrival ``i`` is submitted once ``trace.times_us[i]`` elapses
        (relative to the call instant); its admission timestamp is the
        actual wall instant, so the recorded report reflects genuinely
        offered load.  Overflow past ``max_pending`` counts as shed
        rather than pausing the trace (open-loop semantics).  Returns
        the trace origin in clock microseconds.
        """
        self._ensure_loop()
        times = trace.times_us
        deadlines = trace.deadlines_us
        total = len(times)
        if images is not None:
            if len(images) < total:
                raise ValueError(f"{len(images)} images for {total} arrivals")
            self._check_images(np.asarray(images[:total]))
        t0 = self.clock.now_us()
        at = 0
        while at < total:
            if self._failure is not None:
                raise self._failure
            now = self.clock.now_us()
            rel = now - t0
            submitted = False
            while at < total and times[at] <= rel:
                deadline = None
                if deadlines is not None and math.isfinite(deadlines[at]):
                    deadline = t0 + float(deadlines[at])
                if self._pending >= self.max_pending:
                    self.engine.shed_arrival(now, deadline_us=deadline, tenant=tenant)
                else:
                    index, admitted = self.engine.offer(
                        now, deadline_us=deadline, tenant=tenant
                    )
                    if admitted:
                        self._pending += 1
                        if images is not None:
                            self._ring[index & self._mask] = images[at]
                at += 1
                submitted = True
            if submitted:
                self._kick(now)
            if at < total:
                gap_us = times[at] - (self.clock.now_us() - t0)
                if gap_us > 1500.0:
                    await asyncio.sleep((gap_us - 500.0) / 1e6)
                else:
                    # Sub-millisecond gaps: yield, don't oversleep.
                    await asyncio.sleep(0)
        return t0

    async def serve_socket(self, host: str = "127.0.0.1", port: int = 0):
        """JSONL socket server: one request object per line.

        ``{"id": ..., "image": [[...]]}`` replies
        ``{"id": ..., "prediction": N}``; a shed request replies
        ``{"id": ..., "error": "shed"}``, one whose batch failed for good
        (or that reached a stopped runtime) ``{"id": ..., "error":
        "failed: <reason>"}``, and a malformed one ``{"id": ..., "error":
        "bad request: ..."}`` (``id`` is null when the line is not a JSON
        object).  A line longer than the stream reader's limit is
        discarded through its newline and replied ``{"id": null, "error":
        "bad request: line too long"}``; the connection stays open.
        Malformed requests are rejected before admission, so the report
        never counts them.

        Each connection is pipelined: the handler reads the next line
        while earlier requests are still in flight, up to
        :data:`SOCKET_INFLIGHT_LIMIT` per connection, then stops reading
        (TCP pushes back on the client) until a reply frees a slot.
        Replies go out in completion order, not request order; clients
        match them by ``id``.  At end of stream or a read error the
        handler waits for the connection's outstanding requests before
        it closes the connection.  Returns the :class:`asyncio.Server`
        (the caller owns its lifetime; the bound port is
        ``server.sockets[0].getsockname()[1]``).
        """
        self._ensure_loop()

        async def respond(writer, slots, request_id, image, deadline) -> None:
            try:
                prediction = await self.submit(image, deadline_us=deadline)
                reply = {"id": request_id, "prediction": prediction}
            except RequestShedError:
                reply = {"id": request_id, "error": "shed"}
            except (WorkerCrashError, ConfigError) as error:
                reply = {"id": request_id, "error": f"failed: {error}"}
            finally:
                slots.release()
            if not writer.is_closing():
                writer.write((json.dumps(reply) + "\n").encode())

        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            slots = asyncio.Semaphore(SOCKET_INFLIGHT_LIMIT)
            inflight: set[asyncio.Task] = set()
            connection = asyncio.current_task()
            self._connections[connection] = writer
            try:
                while True:
                    line = await _read_line(reader)
                    if line == b"":
                        break
                    request_id = None
                    try:
                        if line is None:
                            raise ValueError("line too long")
                        payload = json.loads(line)
                        if not isinstance(payload, dict):
                            raise TypeError("request is not a JSON object")
                        request_id = payload.get("id")
                        deadline = payload.get("deadline_us")
                        if deadline is not None and (
                            isinstance(deadline, bool)
                            or not isinstance(deadline, (int, float))
                        ):
                            raise TypeError(f"deadline_us {deadline!r} is not a number")
                        self._check_deadline(deadline)
                        image = np.asarray(payload["image"])
                        self._check_images(image[np.newaxis])
                    except (KeyError, ValueError, TypeError) as error:
                        reply = {"id": request_id, "error": f"bad request: {error}"}
                        writer.write((json.dumps(reply) + "\n").encode())
                    else:
                        await slots.acquire()
                        task = asyncio.create_task(
                            respond(writer, slots, request_id, image, deadline)
                        )
                        inflight.add(task)
                        task.add_done_callback(inflight.discard)
                    # The read loop is the connection's only drainer, so a
                    # client that stops reading its replies stops the reads.
                    await writer.drain()
            except ConnectionError:
                pass  # the peer is gone; outstanding requests still finish
            finally:
                if inflight:
                    await asyncio.wait(inflight)
                writer.close()
                del self._connections[connection]

        return await asyncio.start_server(handle, host, port)

    # ---- dispatch machinery ------------------------------------------------

    def _kick(self, now_us: float) -> None:
        """Dispatch every ready batch and re-arm the coalescing timer."""
        if self._failure is not None or self._closed:
            return
        for placed in self.engine.dispatch_ready(now_us):
            self._launch(placed)
        self._arm_timer(now_us)

    def _launch(self, placed: PlacedBatch) -> None:
        self._inflight_batches += 1
        images = self._gather(placed)
        self._threads.submit(self._run_batch, placed, images)

    def _gather(self, placed: PlacedBatch) -> np.ndarray:
        """The batch's images: a zero-copy ring view when contiguous."""
        indices = [member.index for member in placed.members]
        mask = self._mask
        base = indices[0] & mask
        size = len(indices)
        if base + size <= self._ring.shape[0] and all(
            (index & mask) == base + offset
            for offset, index in enumerate(indices)
        ):
            return self._ring[base : base + size]
        return self._ring[[index & mask for index in indices]]

    def _run_batch(self, placed: PlacedBatch, images: np.ndarray) -> None:
        # Worker thread: the only things touched are the executor and the
        # loop hand-off; all serving state mutates on the event loop.
        try:
            if placed.fault:
                # The injector doomed this batch at placement (the same
                # decision the simulator makes); a hang plan sleeps out
                # the watchdog window before the crash surfaces.
                hang_us = self.engine.core.fault_plan.hang_us
                if hang_us > 0.0:
                    time.sleep(hang_us / 1e6)
                raise InjectedCrashError(
                    f"injected crash on array {placed.array}"
                )
            if placed.corrupt is not None:
                predictions = self._execute_corrupt(placed, images)
            else:
                predictions = self.executor.execute(placed.array, images)
        except BaseException as error:  # noqa: BLE001 - must never hang the loop
            self._loop.call_soon_threadsafe(self._batch_failed, placed, error)
            return
        self._loop.call_soon_threadsafe(self._batch_done, placed, predictions)

    def _execute_corrupt(
        self, placed: PlacedBatch, images: np.ndarray
    ) -> np.ndarray:
        """Run a corruption-doomed batch through the executor.

        Executors exposing ``execute_corrupt`` (the compiled stream
        path) run the *real* corrupted numerics — the seeded bit flips of
        ``placed.corrupt`` — and raise
        :class:`~repro.serve.integrity.DetectedCorruptionError` when the
        armed ABFT checksums catch them, which by construction happens
        exactly when the core's bookkeeping predicts detection.
        Model-level executors without the hook fall back to the
        bookkeeping verdict directly so the drivers still agree.
        """
        from repro.serve.integrity import DetectedCorruptionError

        core = self.engine.core
        execute_corrupt = getattr(self.executor, "execute_corrupt", None)
        if execute_corrupt is not None:
            return execute_corrupt(
                placed.array, images, placed.corrupt, core.integrity.checks
            )
        if core.detects_corruption(placed):
            raise DetectedCorruptionError(
                f"corruption detected on array {placed.array}"
                f" (target {placed.corrupt.target})"
            )
        return self.executor.execute(placed.array, images)

    def _batch_done(self, placed: PlacedBatch, predictions: np.ndarray) -> None:
        # A batch completes when the loop frees its array and resolves its
        # requests, as in the virtual replay: the hand-off from the worker
        # thread is part of what the array and the requests wait for.
        self._inflight_batches -= 1
        now = self.clock.now_us()
        self.engine.complete(now, placed)
        for member, prediction in zip(placed.members, predictions):
            self._pending -= 1
            future = self._futures.pop(member.index, None)
            if future is not None and not future.done():
                future.set_result(int(prediction))
        if not self._closed:
            self._kick(now)
        if self._drain_event is not None:
            self._drain_event.set()

    def _batch_failed(self, placed: PlacedBatch, error: BaseException) -> None:
        """One batch crashed: fail or retry *its* requests, nothing else.

        The failure domain is the crashed batch — waiters on other
        arrays, queued requests, and future submissions are untouched.
        The crashed batch's array quarantines (recovery timer respawns
        and health-probes its worker before readmission), members with
        attempt budget left requeue after their backoff, and only
        budget-exhausted members see the error.
        """
        self._inflight_batches -= 1
        if isinstance(error, WorkerCrashError):
            failure = error
        else:
            failure = WorkerCrashError(
                f"batch execution failed on array {placed.array}: {error!r}"
            )
            failure.__cause__ = error
        now = self.clock.now_us()
        retries, failed, quarantined = self.engine.fail_batch(now, placed)
        for request in failed:
            self._pending -= 1
            future = self._futures.pop(request.index, None)
            if future is not None and not future.done():
                future.set_exception(failure)
        # Retried members stay pending (they still hold ring slots and
        # futures); each group rejoins its queue when its backoff ends.
        for at_us, group in group_requeues(retries):
            self._pending_retries += len(group)
            self._loop.call_later(
                max(at_us - now, 0.0) / 1e6,
                self._requeue,
                placed.tenant.order,
                group,
            )
        if quarantined:
            self._loop.call_later(
                self.engine.core.retry.recovery_us / 1e6,
                self._recover,
                placed.array,
            )
        if not self._closed:
            self._kick(now)
        if self._drain_event is not None:
            self._drain_event.set()

    def _requeue(self, tenant_order: int, requests) -> None:
        """Backoff expired: return a crashed batch's retries to the queue."""
        self._pending_retries -= len(requests)
        if self._failure is not None:
            return
        now = self.clock.now_us()
        self.engine.requeue(now, tenant_order, requests)
        if not self._closed:
            self._kick(now)
        if self._drain_event is not None:
            self._drain_event.set()

    def _recover(self, array: int) -> None:
        """Recovery timer: respawn/health-probe the worker, readmit."""
        if self._closed or self._failure is not None:
            return
        respawn = getattr(self.executor, "respawn", None)
        if respawn is not None:
            try:
                respawn(array)
            except BaseException as error:  # noqa: BLE001 - surface as fatal
                failure = WorkerCrashError(
                    f"array {array} failed to respawn: {error!r}"
                )
                failure.__cause__ = error
                self._fail_all(failure)
                return
        now = self.clock.now_us()
        self.engine.recover(now, array)
        if not self._closed:
            self._kick(now)
        if self._drain_event is not None:
            self._drain_event.set()

    def _fail_all(self, failure: BaseException) -> None:
        """Unrecoverable: poison the runtime and fail every waiter."""
        self._failure = failure
        for future in self._futures.values():
            if not future.done():
                future.set_exception(failure)
        self._futures.clear()
        if self._drain_event is not None:
            self._drain_event.set()

    def _arm_timer(self, now_us: float) -> None:
        """Schedule a wake-up at the earliest coalescing deadline."""
        if not self.engine.core.pool.has_idle():
            return
        earliest = self.engine.next_timeout(now_us)
        if earliest is None:
            return
        if self._timer is not None:
            if self._timer_deadline <= earliest:
                return
            self._timer.cancel()
        self._timer_deadline = earliest
        delay_s = max(earliest - now_us, 0.0) / 1e6
        self._timer = self._loop.call_later(delay_s, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._timer_deadline = math.inf
        now = self.clock.now_us()
        tracer = self.engine.core.tracer
        if tracer.enabled:
            tracer.coalescing_timeout(now)
        self._kick(now)

    # ---- reporting ---------------------------------------------------------

    def report(
        self,
        trace_name: str = "live",
        offered_rps: float = 0.0,
        wall_seconds: float = 0.0,
    ) -> ServingReport:
        """The run so far as a simulator-compatible report."""
        return self.engine.build_report(
            trace_name=trace_name,
            offered_rps=offered_rps,
            wall_seconds=wall_seconds,
        )
