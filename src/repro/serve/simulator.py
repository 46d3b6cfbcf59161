"""Discrete-event serving simulator: traces -> policies -> arrays -> report.

:class:`ServingSimulator` advances a virtual clock (microseconds) over
three event kinds — request arrival, batch-completion, coalescing-timeout
— and drives only the three policy protocols of
:mod:`repro.serve.policies`:

1. arriving requests pass the tenant's **admission policy** (shed or
   queue) and enter that tenant's FIFO :class:`~repro.serve.batcher.RequestQueue`;
2. whenever an array is idle and a tenant's **batching policy** reports
   its queue *ready*, a batch is taken; among simultaneously-ready
   tenants the one with the smallest ``served/weight`` goes first
   (weighted-fair, so no tenant starves under saturation);
3. the **dispatch policy** picks which idle array the batch claims —
   least-recently-released by default, round-robin, warm-preferring, or
   greedy-fastest over heterogeneous pools where each array carries its
   own :class:`~repro.hw.config.AcceleratorConfig` and per-configuration
   memoized cost model;
4. the batch occupies the array for exactly the cycles the cost model
   charges — with :class:`~repro.serve.costs.ScheduledBatchCost`,
   bit-identical to the compiled program run standalone — and its
   completion frees the array.

A :class:`~repro.serve.policies.ServerConfig` (``server=``) carries the
cost model and every policy; ``tenants=[TenantSpec(...), ...]`` replaces
the single trace for multi-tenant simulation (several networks' request
streams sharing one pool through per-tenant queues).

Waiting time is attributed to *batching* (an array was idle; the policy
chose to coalesce) vs *queueing* (all arrays busy) by integrating the
any-array-idle indicator, so the decomposition sums exactly to the wait.

In ``execute`` mode every recorded batch also runs through the compiled
network's instruction stream (one
:class:`~repro.serve.workers.CompiledStreamExecutor`) on its requests'
actual images once the run is over, producing bit-exact predictions; the
cycles it is charged are the cost model's, exactly as without
``execute``.

With ``ServerConfig.pipeline`` set (and a cost model built with
``pipeline=True``) a batch dispatched to an array at the exact instant
the previous batch finished is *warm* — charged the steady-state
marginal cycles keyed by the ``(previous batch size, batch size)`` pair
instead of the cold figure — and every warm batch records the drain it
saved.  On a shared multi-tenant pool the predecessor batch may belong
to a different network; the pool remembers which cost model priced it,
and the warm cost is probed from the actual *(previous network,
network)* hand-off instead of assuming the receiving tenant's own pair
cost.

Two execution paths produce the report:

* ``record_requests=True`` (default) — the full per-request /
  per-batch tables.  This path has no event loop of its own: it is
  :func:`~repro.serve.runtime.run_virtual`, the live runtime's
  :class:`~repro.serve.runtime.RuntimeEngine` driven over a virtual
  clock, so ``report.batches`` lists batches in completion order.
* ``record_requests=False`` — the **streaming fast path**: the same
  policy decisions (identical offered/completed/shed counts and batch
  formation), but every served request folds into O(1)-memory
  :class:`~repro.serve.stats.StreamingStats` histograms instead of a
  record table.  Arrivals are consumed from the sorted trace arrays
  instead of being heaped, runs of arrivals while every array is busy
  are drained in bulk (single-tenant admit-all), and the classic
  :class:`~repro.serve.batcher.BatchPolicy` is inlined — an order of
  magnitude faster on long traces, which is what makes trace-at-scale
  replay and serving design-space sweeps tractable.
"""

from __future__ import annotations

import bisect
import copy
import heapq
import math
import time

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.obs.tracer import NULL_TRACER
from repro.serve.batcher import BatchPolicy, QueuedRequest
from repro.serve.core import (
    EVENT_ARRIVE,
    EVENT_DONE,
    EVENT_TIMEOUT,
    DurationProbe,
    TenantState,
)
from repro.serve.dispatcher import ArrayPool, DispatchContext, LeastRecentDispatch
from repro.serve.policies import AdmitAll, CostBank, ServerConfig, TenantSpec
from repro.serve.runtime import RuntimeEngine, assemble_report, run_virtual, trace_label
from repro.serve.sinks import StreamingSink
from repro.serve.stats import (
    DEFAULT_LATENCY_BIN_US,
    ServingReport,
    StreamingStats,
    tenant_summary_from_streaming,
)
from repro.serve.trace import ArrivalTrace
from repro.serve.workers import CompiledStreamExecutor

# Event kinds, in tie-break order: completions free arrays before arrivals
# at the same instant see the pool; timeouts run last (shared with
# repro.serve.runtime.run_virtual via repro.serve.core).
_DONE, _ARRIVE, _TIMEOUT = EVENT_DONE, EVENT_ARRIVE, EVENT_TIMEOUT


class ServingSimulator:
    """Simulates serving request traces on a pool of CapsAcc arrays.

    Parameters
    ----------
    trace:
        Arrival times of every request (single-tenant form; pass
        ``tenants`` instead for multi-tenant runs).
    server:
        The :class:`~repro.serve.policies.ServerConfig`: cost model,
        admission / batching / dispatch policies, array pool (count or
        heterogeneous configs), pipelining, SLA, faults and integrity.
        ``pipeline`` charges back-to-back batches the stream-pipelined
        warm cost and needs a cost model built with ``pipeline=True``.
    images:
        Optional ``(count, H, W)`` request images, aligned with the trace.
        Required by ``execute`` mode (single-tenant only).
    execute:
        Run every dispatched batch through the cost model's compiled
        network on its real images (bit-exact predictions; slower).  The
        cost model must carry a compiled program.
    tenants:
        :class:`~repro.serve.policies.TenantSpec` list for multi-tenant
        simulation.  Mutually exclusive with ``trace``.
    tracer:
        Observability tracer (:mod:`repro.obs`) for recorded runs.
    """

    def __init__(
        self,
        trace: ArrivalTrace | None = None,
        *,
        server: ServerConfig,
        images: np.ndarray | None = None,
        execute: bool = False,
        tenants: list[TenantSpec] | None = None,
        tracer=None,
    ) -> None:
        self.server = server
        if tenants is None:
            if trace is None:
                raise ConfigError("a trace (or a tenants list) is required")
            tenants = [TenantSpec(name=server.network_name, trace=trace)]
        elif trace is not None:
            raise ConfigError("pass either a trace or a tenants list, not both")
        elif not tenants:
            raise ConfigError("the tenants list needs at least one tenant")
        self.tenant_specs = list(tenants)
        self.multi_tenant = len(self.tenant_specs) > 1
        self.images = None if images is None else np.asarray(images)
        self.execute = execute

        all_costs = [server.cost] + [
            spec.cost for spec in self.tenant_specs if spec.cost is not None
        ]
        if execute:
            if self.multi_tenant:
                raise ConfigError("execute mode is single-tenant only")
            if server.array_configs is not None:
                raise ConfigError("execute mode needs a homogeneous array pool")
            if getattr(server.cost, "compiled", None) is None:
                raise ConfigError(
                    "execute mode needs a cost model priced from a compiled"
                    " program (ScheduledBatchCost)"
                )
            if self.images is None:
                raise ConfigError("execute mode needs per-request images")
        if server.pipeline:
            for model in all_costs:
                if not getattr(model, "pipeline", False):
                    raise ConfigError(
                        "pipeline mode needs a cost model built with pipeline=True"
                    )
        requests = self.tenant_specs[0].trace.count
        if self.images is not None and len(self.images) != requests:
            raise ShapeError(f"{len(self.images)} images for {requests} requests")
        #: Runs execute mode's batches (built once, outside the timed runs).
        self._executor = (
            CompiledStreamExecutor(server.cost.compiled) if execute else None
        )
        # Per-configuration cost models persist across run() calls (pure
        # memoization; probe results additionally persist process-wide in
        # the costs module's probe cache).
        self._bank = CostBank()
        #: Observability tracer threaded into the core on recorded runs
        #: (:mod:`repro.obs`); the null default costs nothing.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(
        self,
        record_requests: bool = True,
        latency_bin_us: float = DEFAULT_LATENCY_BIN_US,
    ) -> ServingReport:
        """Run every tenant's trace to completion and return the report.

        ``record_requests=False`` selects the streaming fast path: the
        same policy decisions and exact counts, but per-request latency
        folds into fixed-resolution histograms (``latency_bin_us`` wide)
        instead of a record table — O(1) memory and roughly an order of
        magnitude faster on long traces.  Percentiles are then reported
        at histogram resolution; ``execute`` mode (which must return
        per-request predictions) requires the recording path.

        Tracing (:mod:`repro.obs`) requires the recording path: the
        streaming loop inlines the policies and bypasses the
        instrumented core entirely — that bypass is what makes it fast —
        so an active tracer on a streaming run raises
        :class:`~repro.errors.ConfigError` rather than silently
        recording nothing.
        """
        if record_requests:
            engine = RuntimeEngine(
                self.server, self.tenant_specs, tracer=self.tracer, bank=self._bank
            )
            return run_virtual(engine, self._executor, self.images)
        if self.execute:
            raise ConfigError("execute mode needs record_requests=True")
        self._check_tracer_path()
        self._check_fault_path()
        return self._run_streaming(latency_bin_us)

    def _check_tracer_path(self) -> None:
        """Reject the tracer + streaming-fast-path combination."""
        if self.tracer.enabled:
            raise ConfigError(
                "tracing requires the recording path: drop --fast /"
                " record_requests=False when a tracer is attached"
            )

    def _check_fault_path(self) -> None:
        """Reject the fault-plan + streaming-fast-path combination.

        The streaming loop inlines the policies and bypasses the
        instrumented core entirely — the fault injector, retry requeues,
        and quarantine bookkeeping all live in that core — so a fault
        plan on a streaming run raises rather than silently not
        injecting anything.
        """
        plan = self.server.fault_plan
        if plan is not None and not plan.empty:
            raise ConfigError(
                "fault injection requires the recording path: drop"
                " --fast / record_requests=False when a fault plan is set"
            )
        integrity = getattr(self.server, "integrity", None)
        if integrity is not None and integrity.enabled:
            raise ConfigError(
                "integrity checking requires the recording path: drop"
                " --fast / record_requests=False when an integrity mode is"
                " armed"
            )

    def _run_streaming(self, latency_bin_us: float) -> ServingReport:
        """The O(1)-memory fast path (``record_requests=False``).

        Drives the same policy protocols as the recorded path — the
        event order, admission/batching/dispatch decisions, and counts
        are identical — but folds every served request into streaming
        histograms.  Three structural optimizations carry the speedup:
        arrivals are consumed from the sorted trace arrays instead of
        being heaped (the heap holds only completions and timeouts),
        runs of arrivals while every array is busy are drained in bulk
        (single-tenant admit-all — no per-arrival work exists then), and
        the classic :class:`~repro.serve.batcher.BatchPolicy` readiness
        / take rule is inlined, so the hot loop allocates no per-request
        policy objects.
        """
        wall_start = time.perf_counter()
        server = self.server
        pool = ArrayPool(server.arrays, configs=server.array_configs)
        dispatch = copy.deepcopy(server.dispatch)
        bank = self._bank
        tenants = [
            TenantState(spec, order, server)
            for order, spec in enumerate(self.tenant_specs)
        ]
        multi = self.multi_tenant
        only = tenants[0]
        pipeline_mode = server.pipeline

        # Merged arrival stream, ordered like the recorded path's heap:
        # by time, ties in tenant-then-local order (stable sort over the
        # tenant-ordered concatenation).
        times_parts, tenant_parts, deadline_parts = [], [], []
        for tenant in tenants:
            times = tenant.trace.times_us
            recorded = tenant.trace.deadlines_us
            own = (
                np.where(np.isfinite(recorded), recorded, np.inf)
                if recorded is not None
                else np.full(times.shape, np.inf)
            )
            if tenant.deadline_us is not None:
                own = np.where(np.isfinite(own), own, times + tenant.deadline_us)
            times_parts.append(times)
            tenant_parts.append(np.full(times.shape, tenant.order, dtype=np.int64))
            deadline_parts.append(own)
        merged_times = np.concatenate(times_parts)
        order = np.argsort(merged_times, kind="stable")
        merged_deadlines = np.concatenate(deadline_parts)[order]
        has_deadlines = bool(np.isfinite(merged_deadlines).any())
        times_list = merged_times[order].tolist()
        deadlines_list = merged_deadlines.tolist()
        tenant_list = np.concatenate(tenant_parts)[order].tolist() if multi else None
        total = len(times_list)

        sink = StreamingSink(bin_us=latency_bin_us, pipeline=pipeline_mode)
        stats = sink.stats
        tenant_streams = (
            [StreamingStats(bin_us=stats.bin_us, pipeline=pipeline_mode) for _ in tenants]
            if multi
            else None
        )
        # Single-tenant hot path: per-member inputs (arrival time, idle
        # snapshot) buffer into flat lists alongside one per-batch meta
        # tuple, and the whole latency decomposition — wait, batching vs
        # queueing split, compute — is computed *vectorized* at flush
        # time with the exact arithmetic of the recorded path.
        hist_total = stats.components["total"]
        hist_queueing = stats.components["queueing"]
        hist_batching = stats.components["batching"]
        hist_compute = stats.components["compute"]
        hist_drain = stats.components.get("drain_saved")
        arr_buf: list[float] = []
        snap_buf: list[float] = []
        meta_buf: list[tuple[float, float, float, float, int]] = []

        def flush_buffers() -> None:
            if not meta_buf:
                return
            arrivals = np.asarray(arr_buf)
            snaps = np.asarray(snap_buf)
            meta = np.asarray(meta_buf)
            counts = meta[:, 4].astype(np.int64)
            nows = np.repeat(meta[:, 0], counts)
            dones = np.repeat(meta[:, 1], counts)
            idles = np.repeat(meta[:, 2], counts)
            wait = nows - arrivals
            batching = idles - snaps
            np.clip(batching, 0.0, wait, out=batching)
            # copy=False: every array below is a temporary this flush owns.
            hist_total.add_array(dones - arrivals, copy=False)
            hist_queueing.add_array(wait - batching, copy=False)
            hist_batching.add_array(batching, copy=False)
            hist_compute.add_array(dones - nows, copy=False)
            if hist_drain is not None:
                hist_drain.add_array(np.repeat(meta[:, 3], counts), copy=False)
            arr_buf.clear()
            snap_buf.clear()
            meta_buf.clear()

        # Inline fast path: the exact classic triple components the loop
        # can replicate without protocol calls.  ``type is`` (not
        # isinstance) so subclasses keep the generic protocol path.  The
        # inline queue is three parallel lists behind a head cursor, so
        # bulk arrival drains and batch takes are C-speed list slices.
        inline = (
            not multi
            and type(only.admission) is AdmitAll
            and type(only.batching) is BatchPolicy
        )
        q_arr: list[float] = []
        q_dl: list[float] = []
        q_snap: list[float] = []
        q_head = 0
        if inline:
            max_batch = only.batching.max_batch
            max_wait = only.batching.max_wait_us
        fast_dispatch = type(dispatch) is LeastRecentDispatch
        # Backlog-aware dispatch (considers_busy) may place a batch on a
        # busy array; the batch *stacks* behind the in-flight work and the
        # array only rejoins the idle set when its last batch completes.
        considers_busy = bool(getattr(dispatch, "considers_busy", False))
        inflight = [0] * pool.count if considers_busy else None
        snapshots: dict[int, float] = {}
        probe = DurationProbe(bank, pool, pipeline_mode, inflight=inflight)
        # Hot-loop aliases: the pool's bookkeeping is inlined per batch
        # (claim/charge/release are three attribute updates each), and on
        # a homogeneous non-pipelined pool the per-size duration is a
        # one-entry dict hit instead of two cost-model calls.
        pool_stats = pool.stats
        last_release = pool._last_release_us
        last_batch_size = pool._last_batch_size
        last_cost = pool._last_cost
        busy_until = pool._busy_until_us
        homogeneous = pool.configs is None
        duration_cache: dict = {}  # size (single-tenant) or (order, size)
        batch_sizes_hist = stats.batch_sizes

        events: list[tuple[float, int, int, int]] = []  # completions + timeouts
        seq = 0
        scheduled_timeouts: set[float] = set()
        idle_set = pool._idle  # stable set object, mutated in place
        idle_accum = 0.0
        last_time = 0.0
        makespan = 0.0
        inf = math.inf
        ai = 0
        next_arrival = times_list[0] if total else inf
        # Hot-loop locals: scalar counters fold back into the stats
        # objects after the loop; per-array accumulators replace the
        # ArrayStats attribute updates; bound builtins skip the global
        # lookups the loop would otherwise repeat ~10^5 times.
        heappush = heapq.heappush
        heappop = heapq.heappop
        bisect_left = bisect.bisect_left
        bisect_right = bisect.bisect_right
        offered = 0
        n_batches = 0
        n_warm = 0
        drain_total = 0.0
        with_deadline = 0
        misses = 0
        busy_acc = [0.0] * pool.count
        batches_acc = [0] * pool.count
        requests_acc = [0] * pool.count
        warm_acc = [0] * pool.count

        while ai < total or events:
            # ---- next event: merged completion/timeout heap vs arrivals --
            if events:
                top = events[0]
                top_time = top[0]
                take_arrival = (
                    next_arrival < top_time
                    or (next_arrival == top_time and top[1] == _TIMEOUT)
                )
            else:
                top_time = inf
                take_arrival = True
            if take_arrival:
                if inline and not idle_set:
                    # Bulk drain: while every array is busy, an admitted
                    # arrival only appends to the queue — no integral
                    # movement, no dispatch, no timeout scheduling — so
                    # the whole run up to the next completion/timeout
                    # collapses into one extend.
                    if events and top[1] == _TIMEOUT:
                        cut = bisect_right(times_list, top_time, ai)
                    else:
                        cut = bisect_left(times_list, top_time, ai)
                    if cut > ai:
                        count = cut - ai
                        q_arr.extend(times_list[ai:cut])
                        if has_deadlines:
                            q_dl.extend(deadlines_list[ai:cut])
                        q_snap.extend([idle_accum] * count)
                        offered += count
                        last_time = times_list[cut - 1]
                        ai = cut
                        next_arrival = times_list[ai] if ai < total else inf
                        continue
                now = next_arrival
                kind = _ARRIVE
                index = ai
                ai += 1
                next_arrival = times_list[ai] if ai < total else inf
            else:
                now, kind, _, payload = heappop(events)

            if idle_set:
                idle_accum += now - last_time
            last_time = now

            if kind == _ARRIVE:
                if inline:
                    q_arr.append(now)
                    if has_deadlines:
                        q_dl.append(deadlines_list[index])
                    q_snap.append(idle_accum)
                    offered += 1
                else:
                    tenant = tenants[tenant_list[index]] if multi else only
                    tstats = tenant_streams[tenant.order] if multi else None
                    offered += 1
                    if tstats is not None:
                        tstats.offered += 1
                    deadline = deadlines_list[index]
                    request = QueuedRequest(
                        index=index, arrival_us=now, deadline_us=deadline
                    )
                    if type(tenant.admission) is AdmitAll or tenant.admission.admit(
                        request, now, tenant.queue, pool
                    ):
                        tenant.queue.append(request)
                        snapshots[index] = idle_accum
                    else:
                        stats.shed += 1
                        if tstats is not None:
                            tstats.shed += 1
            elif kind == _DONE:
                if considers_busy and inflight[payload] > 1:
                    inflight[payload] -= 1
                else:
                    if considers_busy:
                        inflight[payload] = 0
                    idle_set.add(payload)
                    last_release[payload] = now
                if now > makespan:
                    makespan = now
            else:  # _TIMEOUT: readiness re-evaluated below; prune the set
                if len(scheduled_timeouts) > 4096:
                    scheduled_timeouts = {
                        d for d in scheduled_timeouts if d > now
                    }

            # ---- dispatch loop -----------------------------------------
            while idle_set:
                if inline:
                    qlen = len(q_arr) - q_head
                    if not qlen or (
                        qlen < max_batch and now < q_arr[q_head] + max_wait
                    ):
                        break
                    size = qlen if qlen < max_batch else max_batch
                    q_next = q_head + size
                    member_arrivals = q_arr[q_head:q_next]
                    member_deadlines = (
                        q_dl[q_head:q_next] if has_deadlines else None
                    )
                    member_snaps = q_snap[q_head:q_next]
                    q_head = q_next
                    # Amortized-O(1) compaction: only drop the consumed
                    # prefix once it is at least half the list, so a deep
                    # backlog never pays repeated long-tail copies.
                    if q_head >= 16384 and 2 * q_head >= len(q_arr):
                        del q_arr[:q_head]
                        del q_snap[:q_head]
                        if has_deadlines:
                            del q_dl[:q_head]
                        q_head = 0
                    tenant = only
                    tstats = None
                else:
                    ready = [
                        tenant
                        for tenant in tenants
                        if len(tenant.queue)
                        and tenant.batching.ready(tenant.queue, now)
                    ]
                    if not ready:
                        break
                    tenant = (
                        min(ready, key=lambda t: (t.served / t.weight, t.order))
                        if multi
                        else ready[0]
                    )
                    tstats = tenant_streams[tenant.order] if multi else None
                    taken = tenant.batching.take(tenant.queue, now)
                    size = len(taken)
                    member_arrivals = [m.arrival_us for m in taken]
                    member_deadlines = [m.deadline_us for m in taken]
                    member_snaps = [snapshots.pop(m.index) for m in taken]
                stacked = False
                start = now
                if fast_dispatch:
                    if pipeline_mode:
                        warm_ids = [
                            i for i in idle_set if last_release[i] == now
                        ]
                        array = min(warm_ids or idle_set, key=pool.lru_key)
                    elif len(idle_set) == 1:
                        array = next(iter(idle_set))
                    else:
                        array = min(idle_set, key=pool.lru_key)
                    idle_set.remove(array)
                else:
                    probe.rebind(tenant.cost, size, now)
                    array = dispatch.select(
                        DispatchContext(
                            pool=pool,
                            now_us=now,
                            batch_size=size,
                            pipeline=pipeline_mode,
                            duration_us=probe,
                            queue_delay_us=(
                                probe.queue_delay if considers_busy else None
                            ),
                        )
                    )
                    if considers_busy:
                        if array in idle_set:
                            idle_set.remove(array)
                        else:
                            # Stacked behind the array's in-flight batch:
                            # starts at its predecessor's completion.
                            stacked = True
                            start = busy_until[array]
                        inflight[array] += 1
                    else:
                        idle_set.remove(array)
                drain_saved = 0.0
                if not pipeline_mode and homogeneous:
                    model = tenant.cost
                    warm = False
                    key = size if not multi else (tenant.order, size)
                    cached = duration_cache.get(key)
                    if cached is None:
                        cached = model.config.cycles_to_us(model.batch_cycles(size))
                        duration_cache[key] = cached
                    duration = cached
                else:
                    warm = pipeline_mode and (stacked or last_release[array] == now)
                    prev_size = last_batch_size[array]
                    prev_cost = last_cost[array]
                    model = bank.resolve(tenant.cost, pool.config_for(array))
                    if warm:
                        cycles = model.warm_batch_cycles(
                            size, prev_size, prev_cost=prev_cost
                        )
                        drain_saved = model.config.cycles_to_us(
                            model.drain_saved_cycles(
                                size, prev_size, prev_cost=prev_cost
                            )
                        )
                    else:
                        cycles = model.batch_cycles(size)
                    duration = model.config.cycles_to_us(cycles)
                done = start + duration
                # Inlined pool.charge (folded into pool.stats after the loop)
                busy_acc[array] += duration
                batches_acc[array] += 1
                requests_acc[array] += size
                if warm:
                    warm_acc[array] += 1
                last_batch_size[array] = size
                last_cost[array] = model
                busy_until[array] = done
                if tstats is None:
                    # Inlined stats.add_batch (folded back after the loop)
                    n_batches += 1
                    batch_sizes_hist[size] = batch_sizes_hist.get(size, 0) + 1
                    if warm:
                        n_warm += 1
                        drain_total += drain_saved
                    arr_buf.extend(member_arrivals)
                    snap_buf.extend(member_snaps)
                    meta_buf.append((start, done, idle_accum, drain_saved, size))
                    if member_deadlines is not None:
                        for deadline in member_deadlines:
                            if deadline != inf:
                                with_deadline += 1
                                if done > deadline:
                                    misses += 1
                    if len(arr_buf) >= 32768:
                        flush_buffers()
                else:
                    compute = done - start  # the recorded done-dispatch float
                    stats.add_batch(size, warm, drain_saved)
                    tstats.add_batch(size, warm, drain_saved)
                    for arrival, deadline, snapshot in zip(
                        member_arrivals, member_deadlines, member_snaps
                    ):
                        wait = start - arrival
                        batching = idle_accum - snapshot
                        if batching < 0.0:
                            batching = 0.0
                        elif batching > wait:
                            batching = wait
                        latency = done - arrival
                        stats.add_request(
                            latency, wait - batching, batching, compute, drain_saved
                        )
                        tstats.add_request(
                            latency, wait - batching, batching, compute, drain_saved
                        )
                        if deadline != inf:
                            stats.served_with_deadline += 1
                            missed = done > deadline
                            if missed:
                                stats.deadline_misses += 1
                            tstats.served_with_deadline += 1
                            if missed:
                                tstats.deadline_misses += 1
                tenant.served += size
                heappush(events, (done, _DONE, seq, array))
                seq += 1

            # ---- coalescing timeouts -----------------------------------
            if idle_set:
                if inline:
                    if len(q_arr) > q_head:  # non-empty and not ready
                        deadline = q_arr[q_head] + max_wait
                        if deadline not in scheduled_timeouts:
                            scheduled_timeouts.add(deadline)
                            heappush(
                                events,
                                (
                                    deadline if deadline > now else now,
                                    _TIMEOUT,
                                    seq,
                                    0,
                                ),
                            )
                            seq += 1
                else:
                    for tenant in tenants:
                        if len(tenant.queue) and not tenant.batching.ready(
                            tenant.queue, now
                        ):
                            deadline = tenant.batching.next_deadline_us(
                                tenant.queue, now
                            )
                            if (
                                deadline is not None
                                and deadline not in scheduled_timeouts
                            ):
                                scheduled_timeouts.add(deadline)
                                heappush(
                                    events,
                                    (max(deadline, now), _TIMEOUT, seq, 0),
                                )
                                seq += 1

        # Fold the hot-loop locals back into the aggregates.
        stats.offered += offered
        stats.batches += n_batches
        stats.warm_batches += n_warm
        stats.drain_saved_us += drain_total
        stats.served_with_deadline += with_deadline
        stats.deadline_misses += misses
        for array, stat in enumerate(pool_stats):
            stat.busy_us += busy_acc[array]
            stat.batches += batches_acc[array]
            stat.requests += requests_acc[array]
            stat.warm_batches += warm_acc[array]
        flush_buffers()
        tenant_entries = None
        if multi:
            total_served = stats.completed
            tenant_entries = [
                tenant_summary_from_streaming(
                    tenant.name, tenant.weight, tstream, total_served
                )
                for tenant, tstream in zip(tenants, tenant_streams)
            ]
        trace_name, offered_rps = trace_label(tenants)
        return assemble_report(
            server,
            pool,
            makespan,
            trace_name=trace_name,
            offered_rps=offered_rps,
            wall_seconds=time.perf_counter() - wall_start,
            tenants=tenant_entries,
            streaming=stats,
        )

