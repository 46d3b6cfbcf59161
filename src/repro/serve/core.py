"""Time-source-agnostic serving core: queues, policies, placement.

:class:`ServingCore` is the policy engine every serving driver runs,
through :class:`~repro.serve.runtime.RuntimeEngine`:

* :func:`~repro.serve.runtime.run_virtual` (the recorded path of the
  discrete-event :class:`~repro.serve.simulator.ServingSimulator`)
  advances a virtual clock over an event heap and asks the core to form
  and place batches at each event instant;
* the live :class:`~repro.serve.runtime.ServingRuntime` asks the same
  questions at wall-clock instants, with real request payloads behind
  the queues.

The core never reads a clock — every entry point takes an explicit
``now_us`` — and never records results: outcomes flow through a
:class:`~repro.serve.sinks.CompletionSink` owned by the driver.  That
split is what makes "simulator vs runtime" two clocks on one engine
rather than two engines.  (The simulator's streaming fast path inlines
the classic policies instead and shares only :class:`TenantState` and
:class:`DurationProbe`.)

The placement step (:meth:`ServingCore.form_and_place`) reproduces the
historical recorded-path arithmetic operation for operation, so the
extraction is a pure refactor of the simulated path: weighted-fair
tenant selection, the dispatch-policy protocol, warm/pipelined cost
probing, and the drain-saved accounting are unchanged.

Dispatch policies that declare ``considers_busy = True`` (the
backlog-aware greedy) may place a batch on a *busy* array: the batch
**stacks** behind the array's in-flight work, starting at the array's
current ``busy_until`` instant.  The core tracks per-array in-flight
counts so an array only returns to the idle set when its last stacked
batch completes.
"""

from __future__ import annotations

import copy

from dataclasses import replace

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.batcher import QueuedRequest, RequestQueue
from repro.serve.dispatcher import ArrayPool, DispatchContext
from repro.serve.faults import FaultInjector, FaultStats, RetryPolicy
from repro.serve.integrity import CanaryStream, IntegrityPolicy
from repro.serve.policies import CostBank, ServerConfig, TenantSpec

# Event kinds shared by the discrete-event loops (run_virtual and the
# simulator's streaming path), in tie-break order: completions free
# arrays before arrivals at the same instant see the pool; timeouts run
# last.
# The fault kinds sort after the classic three, so a fault-free run's
# event ordering is bit-identical to the pre-fault engine.
EVENT_DONE, EVENT_ARRIVE, EVENT_TIMEOUT = 0, 1, 2
EVENT_CRASH, EVENT_REQUEUE, EVENT_RECOVER = 3, 4, 5


def group_requeues(
    retries: list[tuple["QueuedRequest", float]],
) -> list[tuple[float, tuple["QueuedRequest", ...]]]:
    """Coalesce ``(request, requeue_at_us)`` pairs into per-instant groups.

    :meth:`ServingCore.fail_batch` returns the pairs in member order;
    members sharing a requeue instant go back together (one heap event
    in the discrete drivers, one timer in the live runtime).  Only
    *consecutive* equal instants merge, so member order is preserved.
    """
    groups: list[tuple[float, tuple[QueuedRequest, ...]]] = []
    group: list[QueuedRequest] = []
    group_at = 0.0
    for request, at_us in retries:
        if group and at_us != group_at:
            groups.append((group_at, tuple(group)))
            group = []
        group_at = at_us
        group.append(request)
    if group:
        groups.append((group_at, tuple(group)))
    return groups


class DurationProbe:
    """Reusable warm-aware duration predictor for dispatch policies.

    One instance per run, re-pointed per batch — the dispatch context's
    ``duration_us`` callable without a per-batch closure allocation.
    When the core tracks in-flight counts (backlog-aware dispatch), a
    busy array in pipelined mode prices the batch warm: a stacked batch
    starts the instant the predecessor finishes, so it never drains.
    """

    __slots__ = ("bank", "pool", "pipeline", "cost", "size", "now_us", "inflight")

    def __init__(
        self,
        bank: CostBank,
        pool: ArrayPool,
        pipeline: bool,
        inflight: list[int] | None = None,
    ) -> None:
        self.bank = bank
        self.pool = pool
        self.pipeline = pipeline
        self.inflight = inflight
        self.cost = None
        self.size = 0
        self.now_us = 0.0

    def rebind(self, cost, size: int, now_us: float) -> None:
        """Point the probe at the batch about to be placed."""
        self.cost = cost
        self.size = size
        self.now_us = now_us

    def __call__(self, array: int) -> float:
        """Predicted occupancy of the bound batch on ``array`` (us)."""
        pool = self.pool
        model = self.bank.resolve(self.cost, pool.config_for(array))
        warm = False
        if self.pipeline:
            if pool.is_warm(array, self.now_us):
                warm = True
            elif self.inflight is not None and self.inflight[array]:
                warm = True
        if warm:
            cycles = model.warm_batch_cycles(
                self.size,
                pool.last_batch_size(array),
                prev_cost=pool.last_cost(array),
            )
        else:
            cycles = model.batch_cycles(self.size)
        return model.config.cycles_to_us(cycles)

    def queue_delay(self, array: int) -> float:
        """How long a batch placed on ``array`` now would wait to start."""
        delay = self.pool._busy_until_us[array] - self.now_us
        return delay if delay > 0.0 else 0.0


class TenantState:
    """Resolved per-tenant serving state (queue, policies, cost)."""

    def __init__(self, spec: TenantSpec, order: int, server: ServerConfig) -> None:
        self.spec = spec
        self.order = order
        self.name = spec.name
        self.trace = spec.trace
        self.weight = spec.weight
        self.cost = spec.cost if spec.cost is not None else server.cost
        self.deadline_us = (
            spec.deadline_us if spec.deadline_us is not None else server.deadline_us
        )
        # Policy instances may be shared — across tenants reusing one
        # spec object, or via the server-level defaults — so deep-copy
        # them before binding: each tenant gets its own compute predictor
        # and mutable state (a shallow copy of ChainedAdmission would
        # still share the chained policy objects).
        self.admission = copy.deepcopy(
            spec.admission if spec.admission is not None else server.admission
        )
        self.batching = copy.deepcopy(
            spec.batching if spec.batching is not None else server.batching
        )
        for policy in (self.admission, self.batching):
            if hasattr(policy, "bind"):
                policy.bind(self.cost)
        if hasattr(self.admission, "bind_batching"):
            self.admission.bind_batching(self.batching)
        self.queue = RequestQueue()
        self.served = 0
        self.global_indices: list[int] = []


class PlacedBatch:
    """One batch the core formed and placed on an array.

    ``dispatch_us`` is when the batch starts *executing* — the placement
    instant for an idle array, the predecessor's completion for a batch
    stacked on a busy one — and ``done_us`` is the predicted completion
    (``dispatch_us`` plus the charged duration).  A live driver replaces
    the prediction with the measured completion when it reports the
    batch to its sink.
    """

    __slots__ = (
        "tenant",
        "members",
        "size",
        "array",
        "dispatch_us",
        "done_us",
        "cycles",
        "duration_us",
        "warm",
        "drain_saved_us",
        "stacked",
        "idle_accum_us",
        "trace_id",
        "fault",
        "corrupt",
        "correlated",
    )

    def __init__(
        self,
        *,
        tenant: TenantState,
        members: list[QueuedRequest],
        size: int,
        array: int,
        dispatch_us: float,
        done_us: float,
        cycles: int,
        duration_us: float,
        warm: bool,
        drain_saved_us: float,
        stacked: bool,
    ) -> None:
        self.tenant = tenant
        self.members = members
        self.size = size
        self.array = array
        self.dispatch_us = dispatch_us
        self.done_us = done_us
        self.cycles = cycles
        self.duration_us = duration_us
        self.warm = warm
        self.drain_saved_us = drain_saved_us
        self.stacked = stacked
        #: Idle-time integral at the placement instant; stamped by
        #: drivers that defer sink reporting to completion time.
        self.idle_accum_us = 0.0
        #: Batch id assigned by a recording tracer (-1 when untraced).
        self.trace_id = -1
        #: True when the fault injector doomed this batch at placement
        #: time; the driver surfaces the crash (event-heap entry in the
        #: simulator, a raised error in the live executor path).
        self.fault = False
        #: :class:`~repro.serve.faults.CorruptionSpec` when the injector
        #: silently corrupted this batch (None otherwise).  Whether the
        #: corruption is caught is the integrity policy's call.
        self.corrupt = None
        #: True when ``fault`` came from a correlated failure-group
        #: window rather than an independent crash.
        self.correlated = False


class ServingCore:
    """The policy engine: tenants, pool, dispatch, cost accounting."""

    def __init__(
        self,
        server: ServerConfig,
        tenant_specs: list[TenantSpec],
        bank: CostBank | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.server = server
        # Purely observational: the tracer sees every lifecycle event at
        # this choke point but is never consulted for a decision, so a
        # traced run makes bit-identical policy decisions to an untraced
        # one (the decision-identity invariant the obs tests gate on).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pipeline = server.pipeline
        self.pool = ArrayPool(server.arrays, configs=server.array_configs)
        # Fresh dispatch state per core (e.g. the round-robin pointer),
        # so repeated runs of one configuration stay reproducible.
        self.dispatch = copy.deepcopy(server.dispatch)
        self.bank = bank if bank is not None else CostBank()
        self.tenants = [
            TenantState(spec, order, server)
            for order, spec in enumerate(tenant_specs)
        ]
        self.considers_busy = bool(getattr(self.dispatch, "considers_busy", False))
        self.inflight = [0] * self.pool.count
        self.probe = DurationProbe(
            self.bank,
            self.pool,
            self.pipeline,
            inflight=self.inflight if self.considers_busy else None,
        )
        # Fault layer: a fresh injector per core (seeded from the plan)
        # keeps repeated runs of one configuration reproducible, and the
        # ``None`` injector keeps the no-fault hot path to one branch.
        plan = server.fault_plan
        self.fault_plan = plan
        self.injector = (
            FaultInjector(plan) if plan is not None and not plan.empty else None
        )
        self.retry = server.retry if server.retry is not None else RetryPolicy()
        self.fault_stats = FaultStats()
        self._quarantine_started: dict[int, float] = {}
        # Integrity layer: the check policy decides whether a corrupted
        # batch is caught (and so fails like a crash) or served wrong.
        integrity = getattr(server, "integrity", None)
        self.integrity = (
            integrity if integrity is not None else IntegrityPolicy()
        )
        self._canary = (
            CanaryStream(plan, self.integrity, self.pool.count)
            if self.injector is not None and self.integrity.canary
            else None
        )
        # Degraded-mode admission watches the live fault counters; bind
        # after the stats object exists so every tenant's policy chain
        # sees the same accounting the core maintains.
        for tenant in self.tenants:
            if hasattr(tenant.admission, "bind_faults"):
                tenant.admission.bind_faults(self.fault_stats)

    def offer(self, tenant: TenantState, request: QueuedRequest, now_us: float) -> bool:
        """Run admission for one arrival; queue it if admitted."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.request_arrived(
                now_us, request.index, tenant.name, request.deadline_us
            )
        if tenant.admission.admit(request, now_us, tenant.queue, self.pool):
            tenant.queue.append(request)
            if tracer.enabled:
                tracer.request_admitted(now_us, request.index, tenant.name)
            return True
        if tracer.enabled:
            tracer.request_shed(now_us, request.index, tenant.name)
        return False

    def form_and_place(
        self, now_us: float, force: bool = False
    ) -> PlacedBatch | None:
        """Form the next ready batch and place it on an array.

        Returns ``None`` when no tenant is ready.  Among ready tenants
        the weighted-fair winner (smallest ``served/weight``) forms a
        batch, the dispatch policy picks the array, and the batch is
        charged its warm-aware cost.  ``force`` treats any
        non-empty queue as ready — the live runtime's shutdown drain,
        which must flush coalescing remainders without waiting out
        their timeout.
        """
        tenants = self.tenants
        if force:
            ready = [tenant for tenant in tenants if len(tenant.queue)]
        else:
            ready = [
                tenant
                for tenant in tenants
                if tenant.batching.ready(tenant.queue, now_us)
            ]
        if not ready:
            return None
        tenant = min(ready, key=lambda t: (t.served / t.weight, t.order))
        members = tenant.batching.take(tenant.queue, now_us)
        size = len(members)
        pool = self.pool
        probe = self.probe
        probe.rebind(tenant.cost, size, now_us)
        array = self.dispatch.select(
            DispatchContext(
                pool=pool,
                now_us=now_us,
                batch_size=size,
                pipeline=self.pipeline,
                duration_us=probe,
                queue_delay_us=probe.queue_delay if self.considers_busy else None,
            )
        )
        stacked = self.considers_busy and array not in pool._idle
        if stacked:
            # The batch queues behind the array's in-flight work and
            # starts the instant the predecessor completes — in
            # pipelined mode that hand-off is warm by construction.
            start = pool._busy_until_us[array]
            warm = self.pipeline
        else:
            pool.claim(array)
            start = now_us
            warm = self.pipeline and pool.is_warm(array, now_us)
        self.inflight[array] += 1
        prev_size = pool.last_batch_size(array)
        prev_cost = pool.last_cost(array)
        model = self.bank.resolve(tenant.cost, pool.config_for(array))
        if warm:
            cycles = model.warm_batch_cycles(size, prev_size, prev_cost=prev_cost)
        else:
            cycles = model.batch_cycles(size)
        duration = model.config.cycles_to_us(cycles)
        pool.charge(array, size, duration, warm=warm, now_us=start, cost=model)
        drain_saved = (
            model.config.cycles_to_us(
                model.drain_saved_cycles(size, prev_size, prev_cost=prev_cost)
            )
            if warm
            else 0.0
        )
        tenant.served += size
        placed = PlacedBatch(
            tenant=tenant,
            members=members,
            size=size,
            array=array,
            dispatch_us=start,
            done_us=start + duration,
            cycles=cycles,
            duration_us=duration,
            warm=warm,
            drain_saved_us=drain_saved,
            stacked=stacked,
        )
        if self.injector is not None:
            placed.fault, placed.corrupt, placed.correlated = (
                self.injector.decide(array, start, members)
            )
            if placed.corrupt is not None:
                self.fault_stats.corruptions += 1
            if self._canary is not None:
                self._canary.on_placement(
                    array, now_us, self.fault_stats, self.tracer
                )
        if self.tracer.enabled:
            self.tracer.batch_placed(now_us, placed)
        return placed

    def detects_corruption(self, placed: PlacedBatch) -> bool:
        """Whether the armed integrity checks catch this batch's fault.

        Deterministic given the plan and the policy, so every driver —
        the simulator's bookkeeping and the live executor's *actual*
        ABFT verification (exact int64 column sums) — reaches the same
        verdict, which is what the sim-vs-live detection-counter
        identity gate rides on.
        """
        return placed.corrupt is not None and self.integrity.detects(
            placed.corrupt.target
        )

    def release(self, array: int, now_us: float) -> bool:
        """One batch on ``array`` completed; returns whether it idled.

        With stacked batches the array only rejoins the idle set when
        its last in-flight batch finishes.
        """
        count = self.inflight[array]
        if count > 1:
            self.inflight[array] = count - 1
            return False
        self.inflight[array] = 0
        self.pool.release(array, now_us)
        return True

    def fail_batch(
        self, placed: PlacedBatch, now_us: float
    ) -> tuple[list[tuple[QueuedRequest, float]], list[QueuedRequest], bool]:
        """A placed batch crashed at ``now_us``; contain the damage.

        Returns ``(retries, failed, quarantined)``:

        * ``retries`` — ``(request, requeue_at_us)`` pairs, in member
          order, for requests with attempt budget left (the request
          carries the bumped attempt count; the driver schedules
          :meth:`requeue` at each instant);
        * ``failed`` — requests whose budget is spent; the driver
          reports them terminally failed to its sink;
        * ``quarantined`` — whether the array left service (the driver
          schedules :meth:`recover`).  An array with other batches
          still stacked behind the crash is *not* quarantined — its
          surviving work drains first.

        The failure domain is exactly this batch: no other array, queue,
        or in-flight batch is touched.
        """
        tenant = placed.tenant
        array = placed.array
        count = self.inflight[array]
        quarantined = count <= 1
        self.inflight[array] = 0 if quarantined else count - 1
        if quarantined:
            self.pool.quarantine(array)
            self._quarantine_started[array] = now_us
            self.fault_stats.quarantines += 1
        # The members were counted served at placement; hand the credit
        # back so weighted-fair selection is not skewed by crashes (a
        # retried member re-earns it when its retry batch places).
        tenant.served -= placed.size
        retry = self.retry
        retries: list[tuple[QueuedRequest, float]] = []
        failed: list[QueuedRequest] = []
        for member in placed.members:
            attempt = replace(member, attempts=member.attempts + 1)
            if attempt.attempts < retry.max_attempts:
                retries.append((attempt, retry.requeue_at_us(now_us, member)))
            else:
                failed.append(attempt)
        stats = self.fault_stats
        detected = placed.corrupt is not None and not placed.fault
        if detected:
            stats.detected += 1
        else:
            stats.crashes += 1
            if placed.fault:
                stats.injected += 1
                if placed.correlated:
                    stats.correlated += 1
        stats.failed += len(failed)
        tracer = self.tracer
        if tracer.enabled:
            if detected:
                tracer.corruption_detected(now_us, placed)
            else:
                tracer.batch_crashed(now_us, placed)
            if quarantined:
                tracer.array_quarantined(now_us, array)
            for request in failed:
                tracer.request_failed(now_us, request.index, tenant.name)
        return retries, failed, quarantined

    def served_corrupt(self, placed: PlacedBatch, now_us: float) -> None:
        """A corrupted batch completed *undetected*; account the damage.

        Called by the drivers' completion handlers when a batch carrying
        a :class:`~repro.serve.faults.CorruptionSpec` reaches its sink —
        the outcome the checksum mode exists to make impossible for
        weight/accumulator targets.
        """
        self.fault_stats.corrupted_served += placed.size
        if self.tracer.enabled:
            self.tracer.batch_corrupted(now_us, placed)

    def requeue(
        self, tenant: TenantState, requests: list[QueuedRequest], now_us: float
    ) -> None:
        """Return retried requests to the *front* of their tenant queue.

        ``requests`` arrive in original member order; reversed front
        insertion keeps the queue arrival-sorted (retries are the oldest
        work the tenant has).
        """
        for request in reversed(requests):
            tenant.queue.push_front(request)
        self.fault_stats.retries += len(requests)
        tracer = self.tracer
        if tracer.enabled:
            for request in requests:
                tracer.request_retried(now_us, request.index, tenant.name)

    def recover(self, array: int, now_us: float) -> None:
        """Readmit a quarantined array (the driver health-probed it)."""
        self.pool.readmit(array)
        started = self._quarantine_started.pop(array, now_us)
        elapsed = now_us - started
        stats = self.fault_stats
        stats.recoveries += 1
        stats.recovery_total_us += elapsed
        if elapsed > stats.recovery_max_us:
            stats.recovery_max_us = elapsed
        if self.tracer.enabled:
            self.tracer.array_recovered(now_us, array)

    def pending_timeouts(self, now_us: float) -> list[float]:
        """Coalescing deadlines of queues that are waiting, not ready."""
        deadlines = []
        for tenant in self.tenants:
            if len(tenant.queue) and not tenant.batching.ready(
                tenant.queue, now_us
            ):
                deadline = tenant.batching.next_deadline_us(tenant.queue, now_us)
                if deadline is not None:
                    deadlines.append(deadline)
        return deadlines

    def queue_depth(self) -> int:
        """Requests currently queued across all tenants."""
        return sum(len(tenant.queue) for tenant in self.tenants)
