"""Async inference-serving simulator for CapsAcc.

The serving subsystem models the system *around* the accelerator, and is
organized around three pluggable policy protocols
(:mod:`repro.serve.policies`): requests arrive on configurable traces
(:mod:`repro.serve.trace`), an **admission policy** accepts or sheds
each arrival, a **batching policy** decides when a tenant's queue is
ready and what a batch takes (:mod:`repro.serve.batcher` — the classic
max-batch + max-wait rule, or the SLA-aware deadline batcher), and a
**dispatch policy** places formed batches onto a pool of simulated
arrays (:mod:`repro.serve.dispatcher` — least-recent, round-robin,
prefer-warm, or greedy over heterogeneous array sizes), each advancing
on the cycle-exact costs of the network's compiled program
(:mod:`repro.serve.costs`).  A :class:`ServerConfig` composes one of
each with the cost model; :class:`TenantSpec` lists describe
multi-tenant runs (different networks/SLAs sharing one pool under
weighted-fair service).  The simulator lives in
:mod:`repro.serve.simulator` (its recorded loop is
:func:`~repro.serve.runtime.run_virtual`); reports and the latency
decomposition (queueing / batching / compute) in
:mod:`repro.serve.stats`.

The same policy engine also serves *live*: the time-source-agnostic
core (:mod:`repro.serve.core`), driven by one
:class:`~repro.serve.runtime.RuntimeEngine`, runs under either a virtual
clock (the simulator's recorded path, :func:`replay_virtual`) or the
wall clock
(:class:`ServingRuntime` in :mod:`repro.serve.runtime` — real requests,
real batches through the quantized engine via
:mod:`repro.serve.workers`).  Both paths emit the same
:class:`ServingReport` through a pluggable :class:`CompletionSink`
(:mod:`repro.serve.sinks`), so sim-vs-live comparison is one function
call (:mod:`repro.serve.compare`).  Both drivers also accept a
``tracer`` (:mod:`repro.obs`): one observability hook surface in the
core yields the same structured event stream — and the same Perfetto
timeline export and live metrics — from simulated and real runs.

Quick start::

    import numpy as np
    from repro.serve import (
        ScheduledBatchCost, ServerConfig, ServingSimulator, poisson_trace,
    )

    rng = np.random.default_rng(7)
    trace = poisson_trace(rate_rps=400.0, count=64, rng=rng)
    cost = ScheduledBatchCost("mnist")            # paper MNIST network
    server = ServerConfig.from_policy(
        "deadline", cost, arrays=2, deadline_us=10_000.0
    )
    report = ServingSimulator(trace, server=server).run()
    print(report.format_table())
"""

from repro.serve.batcher import (
    BatchPolicy,
    DeadlineBatcher,
    QueuedRequest,
    RequestQueue,
)
from repro.serve.clock import Clock, MonotonicClock, VirtualClock
from repro.serve.compare import (
    compare_reports,
    compare_reports_median,
    decision_diffs,
)
from repro.serve.core import PlacedBatch, ServingCore
from repro.serve.costs import (
    ACCOUNTINGS,
    ScheduledBatchCost,
    clear_probe_cache,
    probe_cache_size,
)
from repro.serve.faults import (
    CORRUPT_TARGETS,
    CorruptionSpec,
    FaultInjector,
    FaultPlan,
    FaultStats,
    InjectedCrashError,
    RetryPolicy,
    load_fault_plan,
)
from repro.serve.integrity import (
    CHECK_MODES,
    CanaryStream,
    DetectedCorruptionError,
    IntegrityPolicy,
)
from repro.serve.dispatcher import (
    ArrayPool,
    ArrayStats,
    BacklogGreedyDispatch,
    DispatchContext,
    GreedyWhenIdleDispatch,
    LeastRecentDispatch,
    PreferWarmDispatch,
    RoundRobinDispatch,
)
from repro.serve.policies import (
    ADMISSION_POLICIES,
    BATCHING_POLICIES,
    DISPATCH_POLICIES,
    SERVING_POLICIES,
    AdmitAll,
    ChainedAdmission,
    CostBank,
    DeadlineAdmission,
    DegradedModeAdmission,
    QueueLimitAdmission,
    ServerConfig,
    TenantSpec,
    add_server_arguments,
    make_serving_policy,
)
from repro.serve.runtime import (
    MeasuredBatchCost,
    RequestShedError,
    RuntimeEngine,
    ServingRuntime,
    replay_virtual,
)
from repro.serve.simulator import ServingSimulator
from repro.serve.sinks import CompletionSink, RecordingSink, StreamingSink
from repro.serve.stats import (
    DEFAULT_LATENCY_BIN_US,
    BatchRecord,
    LatencyHistogram,
    RequestRecord,
    ServingReport,
    StreamingStats,
    percentile_summary,
)
from repro.serve.trace import (
    TRACE_DEADLINE_KEY,
    TRACE_KINDS,
    TRACE_TIME_KEYS,
    ArrivalTrace,
    bursty_trace,
    load_trace_file,
    make_trace,
    poisson_trace,
    replay_trace,
    uniform_trace,
)
from repro.serve.workers import (
    CompiledStreamExecutor,
    PredictedExecutor,
    ProcessWorkerPool,
    WorkerCrashError,
)

__all__ = [
    "ACCOUNTINGS",
    "ADMISSION_POLICIES",
    "BATCHING_POLICIES",
    "CHECK_MODES",
    "CORRUPT_TARGETS",
    "DEFAULT_LATENCY_BIN_US",
    "DISPATCH_POLICIES",
    "SERVING_POLICIES",
    "TRACE_DEADLINE_KEY",
    "TRACE_KINDS",
    "TRACE_TIME_KEYS",
    "AdmitAll",
    "ArrayPool",
    "ArrayStats",
    "ArrivalTrace",
    "BacklogGreedyDispatch",
    "BatchPolicy",
    "BatchRecord",
    "CanaryStream",
    "ChainedAdmission",
    "Clock",
    "CompiledStreamExecutor",
    "CompletionSink",
    "CorruptionSpec",
    "CostBank",
    "DeadlineAdmission",
    "DeadlineBatcher",
    "DegradedModeAdmission",
    "DetectedCorruptionError",
    "DispatchContext",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "GreedyWhenIdleDispatch",
    "InjectedCrashError",
    "IntegrityPolicy",
    "LatencyHistogram",
    "LeastRecentDispatch",
    "MeasuredBatchCost",
    "MonotonicClock",
    "PlacedBatch",
    "PredictedExecutor",
    "PreferWarmDispatch",
    "ProcessWorkerPool",
    "QueueLimitAdmission",
    "QueuedRequest",
    "RecordingSink",
    "RequestQueue",
    "RequestRecord",
    "RequestShedError",
    "RetryPolicy",
    "RoundRobinDispatch",
    "RuntimeEngine",
    "ScheduledBatchCost",
    "ServerConfig",
    "ServingCore",
    "ServingReport",
    "ServingRuntime",
    "ServingSimulator",
    "StreamingSink",
    "StreamingStats",
    "TenantSpec",
    "VirtualClock",
    "WorkerCrashError",
    "add_server_arguments",
    "bursty_trace",
    "clear_probe_cache",
    "compare_reports",
    "compare_reports_median",
    "decision_diffs",
    "load_fault_plan",
    "load_trace_file",
    "make_serving_policy",
    "make_trace",
    "percentile_summary",
    "poisson_trace",
    "probe_cache_size",
    "replay_trace",
    "replay_virtual",
    "uniform_trace",
]
