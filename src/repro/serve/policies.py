"""Pluggable serving policies: admission / batching / dispatch protocols.

The serving simulator is policy-agnostic: it drives three small
protocols, each with a string registry mapping names to constructors, and
a :class:`ServerConfig` composing one implementation of each with the
batch cost model.

* :class:`AdmissionPolicy` — decides, at arrival time, whether a request
  enters its queue or is **shed** (rejected; recorded, never served).
  Implementations: :class:`AdmitAll` (the classic behavior),
  :class:`QueueLimitAdmission` (bounded queue; ``max_queue=0`` sheds
  everything — a drained tenant), :class:`DeadlineAdmission` (shed a
  request whose deadline is unmeetable even by an immediate solo
  dispatch — serving it would burn array time on a guaranteed SLA miss),
  and :class:`ChainedAdmission` (all must admit).
* :class:`BatchingPolicy` — when is a queue ready and what does a batch
  take (:mod:`repro.serve.batcher`: the classic
  :class:`~repro.serve.batcher.BatchPolicy` max-batch + max-wait rule
  and the SLA-aware :class:`~repro.serve.batcher.DeadlineBatcher`).
* :class:`DispatchPolicy` — which idle array a formed batch claims
  (:mod:`repro.serve.dispatcher`: least-recent, round-robin,
  prefer-warm, greedy-when-idle over heterogeneous pools).

:data:`SERVING_POLICIES` additionally names whole presets (``fifo`` /
``deadline`` / ``greedy``) so the CLI and benchmarks can select a
coherent triple with one flag.  :class:`TenantSpec` describes one tenant
of a multi-tenant simulation (own trace, network/cost, SLA, weight); the
simulator serves ready tenants in weighted-fair order so no tenant
starves under saturation.  :class:`CostBank` memoizes per-configuration
cost models for heterogeneous pools (two arrays of the same size share
one model).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig
from repro.serve.batcher import BatchPolicy, DeadlineBatcher, QueuedRequest, RequestQueue
from repro.serve.costs import ScheduledBatchCost
from repro.serve.dispatcher import (
    ArrayPool,
    BacklogGreedyDispatch,
    DispatchContext,
    GreedyWhenIdleDispatch,
    LeastRecentDispatch,
    PreferWarmDispatch,
    RoundRobinDispatch,
)
from repro.serve.faults import FaultPlan, RetryPolicy, load_fault_plan
from repro.serve.integrity import CHECK_MODES, IntegrityPolicy
from repro.serve.trace import ArrivalTrace


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Accept or shed a request at arrival time."""

    def admit(
        self,
        request: QueuedRequest,
        now_us: float,
        queue: RequestQueue,
        pool: ArrayPool,
    ) -> bool:
        """Whether the request enters the queue (False = shed)."""
        ...

    def describe(self) -> str:
        """Short human-readable policy name."""
        ...


@runtime_checkable
class BatchingPolicy(Protocol):
    """When is a queue ready, and what does a batch take."""

    max_batch: int

    def ready(self, queue: RequestQueue, now_us: float) -> bool:
        """Whether a batch should dispatch to an idle array now."""
        ...

    def take(self, queue: RequestQueue, now_us: float = 0.0) -> list[QueuedRequest]:
        """Pop the members of the next batch."""
        ...

    def next_deadline_us(self, queue: RequestQueue, now_us: float = 0.0) -> float | None:
        """When readiness must be re-evaluated if nothing arrives."""
        ...

    def describe(self) -> str:
        """Short human-readable policy name."""
        ...


@runtime_checkable
class DispatchPolicy(Protocol):
    """Choose which idle array a formed batch claims."""

    def select(self, ctx: DispatchContext) -> int:
        """Pick an idle array id for the batch."""
        ...

    def describe(self) -> str:
        """Short human-readable policy name."""
        ...


@dataclass(frozen=True)
class AdmitAll:
    """Admit every arriving request (the classic behavior)."""

    def admit(self, request, now_us, queue, pool) -> bool:
        """Always true."""
        return True

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "admit-all"


@dataclass(frozen=True)
class QueueLimitAdmission:
    """Shed arrivals once the queue holds ``max_queue`` requests.

    ``max_queue=0`` models zero admission capacity: everything sheds.
    """

    max_queue: int

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ConfigError("max_queue must be non-negative")

    def admit(self, request, now_us, queue, pool) -> bool:
        """Admit while the queue is below the cap."""
        return len(queue) < self.max_queue

    def describe(self) -> str:
        """Short human-readable policy name."""
        return f"queue<={self.max_queue}"


@dataclass
class DeadlineAdmission:
    """Shed requests whose deadline is already unmeetable at arrival.

    The earliest a request can plausibly complete is estimated as the
    earliest instant an array frees (every array busy pushes the start
    to the soonest in-flight completion), plus the backlog ahead of it
    (queued requests served at the batcher's steady-state per-request
    rate, ``predicted_compute(max_batch) / max_batch``, across the
    pool's arrays), plus its own batch's compute time.  A request whose
    deadline precedes that estimate — including one whose deadline has
    already passed — cannot make its SLA no matter what the batcher
    does; admitting it would spend array cycles on a guaranteed miss and
    push feasible requests later.  Requests without deadlines always
    admit.  The compute predictor binds to the tenant's cost model like
    the :class:`~repro.serve.batcher.DeadlineBatcher`'s; the batch cap
    binds from the tenant's batching policy.
    """

    slack_us: float = 0.0
    _predict_us: Callable[[int], float] | None = field(
        default=None, repr=False, compare=False
    )
    _max_batch: int = field(default=1, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slack_us) and self.slack_us >= 0):
            raise ConfigError("slack_us must be finite and non-negative")

    def bind(self, cost) -> None:
        """Predict batch compute time from a serving cost model."""
        config = cost.config
        self._predict_us = lambda size: config.cycles_to_us(cost.batch_cycles(size))

    def bind_batching(self, batching) -> None:
        """Learn the batch cap the queue will actually be served with."""
        self._max_batch = max(1, getattr(batching, "max_batch", 1))

    def earliest_done_us(self, now_us: float, queue, pool) -> float:
        """Estimated earliest completion of a request arriving now."""
        if self._predict_us is None:
            return now_us
        start = pool.earliest_idle_us(now_us)
        per_request = self._predict_us(self._max_batch) / self._max_batch
        backlog = len(queue) * per_request / pool.count
        own_batch = self._predict_us(min(len(queue) + 1, self._max_batch))
        return start + backlog + own_batch

    def admit(self, request, now_us, queue, pool) -> bool:
        """Admit unless the estimated earliest completion misses the SLA."""
        if not math.isfinite(request.deadline_us):
            return True
        done = self.earliest_done_us(now_us, queue, pool)
        return done + self.slack_us <= request.deadline_us

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "shed-infeasible"


@dataclass
class DegradedModeAdmission:
    """Shed early while the serving pool is degraded.

    Degradation has two triggers, both watched at admission time:

    * **quarantined capacity** — any array currently out of service
      (:meth:`~repro.serve.dispatcher.ArrayPool.quarantined_ids`), read
      straight off the pool every arrival;
    * **corruption detections** — the integrity layer catching corrupted
      numerics (checksum or canary).  The policy binds to the run's
      :class:`~repro.serve.faults.FaultStats` via :meth:`bind_faults`;
      each *new* detection opens (or extends) a ``hold_us`` degraded
      window, so a burst of detections keeps admission tight until the
      pool has been clean for a while.

    While degraded, arrivals shed once ``degraded_limit`` requests are
    queued (normally ``queue_limit``), so the shrunken pool works a
    short queue instead of accumulating a backlog of guaranteed SLA
    misses.  The decision depends only on policy state the simulator and
    virtual replay share, so degraded-mode runs stay decision-identical
    across those drivers; the live runtime's wall-clock hold windows
    legitimately differ.
    """

    queue_limit: int = 64
    degraded_limit: int = 8
    hold_us: float = 5000.0
    _stats: object | None = field(default=None, repr=False, compare=False)
    _seen_detections: int = field(default=0, repr=False, compare=False)
    _degraded_until_us: float = field(
        default=-math.inf, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.queue_limit < 0 or self.degraded_limit < 0:
            raise ConfigError("admission queue limits must be non-negative")
        if self.degraded_limit > self.queue_limit:
            raise ConfigError(
                "degraded_limit must not exceed queue_limit (a degraded"
                " pool admits less, never more)"
            )
        if not (math.isfinite(self.hold_us) and self.hold_us >= 0):
            raise ConfigError("hold_us must be finite and non-negative")

    def bind_faults(self, stats) -> None:
        """Watch a run's fault statistics for corruption detections."""
        self._stats = stats
        self._seen_detections = 0
        self._degraded_until_us = -math.inf

    def _detections(self) -> int:
        stats = self._stats
        if stats is None:
            return 0
        return stats.detected + stats.canary_detected

    def admit(self, request, now_us, queue, pool) -> bool:
        """Admit against the tight limit while the pool is degraded."""
        detections = self._detections()
        if detections > self._seen_detections:
            self._seen_detections = detections
            self._degraded_until_us = now_us + self.hold_us
        degraded = bool(pool.quarantined_ids()) or now_us < self._degraded_until_us
        limit = self.degraded_limit if degraded else self.queue_limit
        return len(queue) < limit

    def describe(self) -> str:
        """Short human-readable policy name."""
        return f"degraded[{self.queue_limit}->{self.degraded_limit}]"


@dataclass(frozen=True)
class ChainedAdmission:
    """Admit only when every chained policy admits."""

    policies: tuple

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigError("a chained admission needs at least one policy")

    def bind(self, cost) -> None:
        """Propagate the cost predictor to chained policies."""
        for policy in self.policies:
            if hasattr(policy, "bind"):
                policy.bind(cost)

    def bind_batching(self, batching) -> None:
        """Propagate the batching policy to chained policies."""
        for policy in self.policies:
            if hasattr(policy, "bind_batching"):
                policy.bind_batching(batching)

    def bind_faults(self, stats) -> None:
        """Propagate the run's fault statistics to chained policies."""
        for policy in self.policies:
            if hasattr(policy, "bind_faults"):
                policy.bind_faults(stats)

    def admit(self, request, now_us, queue, pool) -> bool:
        """All chained policies must admit."""
        return all(
            policy.admit(request, now_us, queue, pool) for policy in self.policies
        )

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "+".join(policy.describe() for policy in self.policies)


#: name -> admission-policy constructor.
ADMISSION_POLICIES: dict[str, Callable] = {
    "admit-all": AdmitAll,
    "queue-limit": QueueLimitAdmission,
    "deadline": DeadlineAdmission,
    "degraded": DegradedModeAdmission,
}

#: name -> batching-policy constructor.
BATCHING_POLICIES: dict[str, Callable] = {
    "max-wait": BatchPolicy,
    "deadline": DeadlineBatcher,
}

#: name -> dispatch-policy constructor.
DISPATCH_POLICIES: dict[str, Callable] = {
    "least-recent": LeastRecentDispatch,
    "round-robin": RoundRobinDispatch,
    "prefer-warm": PreferWarmDispatch,
    "greedy": GreedyWhenIdleDispatch,
    "greedy-backlog": BacklogGreedyDispatch,
}


def make_serving_policy(
    name: str,
    max_batch: int = 8,
    max_wait_us: float = 2000.0,
    slack_us: float = 0.0,
    queue_limit: int | None = None,
):
    """Build the (admission, batching, dispatch) triple of a named preset.

    * ``fifo`` — admit-all, max-batch + max-wait batching, least-recent
      dispatch: the classic PR 2/3 serving behavior.
    * ``deadline`` — shed-infeasible admission plus the SLA-aware
      :class:`~repro.serve.batcher.DeadlineBatcher` (early launch before
      the oldest deadline becomes unmeetable).
    * ``greedy`` — admit-all, dispatch whatever is queued the moment an
      array idles (zero coalescing wait), placed on the fastest idle
      array (:class:`~repro.serve.dispatcher.GreedyWhenIdleDispatch`).

    ``queue_limit`` chains a :class:`QueueLimitAdmission` onto any preset.
    """
    if name == "fifo":
        triple = (
            AdmitAll(),
            BatchPolicy(max_batch=max_batch, max_wait_us=max_wait_us),
            LeastRecentDispatch(),
        )
    elif name == "deadline":
        triple = (
            DeadlineAdmission(slack_us=slack_us),
            DeadlineBatcher(
                max_batch=max_batch, max_wait_us=max_wait_us, slack_us=slack_us
            ),
            LeastRecentDispatch(),
        )
    elif name == "greedy":
        triple = (
            AdmitAll(),
            BatchPolicy(max_batch=max_batch, max_wait_us=0.0),
            GreedyWhenIdleDispatch(),
        )
    else:
        raise ConfigError(
            f"unknown serving policy {name!r} (choose from {tuple(SERVING_POLICIES)})"
        )
    if queue_limit is not None:
        admission, batching, dispatch = triple
        limit = QueueLimitAdmission(queue_limit)
        if isinstance(admission, AdmitAll):
            admission = limit
        else:
            admission = ChainedAdmission((admission, limit))
        triple = (admission, batching, dispatch)
    return triple


#: Named presets resolvable by :func:`make_serving_policy`.
SERVING_POLICIES = ("fifo", "deadline", "greedy")


def add_server_arguments(
    parser: argparse.ArgumentParser, *, network_default: str = "mnist"
) -> None:
    """Register the server-shape flags shared by ``serve-sim`` and ``serve``.

    Both front-ends — the discrete-event simulator and the live runtime —
    resolve these flags through :meth:`ServerConfig.from_cli_args`, so the
    policy/batching/pool surface is one definition, not two drifting
    copies.  Choices come from the policy registries, so a newly
    registered policy is immediately selectable from either command.
    """
    parser.add_argument(
        "--max-batch", type=int, default=8, help="dynamic batcher batch-size cap"
    )
    parser.add_argument(
        "--max-wait-us",
        type=float,
        default=2000.0,
        help="max coalescing wait past the oldest queued request (us)",
    )
    parser.add_argument(
        "--policy",
        choices=tuple(SERVING_POLICIES),
        default="fifo",
        help="serving-policy preset: admission + batching + dispatch"
        " (fifo = the classic max-batch/max-wait behavior)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request SLA in milliseconds (drives the deadline policy's"
        " early launches and shed-infeasible admission)",
    )
    parser.add_argument(
        "--dispatch",
        choices=tuple(DISPATCH_POLICIES),
        default=None,
        help="override the preset's array-dispatch policy",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help="shed arrivals once this many requests are queued",
    )
    parser.add_argument(
        "--arrays", type=int, default=1, help="accelerator arrays to shard across"
    )
    parser.add_argument(
        "--array-sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="heterogeneous pool: one NxN array per size (overrides --arrays)",
    )
    from repro.compiler.zoo import zoo_names

    parser.add_argument(
        "--network",
        choices=zoo_names(),
        default=network_default,
        help="model-zoo network served by default (tenants can override)",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="charge back-to-back batches the stream-pipelined warm cost",
    )
    parser.add_argument(
        "--fifo-depth",
        type=int,
        default=None,
        help="accumulator FIFO depth (default: sized to the job)",
    )
    parser.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="record the run's event stream and write a timeline:"
        " .json = Chrome trace-event / Perfetto, .jsonl = span log"
        " (same schema from serve-sim and serve)",
    )
    parser.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        metavar="PLAN",
        help="inject deterministic faults: a JSON file, inline JSON, or"
        " key=value shorthand (e.g. 'crash_rate=0.02,seed=3' or"
        " 'crash_batches=1:4'); same plan semantics in serve-sim and"
        " serve",
    )
    parser.add_argument(
        "--integrity",
        choices=CHECK_MODES,
        default=None,
        help="arm silent-data-corruption detection: 'checksum' = ABFT"
        " column checksums on every compiled GEMM, 'checksum+canary'"
        " additionally probes arrays with known-answer canaries; same"
        " detection decisions in serve-sim and serve",
    )
    parser.add_argument(
        "--canary-every",
        type=int,
        default=None,
        metavar="N",
        help="fire a canary probe every N placements per array"
        " (checksum+canary mode; default 16)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="total per-request attempt budget for crashed batches"
        " (default 3; 1 disables retries)",
    )
    parser.add_argument(
        "--retry-backoff-us",
        type=float,
        default=None,
        help="requeue backoff after a crash (exponential per attempt,"
        " deadline-aware; default 200us)",
    )
    parser.add_argument(
        "--recovery-us",
        type=float,
        default=None,
        help="quarantine duration before a crashed array is health-probed"
        " and readmitted (default 5000us)",
    )


@dataclass
class ServerConfig:
    """One serving configuration: policies + cost model + array pool.

    ``array_configs`` makes the pool heterogeneous (one
    :class:`~repro.hw.config.AcceleratorConfig` per array; ``arrays`` is
    derived from its length); ``deadline_us`` is the relative SLA stamped
    on every arriving request that does not carry its own deadline.
    """

    cost: ScheduledBatchCost
    admission: AdmissionPolicy | None = None
    batching: BatchingPolicy | None = None
    dispatch: DispatchPolicy | None = None
    arrays: int = 1
    array_configs: Sequence[AcceleratorConfig] | None = None
    pipeline: bool = False
    deadline_us: float | None = None
    network_name: str = "capsnet"
    #: Deterministic fault-injection schedule (None = no injection; the
    #: retry/quarantine machinery still handles *real* crashes live).
    fault_plan: FaultPlan | None = None
    #: Crash-handling knobs (attempt budget, backoff, quarantine
    #: duration); None uses :class:`~repro.serve.faults.RetryPolicy`
    #: defaults.
    retry: RetryPolicy | None = None
    #: Silent-data-corruption detection: an
    #: :class:`~repro.serve.integrity.IntegrityPolicy`, a mode string
    #: from :data:`~repro.serve.integrity.CHECK_MODES`, or None
    #: (normalized to the disabled policy).
    integrity: IntegrityPolicy | str | None = None

    def __post_init__(self) -> None:
        if self.integrity is None:
            self.integrity = IntegrityPolicy()
        elif isinstance(self.integrity, str):
            self.integrity = IntegrityPolicy(mode=self.integrity)
        if self.admission is None:
            self.admission = AdmitAll()
        if self.batching is None:
            self.batching = BatchPolicy()
        if self.dispatch is None:
            self.dispatch = LeastRecentDispatch()
        if self.array_configs is not None:
            self.array_configs = tuple(self.array_configs)
            if self.arrays == 1 and len(self.array_configs) > 1:
                self.arrays = len(self.array_configs)
            elif len(self.array_configs) != self.arrays:
                raise ConfigError(
                    f"{len(self.array_configs)} array configs for"
                    f" {self.arrays} arrays"
                )
        if self.arrays < 1:
            raise ConfigError("array count must be positive")
        if self.deadline_us is not None and not (
            math.isfinite(self.deadline_us) and self.deadline_us > 0
        ):
            raise ConfigError("deadline_us must be finite and positive")

    @classmethod
    def from_policy(
        cls,
        policy: str,
        cost: ScheduledBatchCost,
        max_batch: int = 8,
        max_wait_us: float = 2000.0,
        slack_us: float = 0.0,
        queue_limit: int | None = None,
        dispatch: str | None = None,
        **kwargs,
    ) -> "ServerConfig":
        """Build a config from a named preset (plus optional overrides)."""
        admission, batching, preset_dispatch = make_serving_policy(
            policy,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            slack_us=slack_us,
            queue_limit=queue_limit,
        )
        if dispatch is not None:
            if dispatch not in DISPATCH_POLICIES:
                raise ConfigError(
                    f"unknown dispatch policy {dispatch!r}"
                    f" (choose from {tuple(DISPATCH_POLICIES)})"
                )
            preset_dispatch = DISPATCH_POLICIES[dispatch]()
        return cls(
            cost=cost,
            admission=admission,
            batching=batching,
            dispatch=preset_dispatch,
            **kwargs,
        )

    @classmethod
    def from_cli_args(
        cls,
        args: argparse.Namespace,
        cost: ScheduledBatchCost,
        accel_config: AcceleratorConfig | None = None,
    ) -> "ServerConfig":
        """Build a config from the shared CLI flags.

        The counterpart of :func:`add_server_arguments`: any command
        that registered the shared server flags resolves them here, so
        ``repro serve-sim`` and ``repro serve`` cannot drift apart.
        ``accel_config`` sizes the heterogeneous pool's per-array
        configurations (defaults to the cost model's own).
        """
        accel = accel_config if accel_config is not None else cost.config
        if args.deadline_ms is not None and args.deadline_ms <= 0:
            raise ConfigError("--deadline-ms must be positive")
        array_configs = None
        if args.array_sizes:
            array_configs = tuple(
                accel.with_array(size, size) for size in args.array_sizes
            )
        plan_spec = getattr(args, "fault_plan", None)
        fault_plan = load_fault_plan(plan_spec) if plan_spec else None
        retry = None
        retry_overrides = {
            "max_attempts": getattr(args, "max_attempts", None),
            "backoff_us": getattr(args, "retry_backoff_us", None),
            "recovery_us": getattr(args, "recovery_us", None),
        }
        if any(value is not None for value in retry_overrides.values()):
            retry = RetryPolicy(
                **{k: v for k, v in retry_overrides.items() if v is not None}
            )
        integrity = None
        mode = getattr(args, "integrity", None)
        canary_every = getattr(args, "canary_every", None)
        if canary_every is not None and mode != "checksum+canary":
            raise ConfigError(
                "--canary-every only applies to --integrity checksum+canary"
            )
        if mode is not None and mode != "none":
            kwargs = {"mode": mode}
            if canary_every is not None:
                kwargs["canary_every"] = canary_every
            integrity = IntegrityPolicy(**kwargs)
        return cls.from_policy(
            args.policy,
            cost,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            queue_limit=args.queue_limit,
            dispatch=args.dispatch,
            arrays=len(array_configs) if array_configs else args.arrays,
            array_configs=array_configs,
            pipeline=args.pipeline,
            deadline_us=(
                args.deadline_ms * 1000.0 if args.deadline_ms is not None else None
            ),
            network_name=args.network,
            fault_plan=fault_plan,
            retry=retry,
            integrity=integrity,
        )

    def describe(self) -> str:
        """Short human-readable configuration name."""
        label = self.batching.describe()
        if not isinstance(self.admission, AdmitAll):
            label += f"/adm:{self.admission.describe()}"
        if not isinstance(self.dispatch, LeastRecentDispatch):
            label += f"/disp:{self.dispatch.describe()}"
        if self.fault_plan is not None and not self.fault_plan.empty:
            label += f"/{self.fault_plan.describe()}"
        if self.integrity.enabled:
            label += f"/{self.integrity.describe()}"
        return label

    def policy_json(self) -> dict:
        """JSON-serializable policy description for reports."""
        payload = {
            "max_batch": self.batching.max_batch,
            "max_wait_us": getattr(self.batching, "max_wait_us", None),
            "describe": self.describe(),
            "admission": self.admission.describe(),
            "batching": self.batching.describe(),
            "dispatch": self.dispatch.describe(),
        }
        if self.deadline_us is not None:
            payload["deadline_us"] = self.deadline_us
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
            retry = self.retry if self.retry is not None else RetryPolicy()
            payload["retry"] = retry.describe()
        if self.integrity.enabled:
            payload["integrity"] = self.integrity.mode
            if self.integrity.canary:
                payload["canary_every"] = self.integrity.canary_every
        return payload


@dataclass
class TenantSpec:
    """One tenant of a multi-tenant serving simulation.

    A tenant brings its own arrival trace and optionally its own cost
    model (a different network on the shared pool), SLA, weight, and
    admission/batching overrides.  Weights drive the simulator's
    weighted-fair service order: among ready tenants the one with the
    smallest ``served_requests / weight`` dispatches next, so a
    weight-2 tenant receives twice the weight-1 tenant's share under
    saturation and neither starves.
    """

    name: str
    trace: ArrivalTrace
    cost: ScheduledBatchCost | None = None
    deadline_us: float | None = None
    weight: float = 1.0
    admission: AdmissionPolicy | None = None
    batching: BatchingPolicy | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ConfigError("tenant weight must be finite and positive")
        if self.deadline_us is not None and not (
            math.isfinite(self.deadline_us) and self.deadline_us > 0
        ):
            raise ConfigError("deadline_us must be finite and positive")


class CostBank:
    """Per-configuration memoized cost models for heterogeneous pools.

    ``resolve(cost, config)`` returns ``cost`` itself when ``config`` is
    ``None`` or already the model's own configuration, and otherwise a
    same-kind model rebuilt for ``config`` — memoized by the (tenant
    cost, config) pair, so two arrays with equal configurations share
    one model and its per-batch-size memo.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[int, AcceleratorConfig], object] = {}

    def resolve(self, cost, config: AcceleratorConfig | None):
        """The cost model pricing ``cost``'s network on ``config``."""
        if config is None or config == cost.config:
            return cost
        key = (id(cost), config)
        if key not in self._memo:
            self._memo[key] = _rebuild_cost(cost, config)
        return self._memo[key]


def _rebuild_cost(cost, config: AcceleratorConfig):
    """Clone a cost model onto a different accelerator configuration."""
    if not isinstance(cost, ScheduledBatchCost):
        raise ConfigError("heterogeneous pools need a ScheduledBatchCost")
    return ScheduledBatchCost(
        qnet=cost.compiled,
        accel_config=config,
        accounting=cost.accounting,
        pipeline=cost.pipeline,
        window=cost.window,
        prestage_depth=cost.prestage_depth,
        integrity=cost.integrity,
    )
