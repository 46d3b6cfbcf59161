"""Batching policies: when is a queue ready, and what does a batch take.

Batch formation happens at *dequeue* time, the way serving systems
(DESCNet-style memory-aware designs, Triton's dynamic batcher) actually
form batches: requests accumulate in a FIFO :class:`RequestQueue` while
every array is busy, and when an array frees a **batching policy**
decides whether the queue is *ready* (:meth:`~BatchPolicy.ready`), which
requests to :meth:`~BatchPolicy.take`, and — when it chooses to keep
coalescing — the :meth:`~BatchPolicy.next_deadline_us` at which that
decision must be revisited.  The simulator drives only this protocol
(see :mod:`repro.serve.policies`), so policies are pluggable:

* :class:`BatchPolicy` — the classic max-batch + bounded-coalescing-wait
  rule (the PR 2 behavior, unchanged: full batch, or the oldest request
  waited ``max_wait_us``);
* :class:`DeadlineBatcher` — SLA-aware: launches a partial batch *early*
  the moment waiting any longer would make the oldest queued request's
  deadline unmeetable (deadline minus the predicted compute time of the
  batch that would dispatch), instead of riding out the full coalescing
  wait.  Requests without deadlines fall back to the bounded wait.

Forming batches on a free-running timeout instead (independent of array
availability) degenerates to near-batch-1 under load — every timeout
window closes a tiny batch — which is why policies expose *readiness*
and let the simulator's dispatch loop decide when to take.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ConfigError


@dataclass(frozen=True)
class QueuedRequest:
    """One request waiting in a queue.

    ``deadline_us`` is the absolute completion deadline (SLA); ``inf``
    means the request carries none.  ``attempts`` counts *failed*
    executions so far (0 for a fresh arrival) — the fault layer bumps it
    when a crashed batch requeues its members, and retry budgets compare
    it against :attr:`~repro.serve.faults.RetryPolicy.max_attempts`.
    """

    index: int
    arrival_us: float
    deadline_us: float = math.inf
    attempts: int = 0


class RequestQueue:
    """FIFO of queued requests (one per tenant in the simulator)."""

    def __init__(self) -> None:
        self._pending: deque[QueuedRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[QueuedRequest]:
        return iter(self._pending)

    def append(self, request: QueuedRequest) -> None:
        """Enqueue an arriving (admitted) request."""
        self._pending.append(request)

    def push_front(self, request: QueuedRequest) -> None:
        """Requeue a retried request at the *front* of the queue.

        Retried requests carry the oldest arrival timestamps, so front
        insertion keeps the queue arrival-sorted — batching readiness
        (which peeks the oldest) and deadline scans stay correct.
        """
        self._pending.appendleft(request)

    def popleft(self) -> QueuedRequest:
        """Dequeue the oldest request."""
        return self._pending.popleft()

    def peek(self) -> QueuedRequest | None:
        """The oldest queued request, or ``None`` when empty."""
        return self._pending[0] if self._pending else None


def _check_batching_knobs(max_batch: int, max_wait_us: float) -> None:
    if max_batch < 1:
        raise ConfigError("max_batch must be positive")
    # The inverted comparison also rejects NaN, which would otherwise
    # produce never-ready deadlines and hang the event loop.
    if not (math.isfinite(max_wait_us) and max_wait_us >= 0):
        raise ConfigError("max_wait_us must be finite and non-negative")


def _take_fifo(queue: RequestQueue, max_batch: int) -> list[QueuedRequest]:
    if not len(queue):
        raise ConfigError("take() called on an empty queue")
    size = min(len(queue), max_batch)
    return [queue.popleft() for _ in range(size)]


@dataclass(frozen=True)
class BatchPolicy:
    """Max-batch + bounded-coalescing-wait batching (the classic rule).

    ``max_batch=1`` (any wait) is request-at-a-time serving — the
    baseline; ``max_wait_us=0`` dispatches whatever is queued the moment
    an array frees without ever waiting for stragglers.
    """

    max_batch: int = 8
    max_wait_us: float = 2000.0

    def __post_init__(self) -> None:
        _check_batching_knobs(self.max_batch, self.max_wait_us)

    def bind(self, cost) -> None:
        """No prediction needed — the wait bound is time-based only."""

    def ready(self, queue: RequestQueue, now_us: float) -> bool:
        """True when a full batch is queued or the oldest wait expired."""
        if len(queue) >= self.max_batch:
            return True
        oldest = queue.peek()
        return oldest is not None and now_us >= oldest.arrival_us + self.max_wait_us

    def take(self, queue: RequestQueue, now_us: float = 0.0) -> list[QueuedRequest]:
        """Pop the next batch (up to ``max_batch`` oldest requests)."""
        return _take_fifo(queue, self.max_batch)

    def next_deadline_us(self, queue: RequestQueue, now_us: float = 0.0) -> float | None:
        """Latest time the oldest queued request may keep waiting."""
        oldest = queue.peek()
        if oldest is None:
            return None
        return oldest.arrival_us + self.max_wait_us

    def describe(self) -> str:
        """Short human-readable policy name."""
        if self.max_batch == 1:
            return "batch-1"
        return f"batch<={self.max_batch}/wait<={self.max_wait_us:g}us"


@dataclass
class DeadlineBatcher:
    """SLA-aware batching: launch early before a deadline becomes unmeetable.

    Readiness adds one rule to :class:`BatchPolicy`: the batch that would
    dispatch now (``min(len(queue), max_batch)`` requests) launches the
    moment ``now + predicted_compute + slack_us`` reaches the earliest
    deadline among its members — waiting any longer guarantees an SLA
    violation, so coalescing further has negative value.  Requests
    without deadlines still dispatch within ``max_wait_us`` of arrival.

    The compute predictor comes from the serving cost model via
    :meth:`bind` (the simulator binds each tenant's policy to that
    tenant's cost); unbound, predicted compute is zero and the policy
    degrades to launching exactly at the deadline.
    """

    max_batch: int = 8
    max_wait_us: float = 2000.0
    slack_us: float = 0.0
    _predict_us: Callable[[int], float] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_batching_knobs(self.max_batch, self.max_wait_us)
        if not (math.isfinite(self.slack_us) and self.slack_us >= 0):
            raise ConfigError("slack_us must be finite and non-negative")

    def bind(self, cost) -> None:
        """Predict batch compute time from a serving cost model."""
        config = cost.config
        self._predict_us = lambda size: config.cycles_to_us(cost.batch_cycles(size))

    def predicted_compute_us(self, batch_size: int) -> float:
        """Predicted array occupancy of a ``batch_size`` dispatch."""
        if self._predict_us is None:
            return 0.0
        return self._predict_us(batch_size)

    def launch_by_us(self, queue: RequestQueue) -> float | None:
        """Latest instant a dispatch can still coalesce without regret.

        The minimum of the oldest request's bounded wait and, per queued
        deadline in the would-be batch, the deadline minus the predicted
        compute time and slack.
        """
        oldest = queue.peek()
        if oldest is None:
            return None
        launch_by = oldest.arrival_us + self.max_wait_us
        size = min(len(queue), self.max_batch)
        compute = self.predicted_compute_us(size)
        for position, request in enumerate(queue):
            if position >= self.max_batch:
                break
            if math.isfinite(request.deadline_us):
                launch_by = min(
                    launch_by, request.deadline_us - compute - self.slack_us
                )
        return launch_by

    def ready(self, queue: RequestQueue, now_us: float) -> bool:
        """Full batch, expired wait, or a deadline about to be violated."""
        if len(queue) >= self.max_batch:
            return True
        launch_by = self.launch_by_us(queue)
        return launch_by is not None and now_us >= launch_by

    def take(self, queue: RequestQueue, now_us: float = 0.0) -> list[QueuedRequest]:
        """Pop the next batch (up to ``max_batch`` oldest requests)."""
        return _take_fifo(queue, self.max_batch)

    def next_deadline_us(self, queue: RequestQueue, now_us: float = 0.0) -> float | None:
        """When readiness must be re-evaluated if nothing arrives."""
        return self.launch_by_us(queue)

    def describe(self) -> str:
        """Short human-readable policy name."""
        label = f"deadline/batch<={self.max_batch}"
        if self.slack_us:
            label += f"/slack{self.slack_us:g}us"
        return label

