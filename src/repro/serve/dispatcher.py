"""Array pool + dispatch policies: placing formed batches onto arrays.

The pool models ``N`` CapsAcc arrays — identical by default, or
*heterogeneous* when constructed with per-array
:class:`~repro.hw.config.AcceleratorConfig` objects (different array
sizes serve the same queue; the simulator prices each batch with a cost
model memoized per distinct configuration).  The pool keeps idle/busy
bookkeeping, per-array warm/cold state for stream pipelining (an array
released at exactly the dispatch instant never drained), the size of the
last batch each array ran (the ``(prev_size, size)`` warm-cost key), and
utilization counters.

**Which** idle array a batch claims is a :class:`DispatchPolicy`
decision, made through a :class:`DispatchContext` view:

* :class:`LeastRecentDispatch` — the default: the longest-idle array
  wins (ties by id), preferring a warm array in pipelined mode.  Idle
  ties used to go to the lowest id unconditionally, starving high-id
  arrays of work at light load; least-recently-released rotates them.
* :class:`RoundRobinDispatch` — strict rotation over array ids.
* :class:`PreferWarmDispatch` — warm array first even outside pipelined
  mode, else least-recently-released.
* :class:`GreedyWhenIdleDispatch` — the idle array with the smallest
  predicted batch duration wins (on a heterogeneous pool: the fastest
  idle array, warm figures included), so work never waits for a busy
  large array while a small idle one could finish sooner.
* :class:`BacklogGreedyDispatch` — greedy over *completion time*
  (``queue_delay + duration``) across **all** arrays, busy ones
  included: a fast array with a short backlog can beat a slow idle one.
  Declares ``considers_busy``, so the serving core stacks the batch
  behind the chosen array's in-flight work instead of claiming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.hw.config import AcceleratorConfig


@dataclass
class ArrayStats:
    """Utilization counters for one simulated array."""

    array: int
    busy_us: float = 0.0
    batches: int = 0
    requests: int = 0
    #: Batches that arrived back to back (charged the pipelined warm cost).
    warm_batches: int = 0

    def utilization(self, makespan_us: float) -> float:
        """Fraction of the simulated span this array spent computing."""
        if makespan_us <= 0:
            return 0.0
        return self.busy_us / makespan_us


@dataclass
class ArrayPool:
    """Idle/busy bookkeeping for ``count`` accelerator arrays.

    ``configs`` makes the pool heterogeneous: ``configs[i]`` is array
    ``i``'s accelerator configuration (``None`` keeps the classic
    homogeneous pool, priced by the simulator's shared cost model).
    """

    count: int
    configs: tuple[AcceleratorConfig, ...] | None = None
    stats: list[ArrayStats] = field(init=False)
    _idle: set[int] = field(init=False)
    _last_release_us: list[float | None] = field(init=False)
    _last_batch_size: list[int | None] = field(init=False)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("array count must be positive")
        if self.configs is not None:
            self.configs = tuple(self.configs)
            if len(self.configs) != self.count:
                raise ConfigError(
                    f"{len(self.configs)} array configs for {self.count} arrays"
                )
        self.stats = [ArrayStats(array=i) for i in range(self.count)]
        self._idle = set(range(self.count))
        self._last_release_us = [None] * self.count
        self._last_batch_size = [None] * self.count
        self._last_cost = [None] * self.count
        self._busy_until_us = [0.0] * self.count
        self._quarantined: set[int] = set()

    @property
    def idle_count(self) -> int:
        """Number of currently idle arrays."""
        return len(self._idle)

    def has_idle(self) -> bool:
        """Whether any array can accept a batch."""
        return bool(self._idle)

    def idle_ids(self) -> list[int]:
        """Currently idle array ids, ascending."""
        return sorted(self._idle)

    def active_ids(self) -> list[int]:
        """Array ids currently in service (idle or busy), ascending."""
        if not self._quarantined:
            return list(range(self.count))
        return [i for i in range(self.count) if i not in self._quarantined]

    def quarantined_ids(self) -> list[int]:
        """Array ids currently quarantined, ascending."""
        return sorted(self._quarantined)

    def quarantine(self, array: int) -> None:
        """Take a (crashed) array out of service: it never idles until
        :meth:`readmit` returns it to the pool."""
        self._idle.discard(array)
        self._quarantined.add(array)

    def readmit(self, array: int) -> None:
        """Return a quarantined array to the idle pool, cold (its warm
        state and release recency are reset)."""
        if array not in self._quarantined:
            raise ConfigError(f"array {array} is not quarantined")
        self._quarantined.remove(array)
        self._idle.add(array)
        self._last_release_us[array] = None
        self._last_batch_size[array] = None
        self._last_cost[array] = None

    def config_for(self, array: int) -> AcceleratorConfig | None:
        """Array ``array``'s configuration (None on a homogeneous pool)."""
        return None if self.configs is None else self.configs[array]

    def is_warm(self, array: int, now_us: float) -> bool:
        """Whether dispatching to ``array`` at ``now_us`` is back to back."""
        return self._last_release_us[array] == now_us

    def last_batch_size(self, array: int) -> int | None:
        """Size of the last batch this array ran (the warm-cost key)."""
        return self._last_batch_size[array]

    def last_cost(self, array: int):
        """Cost model that priced this array's last batch (or ``None``).

        On a shared multi-tenant pool the predecessor batch may belong
        to a different network; the serving simulator passes this model
        to ``warm_batch_cycles(..., prev_cost=...)`` so cross-network
        hand-offs are priced from the actual predecessor's op timeline.
        """
        return self._last_cost[array]

    def lru_key(self, array: int):
        """Sort key ordering arrays least-recently-released first.

        Never-released arrays (idle since the start) sort before any
        released one; equal release instants tie-break by array id, so
        placement stays deterministic.
        """
        last = self._last_release_us[array]
        return (last if last is not None else float("-inf"), array)

    def claim(self, array: int) -> None:
        """Mark an idle array busy (a dispatch policy chose it)."""
        if array not in self._idle:
            raise ConfigError(f"array {array} is not idle")
        self._idle.remove(array)

    def select(self, now_us: float, prefer_warm: bool = False) -> tuple[int, bool]:
        """Claim an idle array for a batch dispatched at ``now_us``.

        Returns ``(array, warm)``.  ``warm`` is true when the array was
        released at exactly ``now_us`` — the batch follows the previous
        one with no drain.  With ``prefer_warm`` a warm idle array wins
        over colder ones; otherwise the least-recently-released idle
        array wins (ties by id).
        """
        if not self._idle:
            raise ConfigError("select() with no idle array")
        candidates = self._idle
        if prefer_warm:
            warm_ids = [i for i in self._idle if self.is_warm(i, now_us)]
            if warm_ids:
                candidates = warm_ids
        array = min(candidates, key=self.lru_key)
        self.claim(array)
        return array, self.is_warm(array, now_us)

    def charge(
        self,
        array: int,
        batch_size: int,
        duration_us: float,
        warm: bool = False,
        now_us: float | None = None,
        cost=None,
    ) -> None:
        """Account one dispatched batch against a claimed array.

        ``now_us`` (the dispatch instant) lets the pool track when the
        array will free, for admission-time backlog estimates; ``cost``
        records which cost model priced the batch (the cross-network
        warm-cost key).
        """
        stat = self.stats[array]
        stat.busy_us += duration_us
        stat.batches += 1
        stat.requests += batch_size
        if warm:
            stat.warm_batches += 1
        # Unconditional: a charge without a cost model must not leave a
        # stale predecessor model paired with the new batch size (the
        # None falls back to the receiver's own pair cost downstream).
        self._last_batch_size[array] = batch_size
        self._last_cost[array] = cost
        if now_us is not None:
            self._busy_until_us[array] = now_us + duration_us

    def earliest_idle_us(self, now_us: float) -> float:
        """Earliest instant any array can accept a batch.

        ``now_us`` when an array is already idle; otherwise the soonest
        in-flight completion (as recorded by :meth:`charge`) among
        in-service arrays — ``inf`` when every array is quarantined, so
        capacity-aware admission degrades to shedding instead of
        promising service that cannot happen.
        """
        if self._idle:
            return now_us
        if not self._quarantined:
            return max(now_us, min(self._busy_until_us))
        horizons = [
            until
            for array, until in enumerate(self._busy_until_us)
            if array not in self._quarantined
        ]
        if not horizons:
            return float("inf")
        return max(now_us, min(horizons))

    def release(self, array: int, now_us: float | None = None) -> None:
        """Return an array to the idle pool when its batch completes.

        A quarantined array stays out of the idle set — work stacked
        behind a crash drains, but nothing new lands until
        :meth:`readmit`.
        """
        if array in self._quarantined:
            self._last_release_us[array] = now_us
            return
        self._idle.add(array)
        self._last_release_us[array] = now_us

    def utilization_spread(self, makespan_us: float) -> float:
        """Max minus min per-array utilization (placement-fairness gauge)."""
        values = [stat.utilization(makespan_us) for stat in self.stats]
        return max(values) - min(values)


@dataclass(frozen=True)
class DispatchContext:
    """Everything a dispatch policy may consult for one placement.

    ``duration_us(array)`` is the predicted occupancy of the batch on
    that array — warm-aware and, on heterogeneous pools, priced with the
    array's own cost model — supplied by the simulator.
    """

    pool: ArrayPool
    now_us: float
    batch_size: int
    pipeline: bool
    duration_us: Callable[[int], float]
    #: Predicted wait before a batch placed on that array could *start*
    #: (0 for an idle array).  Only supplied to policies that declare
    #: ``considers_busy``; ``None`` otherwise.
    queue_delay_us: Callable[[int], float] | None = None

    def idle_ids(self) -> Sequence[int]:
        """Idle array ids, ascending."""
        return self.pool.idle_ids()

    def warm_ids(self) -> list[int]:
        """Idle arrays that would run this batch back to back."""
        return [i for i in self.idle_ids() if self.pool.is_warm(i, self.now_us)]


def _require_idle(ctx: DispatchContext) -> list[int]:
    idle = list(ctx.idle_ids())
    if not idle:
        raise ConfigError("dispatch with no idle array")
    return idle


@dataclass(frozen=True)
class LeastRecentDispatch:
    """Longest-idle array first; warm array first in pipelined mode."""

    def select(self, ctx: DispatchContext) -> int:
        """Pick an idle array id for the batch."""
        idle = _require_idle(ctx)
        if ctx.pipeline:
            warm = ctx.warm_ids()
            if warm:
                return min(warm, key=ctx.pool.lru_key)
        return min(idle, key=ctx.pool.lru_key)

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "least-recent"


@dataclass(frozen=True)
class PreferWarmDispatch:
    """Warm array first regardless of mode, else longest-idle."""

    def select(self, ctx: DispatchContext) -> int:
        """Pick an idle array id for the batch."""
        idle = _require_idle(ctx)
        warm = ctx.warm_ids()
        if warm:
            return min(warm, key=ctx.pool.lru_key)
        return min(idle, key=ctx.pool.lru_key)

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "prefer-warm"


@dataclass
class RoundRobinDispatch:
    """Strict rotation over array ids, skipping busy arrays."""

    _next: int = field(default=0, repr=False, compare=False)

    def select(self, ctx: DispatchContext) -> int:
        """Pick the next idle array at or after the rotation pointer."""
        idle = set(_require_idle(ctx))
        for offset in range(ctx.pool.count):
            array = (self._next + offset) % ctx.pool.count
            if array in idle:
                self._next = (array + 1) % ctx.pool.count
                return array
        raise ConfigError("dispatch with no idle array")  # unreachable

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "round-robin"


@dataclass(frozen=True)
class GreedyWhenIdleDispatch:
    """The idle array with the smallest predicted duration wins.

    On a homogeneous pool every idle array prices the batch the same
    (modulo warmth) and this reduces to warm-first least-recent; on a
    heterogeneous pool it sends work to the fastest *idle* array —
    a small idle array beats waiting for the busy large one.
    """

    def select(self, ctx: DispatchContext) -> int:
        """Pick an idle array id for the batch."""
        idle = _require_idle(ctx)
        return min(idle, key=lambda i: (ctx.duration_us(i), ctx.pool.lru_key(i)))

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "greedy"


@dataclass(frozen=True)
class BacklogGreedyDispatch:
    """Earliest predicted *completion* wins, counting per-array backlog.

    :class:`GreedyWhenIdleDispatch` only ever sees idle arrays, so on a
    heterogeneous pool a batch can land on a slow-but-idle array even
    when the fast array frees up almost immediately.  This policy ranks
    **every** array by ``queue_delay_us + duration_us`` — the predicted
    instant the batch would finish if placed there — and lets the
    serving core stack the batch behind a busy winner.
    """

    #: The serving core reads this to allow placement on busy arrays
    #: (stacking) and to supply ``ctx.queue_delay_us``.
    considers_busy = True

    def select(self, ctx: DispatchContext) -> int:
        """Pick the array (idle or busy) with the earliest completion."""
        delay = ctx.queue_delay_us
        if delay is None:
            # A driver that cannot stack (no backlog view) degrades to
            # the idle-only greedy choice.
            idle = _require_idle(ctx)
            return min(idle, key=lambda i: (ctx.duration_us(i), ctx.pool.lru_key(i)))
        candidates = ctx.pool.active_ids()
        if not candidates:
            raise ConfigError("dispatch with every array quarantined")
        return min(
            candidates,
            key=lambda i: (delay(i) + ctx.duration_us(i), ctx.pool.lru_key(i)),
        )

    def describe(self) -> str:
        """Short human-readable policy name."""
        return "greedy-backlog"
