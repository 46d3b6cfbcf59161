"""Fault tolerance for the serving stack: injection, retry, quarantine.

Three pieces, shared by every driver of the
:class:`~repro.serve.core.ServingCore` (the discrete-event simulator,
the virtual-time replay, and the live asyncio runtime):

* :class:`FaultPlan` — a **seedable, declarative fault schedule**:
  crash the Nth placed batch, crash the batch carrying request K's
  first attempt, a Bernoulli per-batch crash rate, hang-before-detect
  durations, array-down windows, *silent corruption* (per-placement
  ``corrupt_rate`` / ``corrupt_batches`` bit flips into a weight tile,
  accumulator, or output — see :mod:`repro.serve.integrity` for the
  detection side), and correlated ``failure_groups`` that take a whole
  power/rack domain of arrays down in one window.  Plans are pure data
  (JSON or a ``key=value`` inline spec via :func:`load_fault_plan`),
  so a fault experiment is exactly as reproducible as the arrival
  trace driving it.
* :class:`FaultInjector` — the runtime decision engine for a plan.
  It is consulted once per *placement*, in placement order, which is
  identical across the simulator and the live runtime (both drive the
  same core); a seeded plan therefore crashes (and corrupts) the
  *same* batches in both, making sim-vs-live fault studies directly
  comparable.  Corruption draws come from a stream separate from the
  crash stream, so arming ``corrupt_rate`` never perturbs which
  batches a given ``crash_rate`` seed crashes.
* :class:`RetryPolicy` — how failures are handled regardless of where
  they came from (injected or a real worker death): per-request attempt
  budgets, exponential deadline-aware backoff for requeued work, and
  the quarantine duration before a crashed array is readmitted.

The injector only *marks* a placed batch as doomed
(``PlacedBatch.fault``); detection timing, requeue scheduling, and
recovery are driven by the clock owner — event-heap entries in the
simulator, ``call_later`` timers in the live runtime — so the core
itself stays time-source-agnostic.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random

from repro.errors import ConfigError
from repro.serve.workers import WorkerCrashError


class InjectedCrashError(WorkerCrashError):
    """A deliberate, plan-scheduled crash (not a real worker death)."""


#: What a corruption fault flips bits in. ``weight`` and ``accumulator``
#: are inside the ABFT checksum envelope; ``output`` corrupts the final
#: scores *after* every checked GEMM, so no checksum can see it.
CORRUPT_TARGETS = ("weight", "accumulator", "output")


@dataclasses.dataclass(frozen=True)
class CorruptionSpec:
    """One batch's corruption fault, derived from the plan seed.

    ``seed`` fully determines which element of the target tensor is hit
    and which of its low 16 bits flip, so the corrupted numerics are
    bit-reproducible across drivers and reruns.
    """

    target: str = "weight"
    bits: int = 1
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Declarative, seedable schedule of injected faults.

    ``crash_batches`` are 0-based *placement ordinals* — the Nth batch
    the core places crashes, whatever it contains.  ``crash_requests``
    crash the batch carrying that request index's **first** attempt
    (retries of the same request run clean, so the fault is transient
    by construction).  ``crash_rate`` is a per-placement Bernoulli
    draw from a ``seed``-ed generator, optionally bounded by
    ``max_crashes`` (a bounded plan is *transient*: with attempt
    budget left, every request still completes).  ``array_down``
    windows ``(array, start_us, end_us)`` crash any batch dispatched
    on that array inside the window.  ``hang_us`` delays detection:
    a crashing batch occupies its array for ``hang_us`` before the
    watchdog notices (0 means the crash surfaces when the batch's
    results were due).

    Corruption faults are silent: a corrupted batch *runs to
    completion* and returns wrong numerics instead of crashing.
    ``corrupt_batches`` are placement ordinals (like ``crash_batches``)
    and ``corrupt_rate`` a per-placement Bernoulli draw from a stream
    independent of the crash stream; ``corrupt_bits`` low-order bits of
    one ``corrupt_target`` element flip (weight tile, accumulator, or
    final output scores).  Whether anyone *notices* is the integrity
    layer's business (:mod:`repro.serve.integrity`).  A batch the plan
    both crashes and corrupts crashes — the louder fault wins.

    ``failure_groups`` model a shared power/rack domain:
    ``((arrays...), start_us, end_us)`` crashes any batch dispatched on
    *any* member array inside the window, so one event can take down
    several arrays at once.
    """

    crash_batches: tuple[int, ...] = ()
    crash_requests: tuple[int, ...] = ()
    crash_rate: float = 0.0
    max_crashes: int | None = None
    hang_us: float = 0.0
    array_down: tuple[tuple[int, float, float], ...] = ()
    corrupt_batches: tuple[int, ...] = ()
    corrupt_rate: float = 0.0
    corrupt_bits: int = 1
    corrupt_target: str = "weight"
    failure_groups: tuple[tuple[tuple[int, ...], float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.crash_rate <= 1.0):
            raise ConfigError("crash_rate must be within [0, 1]")
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ConfigError("max_crashes must be non-negative")
        if not (math.isfinite(self.hang_us) and self.hang_us >= 0):
            raise ConfigError("hang_us must be finite and non-negative")
        if not (0.0 <= self.corrupt_rate <= 1.0):
            raise ConfigError("corrupt_rate must be within [0, 1]")
        if not (1 <= int(self.corrupt_bits) <= 16):
            raise ConfigError("corrupt_bits must be within [1, 16]")
        if self.corrupt_target not in CORRUPT_TARGETS:
            raise ConfigError(
                f"corrupt_target must be one of {CORRUPT_TARGETS},"
                f" not {self.corrupt_target!r}"
            )
        object.__setattr__(self, "corrupt_bits", int(self.corrupt_bits))
        object.__setattr__(
            self, "crash_batches", tuple(int(b) for b in self.crash_batches)
        )
        object.__setattr__(
            self, "crash_requests", tuple(int(r) for r in self.crash_requests)
        )
        object.__setattr__(
            self, "corrupt_batches", tuple(int(b) for b in self.corrupt_batches)
        )
        windows = []
        for window in self.array_down:
            array, start, end = window
            if end <= start:
                raise ConfigError(
                    f"array_down window {window} must have end > start"
                )
            windows.append((int(array), float(start), float(end)))
        windows.sort()
        for before, after in zip(windows, windows[1:]):
            if before[0] == after[0] and after[1] < before[2]:
                raise ConfigError(
                    f"array_down windows {before} and {after} overlap on"
                    f" array {before[0]}"
                )
        object.__setattr__(self, "array_down", tuple(windows))
        groups = []
        for group in self.failure_groups:
            arrays, start, end = group
            arrays = tuple(int(a) for a in arrays)
            if not arrays:
                raise ConfigError(
                    f"failure_groups window {group} names no arrays"
                )
            if end <= start:
                raise ConfigError(
                    f"failure_groups window {group} must have end > start"
                )
            groups.append((arrays, float(start), float(end)))
        object.__setattr__(self, "failure_groups", tuple(groups))

    @property
    def empty(self) -> bool:
        """Whether this plan can never inject anything."""
        return (
            not self.crash_batches
            and not self.crash_requests
            and self.crash_rate == 0.0
            and not self.array_down
            and not self.corrupt_batches
            and self.corrupt_rate == 0.0
            and not self.failure_groups
        )

    @property
    def corrupts(self) -> bool:
        """Whether this plan can inject silent corruption."""
        return bool(self.corrupt_batches) or self.corrupt_rate > 0.0

    def detect_delay_us(self, duration_us: float) -> float:
        """How long a doomed batch occupies its array before detection."""
        return self.hang_us if self.hang_us > 0.0 else duration_us

    def to_dict(self) -> dict:
        """JSON-ready plan description (drops unset fields)."""
        out: dict = {"seed": self.seed}
        if self.crash_batches:
            out["crash_batches"] = list(self.crash_batches)
        if self.crash_requests:
            out["crash_requests"] = list(self.crash_requests)
        if self.crash_rate:
            out["crash_rate"] = self.crash_rate
        if self.max_crashes is not None:
            out["max_crashes"] = self.max_crashes
        if self.hang_us:
            out["hang_us"] = self.hang_us
        if self.array_down:
            out["array_down"] = [list(w) for w in self.array_down]
        if self.corrupt_batches:
            out["corrupt_batches"] = list(self.corrupt_batches)
        if self.corrupt_rate:
            out["corrupt_rate"] = self.corrupt_rate
        if self.corrupts:
            out["corrupt_bits"] = self.corrupt_bits
            out["corrupt_target"] = self.corrupt_target
        if self.failure_groups:
            out["failure_groups"] = [
                [list(arrays), start, end]
                for arrays, start, end in self.failure_groups
            ]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> FaultPlan:
        """Build a plan from a JSON object (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise ConfigError("fault plan JSON must be an object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown fault-plan keys: {sorted(unknown)} (known: {sorted(known)})"
            )
        kwargs = dict(data)
        try:
            if "array_down" in kwargs:
                kwargs["array_down"] = tuple(
                    tuple(w) for w in kwargs["array_down"]
                )
            if "failure_groups" in kwargs:
                kwargs["failure_groups"] = tuple(
                    (tuple(g[0]), g[1], g[2]) for g in kwargs["failure_groups"]
                )
            return cls(**kwargs)
        except (TypeError, ValueError, IndexError) as error:
            raise ConfigError(f"malformed fault-plan value: {error}") from error

    def describe(self) -> str:
        """Short human-readable plan summary."""
        parts = []
        if self.crash_batches:
            parts.append(f"batches={','.join(map(str, self.crash_batches))}")
        if self.crash_requests:
            parts.append(f"requests={','.join(map(str, self.crash_requests))}")
        if self.crash_rate:
            parts.append(f"rate={self.crash_rate:g}")
        if self.max_crashes is not None:
            parts.append(f"max={self.max_crashes}")
        if self.hang_us:
            parts.append(f"hang={self.hang_us:g}us")
        if self.array_down:
            parts.append(f"down={len(self.array_down)}win")
        if self.corrupt_batches:
            parts.append(
                f"corrupt={','.join(map(str, self.corrupt_batches))}"
            )
        if self.corrupt_rate:
            parts.append(f"corrupt_rate={self.corrupt_rate:g}")
        if self.corrupts:
            parts.append(
                f"{self.corrupt_target}x{self.corrupt_bits}b"
            )
        if self.failure_groups:
            parts.append(f"groups={len(self.failure_groups)}")
        if not parts:
            return "faults:none"
        return "faults[" + " ".join(parts) + f" seed={self.seed}]"


_LIST_KEYS = {"crash_batches", "crash_requests", "corrupt_batches"}
_INT_KEYS = {"seed", "max_crashes", "corrupt_bits"}
_FLOAT_KEYS = {"crash_rate", "hang_us", "corrupt_rate"}


def _parse_inline(spec: str) -> FaultPlan:
    """Parse ``key=value,key=value`` (lists colon-separated,
    ``array_down`` windows as ``array@start:end``, ``failure_groups``
    as ``array:array@start:end`` joined by ``+``)."""
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"fault-plan entry {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _LIST_KEYS:
                kwargs[key] = tuple(int(v) for v in value.split(":") if v)
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            elif key == "array_down":
                windows = []
                for token in value.split("+"):
                    array, _, span = token.partition("@")
                    start, _, end = span.partition(":")
                    if not (array and start and end):
                        raise ConfigError(
                            f"array_down window {token!r} must be array@start:end"
                        )
                    windows.append((int(array), float(start), float(end)))
                kwargs[key] = tuple(windows)
            elif key == "corrupt_target":
                kwargs[key] = value
            elif key == "failure_groups":
                groups = []
                for token in value.split("+"):
                    arrays, _, span = token.partition("@")
                    start, _, end = span.partition(":")
                    if not (arrays and start and end):
                        raise ConfigError(
                            f"failure_groups window {token!r} must be"
                            " array:array@start:end"
                        )
                    groups.append(
                        (
                            tuple(int(a) for a in arrays.split(":") if a),
                            float(start),
                            float(end),
                        )
                    )
                kwargs[key] = tuple(groups)
            else:
                raise ConfigError(f"unknown fault-plan key {key!r}")
        except ValueError as error:
            raise ConfigError(
                f"bad fault-plan value {part!r} ({error})"
            ) from error
    return FaultPlan(**kwargs)


def load_fault_plan(spec: str) -> FaultPlan:
    """Resolve a ``--fault-plan`` value: JSON file, inline JSON, or
    ``key=value`` shorthand (``crash_batches=1:4,seed=3``)."""
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            return FaultPlan.from_dict(json.loads(spec))
        except json.JSONDecodeError as error:
            raise ConfigError(f"invalid fault-plan JSON: {error}") from error
    if spec.endswith(".json") or os.path.exists(spec):
        try:
            with open(spec) as handle:
                return FaultPlan.from_dict(json.load(handle))
        except FileNotFoundError as error:
            raise ConfigError(f"fault-plan file not found: {spec}") from error
        except json.JSONDecodeError as error:
            raise ConfigError(
                f"invalid fault-plan JSON in {spec}: {error}"
            ) from error
    return _parse_inline(spec)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How failed batches turn back into queued work.

    ``max_attempts`` is the *total* per-request attempt budget (1 means
    a crashed request fails outright).  Requeue backoff grows
    exponentially with the attempt count and is deadline-aware: a
    request is never parked past the instant its deadline would make
    the retry pointless.  ``recovery_us`` is the quarantine duration
    before a crashed array is health-probed and readmitted to the
    pool.
    """

    max_attempts: int = 3
    backoff_us: float = 200.0
    backoff_multiplier: float = 2.0
    recovery_us: float = 5000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be at least 1")
        if not (math.isfinite(self.backoff_us) and self.backoff_us >= 0):
            raise ConfigError("backoff_us must be finite and non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if not (math.isfinite(self.recovery_us) and self.recovery_us >= 0):
            raise ConfigError("recovery_us must be finite and non-negative")

    def requeue_at_us(self, now_us: float, request) -> float:
        """When a just-crashed request should re-enter its queue."""
        delay = self.backoff_us * self.backoff_multiplier**request.attempts
        at = now_us + delay
        if math.isfinite(request.deadline_us):
            # Waiting past the deadline makes the retry pointless;
            # a request already past it retries immediately (the
            # completion still counts as a miss, not an error).
            at = min(at, max(now_us, request.deadline_us))
        return at

    def describe(self) -> str:
        """Short human-readable policy summary."""
        return (
            f"retry<={self.max_attempts}"
            f"/backoff{self.backoff_us:g}us"
            f"/recover{self.recovery_us:g}us"
        )


class FaultInjector:
    """Deterministic per-placement fault decisions for one run.

    One injector per core: :meth:`decide` is called exactly once per
    placed batch, in placement order, so the ordinal counter and the
    seeded Bernoulli streams advance identically in every driver of the
    same configuration.  The decision the injector makes is stamped on
    the batch; *when* the crash or detection surfaces is the driver's
    business.  The corruption stream is seeded apart from the crash
    stream, so arming one rate never reshuffles the other's draws.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._corrupt_rng = random.Random((plan.seed + 1) * 1_000_003)
        self._crash_batches = frozenset(plan.crash_batches)
        self._crash_requests = frozenset(plan.crash_requests)
        self._corrupt_batches = frozenset(plan.corrupt_batches)
        self.ordinal = 0
        self.crashes = 0
        self.corruptions = 0

    def decide(
        self, array: int, dispatch_us: float, members
    ) -> tuple[bool, CorruptionSpec | None, bool]:
        """Decide the fate of the batch just placed (advances state).

        Returns ``(crash, corruption, correlated)``: whether the batch
        crashes, the :class:`CorruptionSpec` silently corrupting it (a
        crash dominates — a doomed batch never also corrupts), and
        whether the crash came from a correlated ``failure_groups``
        window.
        """
        plan = self.plan
        ordinal = self.ordinal
        self.ordinal += 1
        # The Bernoulli draws happen unconditionally whenever their rate
        # is set, so each random stream depends only on the placement
        # count, never on which earlier batches happened to fault.
        draw = self._rng.random() if plan.crash_rate > 0.0 else 1.0
        corrupt_draw = (
            self._corrupt_rng.random() if plan.corrupt_rate > 0.0 else 1.0
        )
        capped = (
            plan.max_crashes is not None and self.crashes >= plan.max_crashes
        )
        correlated = any(
            array in arrays and start <= dispatch_us < end
            for arrays, start, end in plan.failure_groups
        )
        crash = not capped and (
            ordinal in self._crash_batches
            or any(
                member.index in self._crash_requests and member.attempts == 0
                for member in members
            )
            or any(
                array == down and start <= dispatch_us < end
                for down, start, end in plan.array_down
            )
            or correlated
            or draw < plan.crash_rate
        )
        if crash:
            self.crashes += 1
            return True, None, correlated
        corrupt = (
            ordinal in self._corrupt_batches or corrupt_draw < plan.corrupt_rate
        )
        if not corrupt:
            return False, None, False
        self.corruptions += 1
        spec = CorruptionSpec(
            target=plan.corrupt_target,
            bits=plan.corrupt_bits,
            seed=(plan.seed * 1_000_003 + ordinal * 7_919 + 12_289)
            & 0x7FFFFFFF,
        )
        return False, spec, False

    def should_crash(self, array: int, dispatch_us: float, members) -> bool:
        """Crash-only view of :meth:`decide` (advances the same state)."""
        crash, _, _ = self.decide(array, dispatch_us, members)
        return crash


@dataclasses.dataclass
class FaultStats:
    """Run-level fault accounting, maintained by the serving core.

    The corruption counters split three ways: ``corruptions`` counts
    every silently corrupted placement, ``detected`` the ones the
    integrity layer caught (each becomes a retryable fault), and
    ``corrupted_served`` the *requests* whose corrupted results reached
    the caller undetected — the number the checksum mode drives to
    zero.  ``correlated`` counts crashes caused by a ``failure_groups``
    window; ``canaries`` / ``canary_detected`` account the periodic
    known-golden probe stream.
    """

    crashes: int = 0
    injected: int = 0
    retries: int = 0
    failed: int = 0
    quarantines: int = 0
    recoveries: int = 0
    recovery_total_us: float = 0.0
    recovery_max_us: float = 0.0
    corruptions: int = 0
    detected: int = 0
    corrupted_served: int = 0
    correlated: int = 0
    canaries: int = 0
    canary_detected: int = 0

    @property
    def any(self) -> bool:
        """Whether any fault activity happened at all."""
        return bool(
            self.crashes
            or self.retries
            or self.failed
            or self.corruptions
            or self.canaries
        )

    def to_dict(self) -> dict:
        """JSON-ready counters."""
        return {
            "crashes": self.crashes,
            "injected": self.injected,
            "retries": self.retries,
            "failed": self.failed,
            "quarantines": self.quarantines,
            "recoveries": self.recoveries,
            "recovery_total_us": self.recovery_total_us,
            "recovery_max_us": self.recovery_max_us,
            "corruptions": self.corruptions,
            "detected": self.detected,
            "corrupted_served": self.corrupted_served,
            "correlated": self.correlated,
            "canaries": self.canaries,
            "canary_detected": self.canary_detected,
        }

