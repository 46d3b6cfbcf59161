"""ABFT-style integrity checking: detect silent data corruption.

Crashes are loud; a flipped bit in a weight tile or an accumulator is
not — the batch completes and returns wrong predictions that would be
served as successes.  This module is the detection side of the
corruption faults a :class:`~repro.serve.faults.FaultPlan` injects:

* :class:`IntegrityPolicy` — the per-server check configuration.
  ``checksum`` arms algorithm-based fault tolerance (ABFT) column
  checksums on every compiled ``GEMM``/``GROUPED_GEMM`` plus a cheap
  per-batch output fingerprint; ``checksum+canary`` adds periodic
  canary probes with known golden outputs.  The verification work is
  priced into the cost model as an explicit overhead knob
  (``integrity=`` on :class:`~repro.serve.costs.ScheduledBatchCost`,
  from the compiled program of any network), so the throughput cost of
  checking is part of every schedule and sweep.
* ABFT helpers — :func:`column_checksums` (the Huang–Abraham column-sum
  invariant ``acc = data @ w  =>  acc @ 1 = data @ (w @ 1)`` holds
  exactly in the accelerator's int64 accumulators) and
  :func:`apply_corruption`, the seeded bit-flipper both the simulator's
  bookkeeping and the live stream executor share, so corrupted numerics
  are bit-identical across drivers.
* :class:`CanaryStream` — placement-count-driven probe requests with
  known golden outputs.  A canary costs nothing in the schedule (probes
  ride along as observability) but catches corruption modes the inline
  checksums cannot see — notably ``output``-target flips *after* the
  last checked GEMM.

Detection is deterministic given the plan and the policy:
``checksum`` catches every ``weight``/``accumulator`` flip (the column
sums are exact integer arithmetic, and a flip's low-16-bit delta can
never cancel), and never catches ``output`` flips — which is exactly
what the no-check-equivalence property test pins down.  A detected
corruption raises :class:`DetectedCorruptionError`, a
:class:`~repro.serve.workers.WorkerCrashError`, so it feeds the
existing retry/requeue/quarantine machinery unchanged.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from repro.errors import ConfigError
from repro.serve.faults import CorruptionSpec, FaultPlan
from repro.serve.workers import WorkerCrashError

#: Check modes a server can arm, in increasing coverage/cost order.
CHECK_MODES = ("none", "checksum", "checksum+canary")

#: Default placements between canary probes when the mode enables them.
DEFAULT_CANARY_EVERY = 16


class DetectedCorruptionError(WorkerCrashError):
    """An integrity check caught corrupted numerics mid-batch.

    Subclassing :class:`WorkerCrashError` means every existing failure
    path — retry, requeue, quarantine, recovery — handles a detection
    exactly like a crash, which is the design: a corrupted array is as
    suspect as a crashed one.
    """


@dataclasses.dataclass(frozen=True)
class IntegrityPolicy:
    """What integrity checking a server runs, and how often canaries fire.

    ``mode`` is one of :data:`CHECK_MODES`; ``canary_every`` is the
    placement period of canary probes per array (only meaningful in
    ``checksum+canary`` mode; 0 picks :data:`DEFAULT_CANARY_EVERY`).
    """

    mode: str = "none"
    canary_every: int = 0

    def __post_init__(self) -> None:
        if self.mode not in CHECK_MODES:
            raise ConfigError(
                f"integrity mode must be one of {CHECK_MODES},"
                f" not {self.mode!r}"
            )
        if self.canary_every < 0:
            raise ConfigError("canary_every must be non-negative")
        if self.canary and self.canary_every == 0:
            object.__setattr__(self, "canary_every", DEFAULT_CANARY_EVERY)

    @property
    def enabled(self) -> bool:
        """Whether any checking is armed at all."""
        return self.mode != "none"

    @property
    def checks(self) -> bool:
        """Whether the ABFT checksum layer verifies every batch."""
        return self.mode in ("checksum", "checksum+canary")

    @property
    def canary(self) -> bool:
        """Whether periodic canary probes run."""
        return self.mode == "checksum+canary"

    def detects(self, target: str) -> bool:
        """Whether this policy catches a corruption of ``target``.

        Deterministic by construction: the column checksums are exact
        int64 arithmetic, so any in-envelope (weight tile/accumulator)
        flip is caught; ``output`` flips happen after the last checked
        GEMM and sail through every inline check.
        """
        return self.checks and target != "output"

    def describe(self) -> str:
        """Short human-readable policy summary."""
        if not self.enabled:
            return "integrity:none"
        if self.canary:
            return f"integrity[{self.mode} every={self.canary_every}]"
        return f"integrity[{self.mode}]"


# ---- ABFT numerics -------------------------------------------------------


def column_checksums(weights: np.ndarray) -> np.ndarray:
    """Column sums over the contraction axis of a weight tile.

    For a batched GEMM tile ``(k, n)`` this is the classic ABFT column
    checksum row ``1ᵀ·W``; grouped tiles ``(..., k, n)`` checksum per
    group.  Computed in int64, so comparison against a stored clean
    checksum is exact.
    """
    return np.asarray(weights, dtype=np.int64).sum(axis=-2)


def output_checksums(acc: np.ndarray) -> np.ndarray:
    """Row sums of an accumulator ``(..., m, n)`` — the output-side
    invariant ``acc @ 1``, equal to ``data @ (w @ 1)`` for a clean
    GEMM and exact in int64."""
    return np.asarray(acc, dtype=np.int64).sum(axis=-1)


def checksums_match(observed: np.ndarray, expected: np.ndarray) -> bool:
    """Exact equality of two checksum vectors."""
    return bool(np.array_equal(observed, expected))


def apply_corruption(tensor: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Return a copy of ``tensor`` with the spec's seeded bit flips.

    One element (chosen by ``spec.seed``) has ``spec.bits`` distinct
    low-order bits XOR-flipped.  Confining all flips to one element of
    the int64 container guarantees a non-zero delta of at most 2¹⁶−1 —
    small enough to stay inside any accumulator format's range, large
    enough that no row/column sum can cancel it — so a single call is
    *always* visible to the checksums over its tensor.
    """
    rng = random.Random(spec.seed)
    # order="C" so reshape(-1) below is a writable view whatever the
    # input tensor's memory layout (a transposed tile would otherwise
    # reshape into a copy and the flip would never land).
    out = np.array(tensor, dtype=np.int64, copy=True, order="C")
    flat = out.reshape(-1)
    index = rng.randrange(flat.size)
    mask = 0
    for bit in rng.sample(range(16), min(int(spec.bits), 16)):
        mask |= 1 << bit
    flat[index] = np.int64(int(flat[index]) ^ mask)
    return out


def batch_fingerprint(predictions: np.ndarray) -> int:
    """Cheap per-batch output fingerprint (order-sensitive int64 fold).

    The last line of defense the checksum mode adds outside the GEMMs:
    two executions of the same batch must fingerprint identically, so a
    re-executed batch can be cross-checked without storing its outputs.
    """
    arr = np.asarray(predictions, dtype=np.int64)
    weights = np.arange(1, arr.size + 1, dtype=np.int64)
    return int((arr.reshape(-1) * weights).sum() & 0x7FFFFFFFFFFFFFFF)


# ---- canary probes -------------------------------------------------------


class CanaryStream:
    """Periodic known-golden probe requests, one stream per server.

    Every ``canary_every``-th placement on an array rides a zero-cost
    canary probe along with it: a known input whose golden output is
    precomputed, so *any* corruption of the probe — including
    ``output``-target flips the inline checksums cannot see — is
    detected by direct comparison.  Whether a probe hits corrupted
    hardware is a seeded draw at the plan's ``corrupt_rate`` from a
    stream independent of both injection streams, so arming canaries
    never perturbs which batches crash or corrupt.

    Probes are placement-count driven, not clock driven, so the
    simulator and the virtual replay fire identical canary sequences.
    """

    def __init__(
        self, plan: FaultPlan, policy: IntegrityPolicy, arrays: int
    ) -> None:
        self.plan = plan
        self.policy = policy
        self.every = policy.canary_every
        self._rng = random.Random((plan.seed + 2) * 1_000_003)
        self._counts: dict[int, int] = {}

    def on_placement(self, array: int, now_us: float, stats, tracer) -> None:
        """Account one placement; maybe fire a probe (advances state)."""
        if self.every <= 0:
            return
        count = self._counts.get(array, 0) + 1
        self._counts[array] = count
        if count % self.every:
            return
        draw = self._rng.random()
        detected = self.plan.corrupt_rate > 0.0 and draw < self.plan.corrupt_rate
        stats.canaries += 1
        if detected:
            stats.canary_detected += 1
        if tracer.enabled:
            tracer.canary_probe(now_us, array, detected)
