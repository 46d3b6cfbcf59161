"""Time sources for the serving stack: one protocol, two implementations.

The serving core (:mod:`repro.serve.core`) is time-source-agnostic —
every entry point takes an explicit ``now_us`` — so *who supplies the
time* is the only difference between the discrete-event simulator and
the live runtime:

* :class:`VirtualClock` — simulation time.  Never advances on its own;
  the event loop moves it to each event's timestamp.  Deterministic, so
  a replayed trace produces bit-identical reports.
* :class:`MonotonicClock` — wall-clock time from
  :func:`time.monotonic_ns`, anchored at construction so timestamps are
  microseconds since the server started (the same origin convention the
  simulator uses for trace time).

Both express time as **microseconds** (float), matching every other
timestamp in :mod:`repro.serve`.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError


@runtime_checkable
class Clock(Protocol):
    """Anything that can answer "what time is it" in microseconds."""

    def now_us(self) -> float:
        """Current time in microseconds since this clock's origin."""
        ...


class VirtualClock:
    """Simulation clock: advances only when told to.

    ``advance_to`` is monotonic — moving backwards raises, because a
    discrete-event loop that pops a past timestamp has a heap-ordering
    bug that silent clamping would mask.
    """

    def __init__(self, start_us: float = 0.0) -> None:
        self._now_us = float(start_us)

    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self._now_us

    def advance_to(self, now_us: float) -> None:
        """Move the clock forward to ``now_us`` (never backwards)."""
        if now_us < self._now_us:
            raise ConfigError(
                f"virtual clock cannot move backwards"
                f" ({now_us} < {self._now_us})"
            )
        self._now_us = float(now_us)


class MonotonicClock:
    """Wall clock in microseconds since construction.

    Backed by :func:`time.monotonic_ns` (immune to wall-clock steps);
    the origin is captured at construction so live timestamps are small
    and directly comparable to simulator trace time.
    """

    def __init__(self) -> None:
        self._origin_ns = time.monotonic_ns()

    def now_us(self) -> float:
        """Microseconds elapsed since this clock was created."""
        return (time.monotonic_ns() - self._origin_ns) / 1e3
