"""In-memory spans recorded around public calls, from outside the program.

The benchmark never edits the serving stack: it replaces a bound method
on one object (or a function on a class, for objects it cannot reach)
with a wrapper that records a span and calls the original.  A span is
``(id, name, start_s, end_s, parent_id, info)``: ``parent_id`` is the
enclosing synchronous span on the same thread (-1 at the top), ``info``
carries the request id or batch size the call returned or received.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time


class SpanRecorder:
    """Collects spans from wrapped calls; undoes every wrap on ``restore``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: ``owner.attr`` targets that no longer exist (recorded, not fatal).
        self.skipped: list[str] = []
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, info=None) -> bool:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``info(args, kwargs, result)`` picks the span's info field.  A
        missing target is recorded in :attr:`skipped` and left alone.
        """
        target = getattr(owner, attr, None)
        if target is None:
            label = owner.__name__ if isinstance(owner, type) else type(owner).__name__
            self.skipped.append(f"{label}.{attr}")
            return False
        recorder = self
        if inspect.iscoroutinefunction(target):

            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return await target(*args, **kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = await target(*args, **kwargs)
                    return result
                finally:
                    # Coroutines interleave on one thread, so async spans
                    # are roots; they are joined to their engine spans by
                    # request id, not by nesting.
                    recorder.spans.append(
                        (
                            next(recorder._ids),
                            name,
                            start,
                            time.perf_counter(),
                            -1,
                            None if info is None else info(args, kwargs, result),
                        )
                    )

        else:

            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return target(*args, **kwargs)
                stack = recorder._stack()
                span_id = next(recorder._ids)
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                start = time.perf_counter()
                result = None
                try:
                    result = target(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    recorder.spans.append(
                        (
                            span_id,
                            name,
                            start,
                            end,
                            parent,
                            None if info is None else info(args, kwargs, result),
                        )
                    )

        # What the owner itself holds (a bound method found on the class
        # leaves nothing here, so restoring deletes the wrapper).
        original = owner.__dict__.get(attr)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def select(self, name: str, since: float = 0.0) -> list[tuple]:
        """Spans called ``name`` that started at or after ``since``."""
        return [span for span in self.spans if span[1] == name and span[2] >= since]

    def durations(self, name: str, since: float = 0.0) -> list[float]:
        """Durations in seconds of the spans called ``name``."""
        return [span[3] - span[2] for span in self.select(name, since)]

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (id, name, start,
        end, parent, info), times in seconds of ``time.perf_counter``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\tinfo\n")
            for span_id, name, start, end, parent, info in sorted(self.spans):
                handle.write(
                    f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{info}\n"
                )
