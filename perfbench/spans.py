"""Self-time spans around public calls into the program's layers.

A :class:`SpanRecorder` keeps one stack of open spans.  Each span measures
its wall time and subtracts the time of the spans opened inside it, so
``self_s[name]`` is the time spent in that layer's own code.  Spans are
kept in memory as per-name totals and duration samples.

:class:`Patches` installs the wrappers on classes, instances or modules and
takes them off again, so a traced and an untraced pass can share a process.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter
_MISSING = object()


class SpanRecorder:
    """Per-name self time, call count and duration samples."""

    def __init__(self) -> None:
        self._stack: List[float] = []  # child time of each open span
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Self time split further (e.g. ``engine.step.finish``) and other
        #: per-call tallies (bytes written); never part of the attributed total.
        self.breakdown: Dict[str, float] = defaultdict(float)

    def open(self) -> float:
        self._stack.append(0.0)
        return _now()

    def close(self, name: str, start: float) -> float:
        """Close the innermost span; returns its self time."""
        duration = _now() - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        own = duration - child
        self.self_s[name] += own
        self.count[name] += 1
        self.samples[name].append(duration)
        return own

    def attributed_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())

    def take(self) -> "SpanRecorder":
        """Hand over what was recorded so far and start empty."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        done = SpanRecorder()
        done.self_s, self.self_s = self.self_s, defaultdict(float)
        done.count, self.count = self.count, defaultdict(int)
        done.samples, self.samples = self.samples, defaultdict(list)
        done.breakdown, self.breakdown = self.breakdown, defaultdict(float)
        return done


After = Optional[Callable[[SpanRecorder, Any, float], None]]


def traced(recorder: SpanRecorder, name: str, fn: Callable, after: After = None):
    """Wrap ``fn`` (plain or coroutine function) in a span called ``name``.

    ``after(recorder, result, self_s)`` runs once the span has closed, to
    attribute the span further from what the call returned.
    """
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            start = recorder.open()
            try:
                result = await fn(*args, **kwargs)
            except BaseException:
                recorder.close(name, start)
                raise
            own = recorder.close(name, start)
            if after is not None:
                after(recorder, result, own)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = recorder.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(name, start)
            raise
        own = recorder.close(name, start)
        if after is not None:
            after(recorder, result, own)
        return result

    return wrapper


class Patches:
    """Span wrappers installed on attributes, removed in reverse order."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, after: After = None) -> None:
        """Replace ``owner.attr`` (class, instance or module) by a traced copy."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced(self.recorder, name, getattr(owner, attr), after))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()
