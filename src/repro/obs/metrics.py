"""The process-wide counter/timer registry (``repro.obs.metrics``).

Before this module, every subsystem grew its own ad-hoc stat attributes —
``CacheStats`` on the artifact cache, ``ProfilerCacheStats`` on the layer
profiler, bare ``pushed``/``popped`` ints on the event queue — with no way to
see, for one whole run, how much work the process performed across all of
them.  This module centralizes that accounting:

* :class:`Counter` — a monotonically increasing integer.  A counter may have
  a *parent*: incrementing the child also increments the parent, which is how
  per-object stats (one cache instance's hits) roll up into the process-wide
  aggregate (`artifact_cache.hits` across every instance).
* :class:`Timer` — accumulated wall-clock seconds plus an invocation count,
  usable as a context manager (``with timer.time(): ...``).
* :class:`MetricsRegistry` — a namespace of counters and timers keyed by
  dotted name.  :func:`global_registry` returns the process-wide instance;
  subsystems register their aggregates there at import time.

Determinism contract: counter *values* in the global registry are pure
functions of the work the process performed, so two identical runs in fresh
processes produce identical counter deltas.  Timer totals are wall-clock and
therefore machine-dependent; the benchmark harness records both in the
non-gated ``info`` block, never in gated metrics.

Everything here is allocation-free on the hot path (``Counter.add`` is two
integer additions), so always-on counters cost nanoseconds per increment —
the ``sched_sim_xl`` wall-time gate is the regression proof.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, Optional, Union

__all__ = [
    "Counter",
    "Timer",
    "MetricsRegistry",
    "global_registry",
]


class Counter:
    """A monotonic integer counter, optionally rolling up into a parent."""

    __slots__ = ("name", "_value", "_parent")

    def __init__(self, name: str, parent: Optional["Counter"] = None) -> None:
        self.name = name
        self._value = 0
        self._parent = parent

    def add(self, amount: int = 1) -> None:
        """Increment by ``amount`` (and the parent, when one is attached)."""
        self._value += amount
        if self._parent is not None:
            self._parent._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        """Zero this counter (the parent keeps its accumulated total)."""
        self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class _TimerContext:
    """One timed section; records into its timer on exit."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._timer.record(time.perf_counter() - self._start)


class Timer:
    """Accumulated seconds + invocation count for one named operation."""

    __slots__ = ("name", "_count", "_total_s", "_parent")

    def __init__(self, name: str, parent: Optional["Timer"] = None) -> None:
        self.name = name
        self._count = 0
        self._total_s = 0.0
        self._parent = parent

    def time(self) -> _TimerContext:
        """Context manager timing one section: ``with timer.time(): ...``."""
        return _TimerContext(self)

    def record(self, seconds: float) -> None:
        self._count += 1
        self._total_s += seconds
        if self._parent is not None:
            self._parent._count += 1
            self._parent._total_s += seconds

    @property
    def count(self) -> int:
        return self._count

    @property
    def total_s(self) -> float:
        return self._total_s

    def reset(self) -> None:
        self._count = 0
        self._total_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name!r}, count={self._count}, total_s={self._total_s:.6f})"


class MetricsRegistry:
    """A namespace of counters and timers keyed by dotted name.

    ``counter(name)`` / ``timer(name)`` memoize, so every caller naming the
    same metric shares one object — the registered object IS the aggregate.
    ``scoped_counter(name)`` returns a *fresh, unregistered* counter parented
    to the registered one: per-object stats (one cache instance) stay
    per-object while still feeding the process-wide total.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}

    # ------------------------------------------------------------- accessors
    def counter(self, name: str) -> Counter:
        """The registered counter for ``name``, created on first use."""
        found = self._counters.get(name)
        if found is None:
            found = Counter(name)
            self._counters[name] = found
        return found

    def timer(self, name: str) -> Timer:
        """The registered timer for ``name``, created on first use."""
        found = self._timers.get(name)
        if found is None:
            found = Timer(name)
            self._timers[name] = found
        return found

    def scoped_counter(self, name: str) -> Counter:
        """A private counter whose increments also feed ``counter(name)``."""
        return Counter(name, parent=self.counter(name))

    def scoped_timer(self, name: str) -> Timer:
        """A private timer whose recordings also feed ``timer(name)``."""
        return Timer(name, parent=self.timer(name))

    def __iter__(self) -> Iterator[str]:
        yield from sorted(self._counters)
        yield from sorted(self._timers)

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, Union[int, float]]:
        """Current values, flattened to a plain dict.

        Counters appear under their name; timers contribute two keys,
        ``<name>.count`` and ``<name>.total_s``.
        """
        out: Dict[str, Union[int, float]] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._timers):
            timer = self._timers[name]
            out[f"{name}.count"] = timer.count
            out[f"{name}.total_s"] = timer.total_s
        return out

    def delta_since(
        self, before: Dict[str, Union[int, float]]
    ) -> Dict[str, Union[int, float]]:
        """Changes relative to an earlier :meth:`snapshot` (non-zero only).

        This is how the benchmark harness attributes process-wide counter
        traffic to one scenario run: snapshot, run, delta.
        """
        now = self.snapshot()
        out: Dict[str, Union[int, float]] = {}
        for key, value in now.items():
            moved = value - before.get(key, 0)
            if moved:
                out[key] = moved
        return out

    def reset(self) -> None:
        """Zero every registered counter and timer in place.

        Objects survive (module-level handles stay valid); only values reset.
        """
        for counter in self._counters.values():
            counter.reset()
        for timer in self._timers.values():
            timer.reset()


#: The process-wide registry every subsystem's aggregates live in.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry` singleton."""
    return _GLOBAL
