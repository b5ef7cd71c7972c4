"""Host-speed-scaled timing of a measured phase.

On a shared host the CPU's speed changes by up to 3x within seconds, as
other tenants come and go.  A :class:`Meter` therefore cuts a measured phase
into segments of about ``SEGMENT_S`` and times a small fixed pure-Python
kernel, :func:`reference_s`, between every two segments.  The time each
segment spends on the CPU is scaled by ``REFERENCE_S`` over the median of
the kernel times nearest to it, i.e. to a host on which the kernel takes
``REFERENCE_S``.  The kernel
calls no program code, so a change to the program cannot move it, and
scaling cannot hide a gain or a loss.  Times outside the segments (the
kernel runs themselves) are not counted.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter
_cpu = time.process_time

#: Kernel time of the reference host; it took 1.4 to 3 ms on the 2-core
#: Xeon development container.
REFERENCE_S = 0.002
#: Segment length: far below the seconds over which host speed drifts.
SEGMENT_S = 0.05
#: A segment is scaled by the median of the ``2 * WINDOW`` kernel times
#: nearest to it, so one disturbed kernel run does not move it.
WINDOW = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


_rng = random.Random(7)
_ITEMS = [_Item(i, _rng.random()) for i in range(2000)]
#: 400k floats (about 13 MB with their list), read at random places: a
#: working set past the private caches, as the program's heap is.
_FLOATS = [_rng.random() for _ in range(400_000)]
_PROBES = [_rng.randrange(len(_FLOATS)) for _ in range(3_000)]


def _value(item: _Item) -> float:
    return item.value


def reference_s() -> float:
    """Time the kernel, after one untimed run that warms the caches.

    The warm-up makes the timed run independent of how much of the cache
    the program evicted just before, so only the host moves it.
    """
    _kernel()
    begin = _now()
    _kernel()
    return _now() - begin


def _kernel() -> None:
    """Heap, dict, attribute and sort traffic over 2000 objects, then
    random reads over a large array.

    That is the kind of work the scheduler does.  Cache contention from
    other tenants slows the program more than the cache-resident first
    half, and less than the random reads.  The mix is measured: in
    two-minute series of passes of each workload on the development
    container, the per-pass spread left after scaling was least, on all
    four, with the reads weighted a quarter of their time at 12k reads,
    i.e. 3000 reads.  The kernel allocates only three containers, so it
    seldom sets off a garbage collection.
    """
    heap, table = [], {}
    for item in _ITEMS:
        heapq.heappush(heap, item.value)
        table[item.value] = item.key
    while heap:
        del table[heapq.heappop(heap)]
    sorted(_ITEMS, key=_value)
    floats, total = _FLOATS, 0.0
    for index in _PROBES:
        total += floats[index]


def timed_scaled(fn: Callable[[], object]) -> Tuple[float, float, object]:
    """Run ``fn`` once, between two medians of five kernel times.

    For a call that cannot be cut into segments (a set-up).  Returns the
    time as measured, the time scaled to the reference host, and the value
    ``fn`` returned.
    """
    before = statistics.median(reference_s() for _ in range(5))
    begin, begin_cpu = _now(), _cpu()
    value = fn()
    raw, cpu = _now() - begin, _cpu() - begin_cpu
    after = statistics.median(reference_s() for _ in range(5))
    return raw, _scaled(raw, cpu, 2 * REFERENCE_S / (before + after)), value


def _scaled(wall: float, cpu: float, scale: float) -> float:
    """Scale the time spent on the CPU only.

    The kernel gives the CPU's speed; time off the CPU (waiting for an
    fsync, about a seventh of ``service_durable``) does not follow it.
    """
    on_cpu = min(cpu, wall)
    return on_cpu * scale + (wall - on_cpu)


class Meter:
    """Time one measured phase in scaled segments.

    Call :meth:`lap` between units of work (it closes a segment once
    ``SEGMENT_S`` has passed), :meth:`add` to count the time of a named
    part inside the current segment, and :meth:`stop` at the end.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: Named parts, as measured and scaled.
        self.raw_parts: Dict[str, float] = defaultdict(float)
        self.scaled_parts: Dict[str, float] = defaultdict(float)
        #: (wall, CPU time, parts) of each closed segment.
        self._segments: List[Tuple[float, float, Dict[str, float]]] = []
        self._references = [reference_s()]
        self._parts: Dict[str, float] = defaultdict(float)
        self._start, self._start_cpu = _now(), _cpu()

    @property
    def segments(self) -> int:
        return len(self._segments)

    def add(self, name: str, seconds: float) -> None:
        self._parts[name] += seconds

    def lap(self, now: Optional[float] = None) -> None:
        """Close the segment if it has run ``SEGMENT_S``; ``now`` saves a clock read."""
        if now is None:
            now = _now()
        if now - self._start >= SEGMENT_S:
            self._close(now)

    def stop(self) -> "Meter":
        """Close the last segment and scale every segment."""
        self._close(_now())
        refs = self._references
        for i, (wall, cpu, parts) in enumerate(self._segments):
            window = refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
            scaled = _scaled(wall, cpu, REFERENCE_S / statistics.median(window))
            self.raw_s += wall
            self.scaled_s += scaled
            for name, seconds in parts.items():
                self.raw_parts[name] += seconds
                self.scaled_parts[name] += seconds * scaled / wall
        return self

    def _close(self, now: float) -> None:
        self._segments.append((now - self._start, _cpu() - self._start_cpu, self._parts))
        self._parts = defaultdict(float)
        self._references.append(reference_s())
        self._start, self._start_cpu = _now(), _cpu()
