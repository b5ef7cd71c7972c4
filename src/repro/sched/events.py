"""Discrete-event core of the multi-tenant cluster scheduler.

The scheduler is a discrete-event simulator in the classic event-queue style:
every state change (a job arriving, a job finishing) is an :class:`Event`
with a firing time, and the simulation advances by popping the earliest event
from an :class:`EventQueue` and reacting to it.  Events are totally ordered
by ``(time, seq)`` so simultaneous events resolve deterministically in
insertion order, which keeps whole simulations reproducible under a fixed
trace seed.

Both containers here obey strict heap discipline: all mutations are
``heappush``/``heappop`` (O(log n)), never sort-on-insert.  Events implement
``__lt__`` on ``(time, seq)`` and are stored in the heap directly, avoiding a
wrapper-tuple allocation per push.  :class:`GpuPool` applies the same
discipline to the cluster's free-GPU set, which the scheduler previously
re-sorted on every placement.

Finish events are *lazily invalidated*: re-planning or preempting a job bumps
the job's version counter instead of searching the heap, and stale events are
discarded when popped.  This keeps re-planning O(log n) per change.

**Total-order audit** (crash-safe snapshots rely on it): ``seq`` is assigned
from a per-queue monotonic counter, so no two events of one queue ever share
``(time, seq)`` — ``Event.__lt__`` is a *strict total order* with no
equal-priority ambiguity left for heap internals to break arbitrarily.  That
is what lets :mod:`repro.sched.snapshot` serialize the heap as its sorted
event list (a canonical form independent of the heap's internal array
layout) and restore it bit-compatibly: the extraction sequence of a heap is
a pure function of the total order, never of insertion history.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterable, List, Optional

from ..obs.metrics import global_registry

__all__ = ["EventKind", "Event", "EventQueue", "GpuPool"]

# Process-wide aggregates for GPU free-list traffic; fetched once at import
# so the hot path pays a single attribute load + integer add per operation.
# Both count calls, not GPUs: one ``take`` or ``release`` moves any number
# of ids (``FleetPool.release`` makes one call per pool it returns GPUs to).
_POOL_TAKES = global_registry().counter("sched.gpu_pool.takes")
_POOL_RELEASES = global_registry().counter("sched.gpu_pool.releases")


class EventKind(str, Enum):
    """What happened at an event's firing time."""

    JOB_ARRIVAL = "arrival"
    JOB_FINISH = "finish"
    NODE_FAILURE = "node-failure"
    NODE_RECOVERY = "node-recovery"


@dataclass(frozen=True)
class Event:
    """One scheduled state change.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the event fires.
    seq:
        Monotonic sequence number; ties on ``time`` resolve in push order.
    kind:
        Arrival, finish, node failure, or node recovery.
    job_name:
        Name of the job the event refers to (empty for node events).
    version:
        For finish events, the job-state version the event was scheduled
        against.  A mismatch when popped means the job was re-planned or
        preempted in the meantime and the event is stale.
    host:
        For node failure/recovery events, the fleet host id going down or
        coming back (``-1`` for job events).
    """

    time: float
    seq: int
    kind: EventKind
    job_name: str
    version: int = 0
    host: int = -1

    def __lt__(self, other: "Event") -> bool:
        # seq is unique per queue, so (time, seq) is a strict total order.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class EventQueue:
    """Min-heap of events ordered by ``(time, seq)``.

    The queue counts its pushes and pops; ``popped`` is the number of events
    the simulation actually processed — a deterministic op count the
    benchmark harness reports for scheduler scenarios.  The counts live in
    per-queue scoped counters that roll up into the process-wide
    ``sched.heap.pushes`` / ``sched.heap.pops`` aggregates.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        # Explicit int (not itertools.count) so snapshot/restore can capture
        # and resume the exact sequence numbering mid-run.
        self._next_seq = 0
        registry = global_registry()
        self._pushed = registry.scoped_counter("sched.heap.pushes")
        self._popped = registry.scoped_counter("sched.heap.pops")

    @property
    def pushed(self) -> int:
        """Events scheduled on this queue since construction."""
        return self._pushed.value

    @property
    def popped(self) -> int:
        """Events this queue has handed to the simulation."""
        return self._popped.value

    def push(
        self,
        time: float,
        kind: EventKind,
        job_name: str,
        version: int = 0,
        host: int = -1,
    ) -> Event:
        """Schedule an event and return it."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(
            time=time,
            seq=self._next_seq,
            kind=kind,
            job_name=job_name,
            version=version,
            host=host,
        )
        self._next_seq += 1
        heapq.heappush(self._heap, event)
        self._pushed.add(1)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        self._popped.add(1)
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest event, or ``None`` when empty."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    # ------------------------------------------------------- snapshot/restore
    def snapshot_state(self) -> Dict[str, Any]:
        """Canonical capture of the queue: sorted events + counter state.

        The heap is serialized in ``(time, seq)`` order — the strict total
        order ``__lt__`` implements — so two queues holding the same events
        always serialize identically, whatever their internal array layout.
        ``pushed``/``popped`` travel along because ``popped`` is the run's
        deterministic op count (``ScheduleResult.events_processed``); a
        restored run must keep counting from where the original stood.
        """
        events = sorted(self._heap)
        return {
            "events": [
                [e.time, e.seq, e.kind.value, e.job_name, e.version, e.host]
                for e in events
            ],
            "next_seq": self._next_seq,
            "pushed": self._pushed.value,
            "popped": self._popped.value,
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Rebuild this queue from :meth:`snapshot_state` output.

        A list sorted by ``(time, seq)`` already satisfies the heap
        invariant, so restoration is O(n); ``heapify`` is kept as a guard
        against hand-edited payloads.
        """
        self._heap = [
            Event(
                time=row[0],
                seq=row[1],
                kind=EventKind(row[2]),
                job_name=row[3],
                version=row[4],
                host=row[5],
            )
            for row in payload["events"]
        ]
        heapq.heapify(self._heap)
        self._next_seq = payload["next_seq"]
        self._pushed.add(payload["pushed"] - self._pushed.value)
        self._popped.add(payload["popped"] - self._popped.value)


class GpuPool:
    """The cluster's free GPUs, kept as a min-heap of device ids.

    Placements always take the lowest-numbered free GPUs (which keeps runs
    deterministic), so the pool is exactly a priority queue: ``take`` pops
    ``count`` ids in O(count · log n) and ``release`` pushes each freed id
    back in O(log n) — replacing the previous list that was re-sorted on
    every take.
    """

    def __init__(self, gpu_ids: Iterable[int] = ()) -> None:
        self._heap = list(gpu_ids)
        heapq.heapify(self._heap)
        self._takes = _POOL_TAKES
        self._releases = _POOL_RELEASES

    def take(self, count: int) -> List[int]:
        """Remove and return the ``count`` lowest free GPU ids."""
        if count > len(self._heap):
            raise ValueError(
                f"cannot take {count} GPUs from a pool of {len(self._heap)}"
            )
        self._takes.add(1)
        return [heapq.heappop(self._heap) for _ in range(count)]

    def release(self, gpu_ids: Iterable[int]) -> None:
        """Return GPUs to the pool."""
        self._releases.add(1)
        for gpu_id in gpu_ids:
            heapq.heappush(self._heap, gpu_id)

    def remove(self, gpu_ids: Iterable[int]) -> List[int]:
        """Take specific GPUs out of the pool (those present), sorted.

        Used by node-failure handling: a failed host's *free* GPUs leave
        the pool immediately (its busy GPUs are reclaimed when their
        evicted jobs release them).  Ids not currently free are ignored.
        Failures are rare, so the O(n) rebuild is acceptable — every other
        mutation keeps strict heap discipline.
        """
        targets = set(gpu_ids)
        removed = sorted(g for g in self._heap if g in targets)
        if removed:
            self._heap = [g for g in self._heap if g not in targets]
            heapq.heapify(self._heap)
        return removed

    def ids(self) -> List[int]:
        """Sorted ids of every free GPU (for integrity checks)."""
        return sorted(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
