"""Discrete-event core of the multi-tenant cluster scheduler.

The scheduler is a discrete-event simulator in the classic event-queue style:
every state change (a job arriving, a job finishing) is an :class:`Event`
with a firing time, and the simulation advances by popping the earliest event
from an :class:`EventQueue` and reacting to it.

:class:`Event` is a named tuple whose first two fields are ``(time, seq)``,
so built-in tuple comparison (run in C by ``heapq`` and ``sorted``) is the
event order: earliest time first, simultaneous events in insertion order.
``seq`` comes from a per-queue monotonic counter, so no two events of one
queue share ``(time, seq)`` and comparison never reaches the later fields —
tuple order is a *strict total order*.  Crash-safe snapshots rely on that:
:mod:`repro.sched.snapshot` serializes the heap as its sorted event list (a
canonical form independent of the heap's internal array layout) and restores
it bit-compatibly, because a heap's extraction sequence is a pure function of
the total order, never of insertion history.  ``push`` rejects NaN times,
which would break the order.

Finish events are *lazily invalidated*: re-planning or preempting a job bumps
the job's version counter instead of searching the heap, and stale events are
discarded when popped.  This keeps re-planning O(log n) per change.

:class:`GpuPool` holds the cluster's free GPUs as a sorted list of ids:
placements take the lowest ids with one slice, and releases append the freed
ids and call ``list.sort``, which finds the free list as one sorted run and
merges the freed ids into it in C.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

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


class Event(NamedTuple):
    """One scheduled state change, ordered by ``(time, seq)``.

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
        if not time >= 0:  # also rejects NaN, which has no place in the order
            raise ValueError(f"event time must be non-negative, got {time}")
        # ``_make`` skips the per-field argument binding of ``Event(...)``.
        event = Event._make((time, self._next_seq, kind, job_name, version, host))
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
        order of :class:`Event` tuples — so two queues holding the same
        events always serialize identically, whatever their internal array
        layout.  ``pushed``/``popped`` travel along because ``popped`` is the
        run's deterministic op count (``ScheduleResult.events_processed``);
        a restored run must keep counting from where the original stood.
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
            Event(time, seq, EventKind(kind), job_name, version, host)
            for time, seq, kind, job_name, version, host in payload["events"]
        ]
        heapq.heapify(self._heap)
        self._next_seq = payload["next_seq"]
        self._pushed.add(payload["pushed"] - self._pushed.value)
        self._popped.add(payload["popped"] - self._popped.value)


class GpuPool:
    """The cluster's free GPUs, kept as a sorted list of device ids.

    Placements always take the lowest-numbered free GPUs (which keeps runs
    deterministic): ``take`` slices them off the front, and ``release``
    appends the freed ids and re-sorts, which Timsort does as a merge into
    the existing sorted run.  Both run in C, with no Python-level work per
    id.
    """

    def __init__(self, gpu_ids: Iterable[int] = ()) -> None:
        self._ids = sorted(gpu_ids)
        self._takes = _POOL_TAKES
        self._releases = _POOL_RELEASES

    def take(self, count: int) -> List[int]:
        """Remove and return the ``count`` lowest free GPU ids."""
        ids = self._ids
        if not 0 <= count <= len(ids):
            raise ValueError(f"cannot take {count} GPUs from a pool of {len(ids)}")
        self._takes.add(1)
        taken = ids[:count]
        del ids[:count]
        return taken

    def release(self, gpu_ids: Iterable[int]) -> None:
        """Return GPUs to the pool."""
        self._releases.add(1)
        self._ids.extend(gpu_ids)
        self._ids.sort()

    def remove(self, gpu_ids: Iterable[int]) -> List[int]:
        """Take specific GPUs out of the pool (those present), sorted.

        Used by node-failure handling: a failed host's *free* GPUs leave
        the pool immediately (its busy GPUs are reclaimed when their
        evicted jobs release them).  Ids not currently free are ignored.
        """
        targets = set(gpu_ids)
        removed = [g for g in self._ids if g in targets]
        if removed:
            self._ids = [g for g in self._ids if g not in targets]
        return removed

    def ids(self) -> List[int]:
        """Sorted ids of every free GPU (a copy; for snapshots and checks)."""
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)
