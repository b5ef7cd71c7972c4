"""Mutation-maintained orderings for the scheduler's placement pass.

The event queue is a heap and the GPU free lists are kept sorted (see
:mod:`repro.sched.events`), but the placement pass itself once re-sorted
three populations from scratch at every scheduling point: the pending
queue (``sorted`` per pass), the preemption victim list, and the
re-planning candidates — O(n log n) Python key-function calls *per event*,
ruinous at the ``sched_sim_xl`` scale (thousands of GPUs, tens of
thousands of jobs).

This module replaces those sorts with structures maintained on mutation:

* :class:`SortedJobList` — a list kept sorted under ``bisect.insort``
  discipline.  Keys are computed **once per insertion** (O(log n) search +
  one C-level ``insert``) and removal is an O(log n) lookup of the stored
  key.  Iteration yields jobs in key order for free.
* :class:`PendingQueue` — a :class:`SortedJobList` keyed by the scheduling
  policy's ``sort_key``, with a maintained count of waiting foreground jobs.
* :class:`OpenSlotIndex` — the open collocation slots of the running
  foreground jobs in background-pick order, so a background placement reads
  one entry instead of scanning every running job's GPUs.

Correctness relies on a property the scheduler enforces: a job's key never
changes *while it is inside* a structure.  Keys derived from
``remaining_gpu_seconds`` only move when ``_advance`` updates the job's
progress, and the scheduler re-keys the affected entry right there; keys
derived from policy ``sort_key`` are static for the built-in policies while
a job waits (policies whose keys depend on the current time must set
``dynamic_priority`` and are re-keyed every pass).  Ties are broken by a
monotonic insertion sequence, reproducing the stable-sort semantics of the
code this replaces.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SortedJobList", "PendingQueue", "OpenSlotIndex"]


class SortedJobList:
    """Items kept sorted by a caller-supplied tuple key, stable on ties.

    Items must expose a ``name`` attribute unique within the structure (the
    scheduler's per-run job states do).  The stored key is the caller's key
    extended with a monotonic sequence number, so equal caller keys order by
    insertion — exactly what a stable sort over an append-ordered list
    produced before.
    """

    def __init__(self) -> None:
        self._keys: List[Tuple] = []
        self._items: List = []
        self._key_of: Dict[str, Tuple] = {}
        # Explicit int (not itertools.count) so snapshot/restore can resume
        # the tie-break numbering exactly where the original run stood.
        self._next_seq = 0

    def add(self, item, key: Tuple) -> None:
        if item.name in self._key_of:
            raise ValueError(f"job {item.name!r} already tracked")
        full = tuple(key) + (self._next_seq,)
        self._next_seq += 1
        index = bisect.bisect_left(self._keys, full)
        self._keys.insert(index, full)
        self._items.insert(index, item)
        self._key_of[item.name] = full

    def remove(self, item) -> None:
        full = self._key_of.pop(item.name)
        index = bisect.bisect_left(self._keys, full)
        # The sequence suffix makes stored keys unique, so bisect lands
        # exactly on the entry.
        del self._keys[index]
        del self._items[index]

    def discard(self, item) -> None:
        """Remove an item if it is present."""
        if item.name in self._key_of:
            self.remove(item)

    def rekey(self, item, key: Tuple) -> None:
        """Move an item to the position its new key dictates."""
        self.remove(item)
        self.add(item, key)

    def __contains__(self, item) -> bool:
        return item.name in self._key_of

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def clear(self) -> None:
        self._keys.clear()
        self._items.clear()
        self._key_of.clear()

    # ------------------------------------------------------- snapshot/restore
    def dump(self) -> Dict[str, Any]:
        """Serializable capture: entries in key order plus the seq counter.

        Stored keys are tuples of floats/ints (policy keys extended with the
        tie-break seq); JSON round-trips them as lists whose elementwise
        comparison semantics match the originals, so :meth:`load` can insert
        them back verbatim.
        """
        return {
            "entries": [
                [item.name, list(self._key_of[item.name])] for item in self._items
            ],
            "next_seq": self._next_seq,
        }

    def load(self, payload: Dict[str, Any], resolve: Callable[[str], Any]) -> None:
        """Rebuild from :meth:`dump` output; ``resolve`` maps names to items.

        Entries were dumped in sorted order with their *full* keys (tie-break
        seq included), so they are appended directly — no re-keying, no
        re-sorting — and future insertions interleave exactly as they would
        have in the original run.
        """
        self.clear()
        for name, key in payload["entries"]:
            full = tuple(key)
            self._keys.append(full)
            self._items.append(resolve(name))
            self._key_of[name] = full
        self._next_seq = payload["next_seq"]


class PendingQueue:
    """The pending jobs, kept in policy order as they come and go.

    Jobs are keyed by ``policy.sort_key(job, now)`` at insertion time.  For
    the built-in policies that key is frozen while the job waits (arrival
    time and order never change; ``remaining_gpu_seconds`` only changes
    while *running*, and re-entry recomputes the key), so iteration order is
    identical to the per-pass ``sorted(pending, key=...)`` it replaces.
    Policies with time-varying keys (aging, deadlines) must set
    ``dynamic_priority = True``; the scheduler then calls :meth:`resort`
    before each pass, restoring the previous full-sort behaviour.
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self._jobs = SortedJobList()
        self.foreground_waiting = 0

    def add(self, state, now: float) -> None:
        self._jobs.add(state, self._policy.sort_key(state, now))
        if state.is_foreground:
            self.foreground_waiting += 1

    def remove(self, state) -> None:
        self._jobs.remove(state)
        if state.is_foreground:
            self.foreground_waiting -= 1

    def resort(self, now: float) -> None:
        """Recompute every key at ``now`` (dynamic-priority policies only)."""
        jobs = list(self._jobs)
        self._jobs.clear()
        for state in jobs:
            self._jobs.add(state, self._policy.sort_key(state, now))

    def __contains__(self, state) -> bool:
        return state in self._jobs

    def __iter__(self) -> Iterator:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    # ------------------------------------------------------- snapshot/restore
    def dump(self) -> Dict[str, Any]:
        """Serializable capture of the queue (policy itself is not captured)."""
        return {
            "jobs": self._jobs.dump(),
            "foreground_waiting": self.foreground_waiting,
        }

    def load(self, payload: Dict[str, Any], resolve: Callable[[str], Any]) -> None:
        """Rebuild from :meth:`dump`; the policy must match the dumping run."""
        self._jobs.load(payload["jobs"], resolve)
        self.foreground_waiting = payload["foreground_waiting"]


#: An open slot's pick key: ``(busy fraction, host job order, GPU index)``.
SlotKey = Tuple[float, int, int]


class OpenSlotIndex:
    """Open collocation slots of the running foreground jobs, in pick order.

    A slot is one GPU of a running foreground job.  It is *open* when it
    hosts no guest and a background job beside it would keep at least
    ``min_efficiency`` of its isolated throughput.  Background placement
    takes the open slot minimising ``(busy, order, index)``; :meth:`first`
    returns it in O(1).

    The index has two levels.  Each tracked job's eligible slots, ranked by
    ``(busy, index)``, are a pure function of its ``busy_fractions`` list
    and are memoized per list object: the scheduler shares one list among
    every job running the same plan, so re-planning re-ranks nothing.  A
    sorted list then holds one key per job, its best open slot.  Within one
    job ``order`` is fixed, so the least of those keys is the least open
    slot overall.  Every update (:meth:`open`, :meth:`close`,
    :meth:`refresh`) costs O(log jobs) plus the guests the job's best slot
    skips.

    The efficiency threshold and the collocation efficiencies are read once:
    they are fixed for the run the index belongs to.
    """

    def __init__(
        self, idle_efficiency: float, busy_efficiency: float, min_efficiency: float
    ) -> None:
        self._idle_efficiency = idle_efficiency
        self._busy_efficiency = busy_efficiency
        self._min_efficiency = min_efficiency
        # Best open slot of every tracked job that has one, sorted.
        self._keys: List[SlotKey] = []
        # job order -> [job, ranked eligible (busy, index) slots, best key].
        self._jobs: Dict[int, list] = {}
        # id(busy_fractions) -> (the list, its ranked eligible slots); the
        # list is held so its id cannot be reused while the entry lives.
        self._ranked: Dict[int, Tuple[List[float], Tuple[Tuple[float, int], ...]]] = {}

    def _rank(self, fractions: List[float]) -> Tuple[Tuple[float, int], ...]:
        memo = self._ranked.get(id(fractions))
        if memo is None:
            # Expected guest efficiency, in the same float arithmetic as the
            # scheduler's ``_current_rate``.
            eligible = [
                (busy, index)
                for index, busy in enumerate(fractions)
                if not (
                    (1.0 - busy) * self._idle_efficiency
                    + busy * self._busy_efficiency
                    < self._min_efficiency
                )
            ]
            memo = self._ranked[id(fractions)] = (fractions, tuple(sorted(eligible)))
        return memo[1]

    def _place(self, entry: list) -> None:
        """Re-derive a tracked job's best open slot and re-file its key."""
        job, ranked, old = entry
        hosted = job.hosted
        key: Optional[SlotKey] = None
        for busy, index in ranked:
            if index not in hosted:
                key = (busy, job.order, index)
                break
        if key == old:
            return
        if old is not None:
            del self._keys[bisect.bisect_left(self._keys, old)]
        if key is not None:
            bisect.insort(self._keys, key)
        entry[2] = key

    def open(self, job) -> None:
        """Track a job that started, or re-rank one whose plan changed."""
        entry = self._jobs.get(job.order)
        ranked = self._rank(job.busy_fractions)
        if entry is None:
            entry = self._jobs[job.order] = [job, ranked, None]
        else:
            entry[1] = ranked
        self._place(entry)

    def close(self, job) -> None:
        """Stop tracking a job that finished, failed or was cancelled."""
        entry = self._jobs.pop(job.order, None)
        if entry is not None and entry[2] is not None:
            del self._keys[bisect.bisect_left(self._keys, entry[2])]

    def refresh(self, job) -> None:
        """A guest attached to, or left, the tracked ``job``."""
        self._place(self._jobs[job.order])

    def first(self) -> Optional[Tuple[Any, int]]:
        """``(job, GPU index)`` of the least open slot, or ``None``."""
        if not self._keys:
            return None
        _, order, index = self._keys[0]
        return self._jobs[order][0], index

    def open_slots(self) -> List[SlotKey]:
        """Every open slot's key, sorted (integrity checks in tests)."""
        return sorted(
            (busy, job.order, index)
            for job, ranked, _ in self._jobs.values()
            for busy, index in ranked
            if index not in job.hosted
        )
