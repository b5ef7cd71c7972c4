"""Crash-safe capture and restore of a live :class:`SchedulerEngine`.

:class:`EngineSnapshot` serializes *everything* that determines the rest of
a run — the job-state table, the event heap (in its canonical sorted order,
see the total-order audit in :mod:`repro.sched.events`), the per-pool free
lists and down-host bookkeeping, the pending/ordering structures with their
tie-break counters, the completion records, and the engine clocks — as one
canonical-JSON document.  Restoring it into a *fresh* engine (same fleet,
same policy, same planner/profiler configuration — all three are verified)
and continuing yields the exact event history of the uninterrupted run:
``result_fingerprint`` parity at any event boundary, which the property
tests assert and the crash harness in :mod:`repro.serve.chaos` relies on.

A job's row is generated from the field lists ``_JobState`` declares
once (see :class:`~repro.sched.engine._JobState`): its trace, every
``PERSISTED`` field as it is, and the ``LINKS`` (collocation references)
by job name; the ``DERIVED`` fields are rebuilt on restore.  A job's
installed :class:`~repro.core.planner.plan.TrainingPlan` is not a field:
the engine keeps only the scalars the simulation reads from it
(``base_iter_time``, ``work_per_iteration``, ``busy_fractions``,
``width``), and those are persisted.

Derived caches (plan cache, graph cache, iso-time cache, plan occupancy),
the open-collocation-slot index and the expansion frontier with its
per-job priced widths are deliberately not captured.  The index and the
frontier are rebuilt from the restored running foreground jobs, with
nothing priced yet (the expand pass re-prices on demand and makes the
same decisions).  The caches are pure functions of the scheduler's
configuration; the restored run recomputes them on demand, and the
snapshot *verifies* it is being applied under the same configuration by
recomputing each job's ``iso_iter_time`` and comparing exactly.

The payload is versioned (``schema``) and fingerprinted
(:func:`~repro.cache.fingerprint.snapshot_fingerprint`), so persisted
snapshots are content-addressable and corruption is detectable before a
single field is applied.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from itertools import islice
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..cache.fingerprint import (
    canonical_json,
    fleet_fingerprint,
    snapshot_fingerprint,
)
from ..cluster.job import JobKind
from .engine import _CANCELLED, _DONE, _PENDING, _RUNNING, _JobState
from .metrics import JobRecord
from .ordering import SortedJobList
from .traces import TraceJob

__all__ = [
    "EngineSnapshot",
    "RECORD_FIELDS",
    "SNAPSHOT_SCHEMA",
    "dec_float",
    "dump_record",
    "dump_trace_job",
    "enc_float",
    "load_record",
    "load_trace_job",
]

#: Bumped whenever the payload layout changes; restore rejects other schemas.
SNAPSHOT_SCHEMA = 1

#: The ``guest_order`` row of a job that has hosted no guest since its last
#: placement.
_EMPTY_GUEST_ORDER = SortedJobList().dump()

# Restore maps status strings back onto the engine's module-level constants:
# the arrival handler tests ``status is not _PENDING`` by identity, and
# strings parsed from JSON are not interned.
_STATUSES = {status: status for status in (_PENDING, _RUNNING, _DONE, _CANCELLED)}

#: ``EngineSnapshot.capture``'s default: no row arrives already encoded.
_NO_ROWS: Mapping[str, bytes] = MappingProxyType({})

#: A job row's ``_JobState.PERSISTED`` values, read from a state and a row.
_read_persisted = attrgetter(*_JobState.PERSISTED)
_row_persisted = itemgetter(*_JobState.PERSISTED)


def enc_float(value: float) -> Any:
    """Encode a float for canonical JSON; infinities get a named sentinel."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def dec_float(value: Any) -> float:
    """Inverse of :func:`enc_float`."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


def dump_trace_job(job: TraceJob) -> Dict[str, Any]:
    """A trace job as a canonical-JSON row."""
    return {
        "name": job.name,
        "model": job.model,
        "global_batch": job.global_batch,
        "arrival_time": job.arrival_time,
        "iterations": job.iterations,
        "kind": job.kind.value,
        "amplification_limit": enc_float(job.amplification_limit),
        "max_gpus": job.max_gpus,
    }


def load_trace_job(row: Dict[str, Any]) -> TraceJob:
    """Inverse of :func:`dump_trace_job`."""
    return TraceJob(
        name=row["name"],
        model=row["model"],
        global_batch=row["global_batch"],
        arrival_time=row["arrival_time"],
        iterations=row["iterations"],
        kind=JobKind(row["kind"]),
        amplification_limit=dec_float(row["amplification_limit"]),
        max_gpus=row["max_gpus"],
    )


#: Every :class:`JobRecord` field, in declaration order: the keys of a
#: :func:`dump_record` row.
RECORD_FIELDS = tuple(f.name for f in fields(JobRecord))


def dump_record(record: JobRecord) -> Dict[str, Any]:
    """A completion record as a canonical-JSON row.

    Every field is a primitive (``kind`` is encoded by value), so the row
    is built flat instead of through ``asdict``'s recursive deep copy.
    """
    row = {name: getattr(record, name) for name in RECORD_FIELDS}
    row["kind"] = record.kind.value
    return row


def load_record(row: Dict[str, Any]) -> JobRecord:
    """Inverse of :func:`dump_record`."""
    data = dict(row)
    data["kind"] = JobKind(data["kind"])
    return JobRecord(**data)


def _dump_job_state(state: _JobState) -> Dict[str, Any]:
    """One job's snapshot row: its trace, its ``PERSISTED`` fields and its
    ``LINKS`` as names (a second restore pass re-wires them)."""
    row = dict(zip(_JobState.PERSISTED, _read_persisted(state)))
    row["trace"] = dump_trace_job(state.trace)
    row["gpu_ids"] = list(state.gpu_ids)
    row["busy_fractions"] = list(state.busy_fractions)
    row["hosted"] = [[index, guest.name] for index, guest in state.hosted.items()]
    row["guest_order"] = state.guest_order.dump()
    row["host"] = state.host.name if state.host is not None else None
    return row


class EngineSnapshot:
    """One canonical-JSON document capturing a live engine mid-run."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload

    # ---------------------------------------------------------------- identity
    def fingerprint(self) -> str:
        """Content fingerprint of the captured state."""
        return snapshot_fingerprint(self.payload)

    def to_json(self) -> str:
        """Canonical JSON serialization (byte-stable across processes)."""
        return canonical_json(self.payload)

    @classmethod
    def from_json(cls, text: str) -> "EngineSnapshot":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("engine snapshot must be a JSON object")
        schema = payload.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported engine-snapshot schema {schema!r} "
                f"(this build reads schema {SNAPSHOT_SCHEMA})"
            )
        return cls(payload)

    # ----------------------------------------------------------------- capture
    @classmethod
    def capture(
        cls,
        engine,
        encoded_jobs: Mapping[str, bytes] = _NO_ROWS,
        encoded_records: Sequence[bytes] = (),
    ) -> "EngineSnapshot":
        """Freeze a live engine's run state into a serializable payload.

        A snapshot writer that already holds the canonical-JSON bytes of
        some rows passes them in: ``encoded_jobs`` by job name, and
        ``encoded_records`` as a prefix of ``records``.  Those rows go
        into the payload as the ``bytes`` given and are not built again.
        With neither, every row is a dict (the public payload).
        """
        sched = engine.scheduler
        jobs: List[Any] = [
            encoded_jobs.get(name) or _dump_job_state(state)
            for name, state in engine.states.items()
        ]
        records: List[Any] = list(encoded_records)
        records.extend(
            dump_record(r) for r in islice(engine.records, len(records), None)
        )
        payload: Dict[str, Any] = {
            "schema": SNAPSHOT_SCHEMA,
            "policy": engine.policy.name,
            "fleet": fleet_fingerprint(sched.fleet),
            "num_gpus": sched.num_gpus,
            "clock": engine.clock,
            "first_arrival": engine.first_arrival,
            "last_finish": engine.last_finish,
            "failures_injected": engine.failures_injected,
            "next_order": engine._order,
            "track_failures": engine.track_failures,
            "queue": engine.queue.snapshot_state(),
            "free": engine.free.snapshot_state(),
            "pending": engine.pending.dump(),
            "fg_running": engine.fg_running.dump(),
            "bg_dedicated": engine.bg_dedicated.dump(),
            "jobs": jobs,
            "records": records,
        }
        return cls(payload)

    # ------------------------------------------------------------------- apply
    def apply(self, engine) -> None:
        """Load this snapshot into a freshly constructed engine.

        The target must be a new engine (no jobs added, clock at zero) built
        on a scheduler whose fleet, policy and planner/profiler configuration
        match the capturing run — all three are verified, the last one by
        recomputing every job's ``iso_iter_time`` and comparing exactly.
        Restoration fills the engine's existing containers in place.
        """
        payload = self.payload
        # Schema first: a payload from a different build would otherwise
        # surface as a KeyError (or worse, a silently misread field) deep
        # inside state application.
        schema = payload.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"cannot apply engine snapshot with schema {schema!r}: this "
                f"build applies schema {SNAPSHOT_SCHEMA} (re-capture the "
                "snapshot with a matching build)"
            )
        sched = engine.scheduler
        # "Fresh" means no job was added and no event processed.  Pre-queued
        # events are allowed — a service reconstructed with its original
        # failure schedule has them — because the snapshot's queue capture
        # replaces the heap wholesale (it holds those same un-fired events).
        if engine.states or engine.queue.popped or engine.clock != 0.0:
            raise ValueError("snapshots must be restored into a fresh engine")
        if payload["policy"] != engine.policy.name:
            raise ValueError(
                f"snapshot was captured under policy {payload['policy']!r}, "
                f"engine runs {engine.policy.name!r}"
            )
        if payload["fleet"] != fleet_fingerprint(sched.fleet):
            raise ValueError(
                "snapshot fleet does not match this scheduler's fleet "
                "(GPU pools, sizes or host shapes differ)"
            )
        # Pass 1: rebuild every job state with its persisted fields; the
        # derived ones come from its trace (and, for ``reach``, below).
        rows = sorted(payload["jobs"], key=lambda row: row["order"])
        states: Dict[str, _JobState] = {}
        for row in rows:
            trace = load_trace_job(row["trace"])
            state = _JobState(
                trace,
                row["order"],
                sched._iso_iter_time(trace.model, trace.global_batch),
            )
            if state.iso_iter_time != row["iso_iter_time"]:
                raise ValueError(
                    f"snapshot job {trace.name!r} was profiled at "
                    f"iso_iter_time={row['iso_iter_time']!r}, this scheduler "
                    f"derives {state.iso_iter_time!r} — planner/profiler "
                    "configuration differs from the capturing run"
                )
            for name, value in zip(_JobState.PERSISTED, _row_persisted(row)):
                setattr(state, name, value)
            state.status = _STATUSES[row["status"]]
            state.gpu_ids = list(row["gpu_ids"])
            state.busy_fractions = list(row["busy_fractions"])
            states[trace.name] = state

        # Pass 2: re-wire collocation references by name.
        for row in rows:
            state = states[row["trace"]["name"]]
            state.hosted = {index: states[name] for index, name in row["hosted"]}
            if row["guest_order"] != _EMPTY_GUEST_ORDER:
                # A fresh list dumps like the shared empty one, which is
                # never loaded into: only a job that hosted keeps its own.
                state.guest_order = SortedJobList()
                state.guest_order.load(row["guest_order"], states.__getitem__)
            host = row["host"]
            state.host = states[host] if host is not None else None

        engine.states.clear()
        engine.states.update(states)
        engine.queue.restore_state(payload["queue"])
        engine.free.restore_state(payload["free"])
        engine.pending.load(payload["pending"], states.__getitem__)
        engine.fg_running.load(payload["fg_running"], states.__getitem__)
        for state in engine.fg_running:
            # Derived state: the fresh engine's slot index and expansion
            # frontier are empty; refill them (nothing priced yet).
            if engine.open_slots is not None:
                engine.open_slots.open(state)
            engine._reset_reach(state)
        engine.bg_dedicated.load(payload["bg_dedicated"], states.__getitem__)
        engine.track_failures = payload["track_failures"]
        engine.records.clear()
        engine.records.extend(load_record(r) for r in payload["records"])
        engine.clock = payload["clock"]
        engine.first_arrival = payload["first_arrival"]
        engine.last_finish = payload["last_finish"]
        engine.failures_injected = payload["failures_injected"]
        engine._order = payload["next_order"]

    # ------------------------------------------------------------- inspection
    @property
    def clock(self) -> float:
        return self.payload["clock"]

    @property
    def events_pending(self) -> int:
        return len(self.payload["queue"]["events"])

    @property
    def events_processed(self) -> int:
        return self.payload["queue"]["popped"]

    def job_names(self) -> List[str]:
        """Names of every job the captured run had registered, sorted."""
        return sorted(row["trace"]["name"] for row in self.payload["jobs"])

    def job_status(self, name: str) -> Optional[str]:
        for row in self.payload["jobs"]:
            if row["trace"]["name"] == name:
                return row["status"]
        return None
