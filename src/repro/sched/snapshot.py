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

Two deliberate non-goals keep the format small and honest:

* ``_JobState.plan`` is not captured.  The bound :class:`TrainingPlan` is
  write-only after installation — every scalar the simulation reads
  (``base_iter_time``, ``work_per_iteration``, ``busy_fractions``,
  ``width``) is serialized directly — so the restored state carries
  ``plan=None`` and behaves identically.
* Derived caches (plan cache, graph cache, iso-time cache, plan
  occupancy) and the open-collocation-slot index are not captured.  The
  index is rebuilt from the restored running foreground jobs.  The caches
  are pure functions of the scheduler's configuration; the restored run
  recomputes them on demand, and the snapshot *verifies* it is being
  applied under the same configuration by recomputing each job's
  ``iso_iter_time`` and comparing exactly.

The payload is versioned (``schema``) and fingerprinted
(:func:`~repro.cache.fingerprint.snapshot_fingerprint`), so persisted
snapshots are content-addressable and corruption is detectable before a
single field is applied.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from ..cache.fingerprint import (
    canonical_json,
    fleet_fingerprint,
    snapshot_fingerprint,
)
from ..cluster.job import JobKind
from .metrics import JobRecord
from .traces import TraceJob

__all__ = [
    "EngineSnapshot",
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

# Restore maps status strings back onto the engine's module-level constants:
# the arrival handler tests ``status is not _PENDING`` by identity, and
# strings parsed from JSON are not interned.
_STATUS_CANON: Dict[str, str] = {}


def _status_constants() -> Dict[str, str]:
    if not _STATUS_CANON:
        from . import engine as _engine

        for const in (
            _engine._PENDING,
            _engine._RUNNING,
            _engine._DONE,
            _engine._CANCELLED,
        ):
            _STATUS_CANON[const] = const
    return _STATUS_CANON


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


def dump_record(record: JobRecord) -> Dict[str, Any]:
    """A completion record as a canonical-JSON row."""
    row = asdict(record)
    row["kind"] = record.kind.value
    return row


def load_record(row: Dict[str, Any]) -> JobRecord:
    """Inverse of :func:`dump_record`."""
    data = dict(row)
    data["kind"] = JobKind(data["kind"])
    return JobRecord(**data)


def _dump_job_state(state) -> Dict[str, Any]:
    return {
        "trace": dump_trace_job(state.trace),
        "order": state.order,
        "iso_iter_time": state.iso_iter_time,
        "status": state.status,
        "remaining": state.remaining,
        "version": state.version,
        "last_update": state.last_update,
        "rate": state.rate,
        "start_time": state.start_time,
        "width": state.width,
        "gpu_ids": list(state.gpu_ids),
        "gpu_type": state.gpu_type,
        "base_iter_time": state.base_iter_time,
        "work_per_iteration": state.work_per_iteration,
        "busy_fractions": list(state.busy_fractions),
        # References become names; a second restore pass re-wires them.
        "hosted": [[index, guest.name] for index, guest in state.hosted.items()],
        "guest_order": state.guest_order.dump(),
        "host": state.host.name if state.host is not None else None,
        "host_index": state.host_index,
        "placed_iso_time": state.placed_iso_time,
        "ckpt_remaining": state.ckpt_remaining,
        "next_checkpoint": state.next_checkpoint,
        "penalty_until": state.penalty_until,
        "pending_restart_penalty": state.pending_restart_penalty,
        "preemptions": state.preemptions,
        "replans": state.replans,
        "restarts": state.restarts,
        "busy_gpu_seconds": state.busy_gpu_seconds,
        "allocated_gpu_seconds": state.allocated_gpu_seconds,
        "lost_gpu_seconds": state.lost_gpu_seconds,
    }


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
    def capture(cls, engine) -> "EngineSnapshot":
        """Freeze a live engine's run state into a serializable payload."""
        sched = engine.scheduler
        jobs: List[Dict[str, Any]] = [
            _dump_job_state(state) for state in engine.states.values()
        ]
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
            "records": [dump_record(r) for r in engine.records],
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
        statuses = _status_constants()
        from .engine import _JobState

        # Pass 1: rebuild every job state with its scalar fields.
        rows = sorted(payload["jobs"], key=lambda row: row["order"])
        states: Dict[str, Any] = {}
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
            state.status = statuses[row["status"]]
            state.remaining = row["remaining"]
            state.version = row["version"]
            state.last_update = row["last_update"]
            state.rate = row["rate"]
            state.start_time = row["start_time"]
            state.width = row["width"]
            state.gpu_ids = list(row["gpu_ids"])
            state.gpu_type = row["gpu_type"]
            state.plan = None  # write-only after installation; never read
            state.base_iter_time = row["base_iter_time"]
            state.work_per_iteration = row["work_per_iteration"]
            state.busy_fractions = list(row["busy_fractions"])
            state.host_index = row["host_index"]
            state.placed_iso_time = row["placed_iso_time"]
            state.ckpt_remaining = row["ckpt_remaining"]
            state.next_checkpoint = row["next_checkpoint"]
            state.penalty_until = row["penalty_until"]
            state.pending_restart_penalty = row["pending_restart_penalty"]
            state.preemptions = row["preemptions"]
            state.replans = row["replans"]
            state.restarts = row["restarts"]
            state.busy_gpu_seconds = row["busy_gpu_seconds"]
            state.allocated_gpu_seconds = row["allocated_gpu_seconds"]
            state.lost_gpu_seconds = row["lost_gpu_seconds"]
            states[trace.name] = state

        # Pass 2: re-wire collocation references by name.
        for row in rows:
            state = states[row["trace"]["name"]]
            state.hosted = {index: states[name] for index, name in row["hosted"]}
            state.guest_order.load(row["guest_order"], states.__getitem__)
            host = row["host"]
            state.host = states[host] if host is not None else None

        engine.states.clear()
        engine.states.update(states)
        engine.queue.restore_state(payload["queue"])
        engine.free.restore_state(payload["free"])
        engine.pending.load(payload["pending"], states.__getitem__)
        engine.fg_running.load(payload["fg_running"], states.__getitem__)
        if engine.open_slots is not None:
            # Derived state: the fresh engine's index is empty; refill it.
            for state in engine.fg_running:
                engine.open_slots.open(state)
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
