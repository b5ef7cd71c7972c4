"""Deterministic structured tracing for the cluster scheduler.

A :class:`TraceRecorder` binds to one scheduler run — every later
:meth:`~repro.sched.scheduler.ClusterScheduler.run` after
``scheduler.attach_recorder(recorder)``, or one engine built with
``SchedulerEngine(scheduler, policy, recorder=recorder)`` — and receives one
sim-time-stamped :class:`ObsEvent` for every state change that run's event
loop performs: job
arrivals, placements, collocations, preemptions, re-plans, migrations, node
failures/recoveries, restarts, completions, and per-pool GPU grants/frees.
The recorder only *reads* scheduler state — it never perturbs placement,
timing, or ordering — so a run's metric fingerprints are bit-identical with
the recorder attached or absent, and two seeded runs record byte-identical
event streams.

The event log exports as Chrome ``trace_event`` JSON
(:meth:`TraceRecorder.to_chrome_trace` /
:meth:`TraceRecorder.write_chrome_trace`), loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* one *process* track per GPU pool (plus a ``cluster`` track for arrivals),
* one *thread* track per host, carrying the jobs running on that host as
  complete (``"X"``) spans — a job's span closes and reopens at every
  re-plan/migration, so width changes are visible on the timeline,
* a ``free_gpus`` counter (``"C"``) track per pool,
* instant (``"i"``) markers for arrivals, restarts, failures and recoveries.

Timestamps are simulated microseconds (sim seconds × 1e6); nothing
wall-clock enters the export, which is what makes it byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from .metrics import global_registry

__all__ = [
    "ObsEvent",
    "TraceRecorder",
    "EV_ARRIVAL",
    "EV_PLACEMENT",
    "EV_COLLOCATE",
    "EV_DETACH",
    "EV_PREEMPTION",
    "EV_REPLAN",
    "EV_MIGRATION",
    "EV_RESTART",
    "EV_COMPLETION",
    "EV_KILL",
    "EV_NODE_FAILURE",
    "EV_NODE_RECOVERY",
    "EV_GPU_GRANT",
    "EV_GPU_FREE",
    "EV_SUBMIT",
    "EV_CANCEL",
    "EV_SNAPSHOT",
    "EV_RECOVERY",
]

# Event kinds the scheduler emits.  Spans open at placement/collocate and
# close at completion/preemption/kill/detach (re-plans and migrations close
# and reopen); the rest are instants or counter samples.
EV_ARRIVAL = "arrival"
EV_PLACEMENT = "placement"
EV_COLLOCATE = "collocate"
EV_DETACH = "detach"
EV_PREEMPTION = "preemption"
EV_REPLAN = "replan"
EV_MIGRATION = "migration"
EV_RESTART = "restart"
EV_COMPLETION = "completion"
EV_KILL = "kill"
EV_NODE_FAILURE = "node-failure"
EV_NODE_RECOVERY = "node-recovery"
EV_GPU_GRANT = "gpu-grant"
EV_GPU_FREE = "gpu-free"
# Service-layer kinds (repro.serve): admission decisions and cancellations.
# The offline scheduler never emits them, so offline traces are unchanged.
EV_SUBMIT = "submit"
EV_CANCEL = "cancel"
# Durability kinds (repro.serve crash safety): a state snapshot was
# persisted / a crashed service recovered.  Emission is read-only, so
# metric fingerprints are identical with snapshotting on or off.
EV_SNAPSHOT = "snapshot"
EV_RECOVERY = "recovery"

_SPAN_OPENERS = frozenset({EV_PLACEMENT, EV_COLLOCATE})
_SPAN_CLOSERS = frozenset({EV_COMPLETION, EV_PREEMPTION, EV_KILL, EV_DETACH, EV_CANCEL})
_SPAN_REOPENERS = frozenset({EV_REPLAN, EV_MIGRATION})

_RECORDED = global_registry().counter("obs.trace.events")


@dataclass(frozen=True)
class ObsEvent:
    """One recorded scheduler state change.

    Attributes
    ----------
    time:
        Simulated seconds at which the change happened.
    kind:
        One of the ``EV_*`` constants.
    job:
        Job name the event refers to (empty for node events).
    pool:
        Fleet pool the event touches (empty when not pool-specific).
    host:
        Global host id for node failure/recovery events (``-1`` otherwise).
    gpus:
        Global GPU ids involved (granted, freed, or occupied).
    width:
        GPU width of the placement/re-plan the event describes (0 otherwise).
    free_gpus:
        Free GPUs remaining in ``pool`` *after* the change (``-1`` when the
        event does not change pool occupancy) — the source of the per-pool
        ``free_gpus`` counter track.
    detail:
        Free-form deterministic annotation (placement class, restart
        overhead...).
    """

    time: float
    kind: str
    job: str = ""
    pool: str = ""
    host: int = -1
    gpus: Tuple[int, ...] = ()
    width: int = 0
    free_gpus: int = -1
    detail: str = ""


class TraceRecorder:
    """Collects :class:`ObsEvent` rows for one scheduler run.

    Each :class:`~repro.sched.engine.SchedulerEngine` it is bound to calls
    :meth:`begin_run` at construction, which clears the log and binds the
    fleet (needed to map GPUs onto pool/host tracks at export time) — so
    one recorder can stay attached to a scheduler across many runs and
    always holds the latest run's events.
    """

    def __init__(self) -> None:
        self._events: List[ObsEvent] = []
        self._fleet = None  # duck-typed ClusterFleet, bound by begin_run
        self.policy = ""

    # --------------------------------------------------------------- recording
    def begin_run(self, fleet, policy: str) -> None:
        """Reset the log for a new run and bind its fleet/policy identity."""
        self._events = []
        self._fleet = fleet
        self.policy = policy

    def emit(
        self,
        time: float,
        kind: str,
        job: str = "",
        pool: str = "",
        host: int = -1,
        gpus: Tuple[int, ...] = (),
        width: int = 0,
        free_gpus: int = -1,
        detail: str = "",
    ) -> None:
        """Append one event (called by the scheduler's emission seams)."""
        self._events.append(
            ObsEvent(
                time=time,
                kind=kind,
                job=job,
                pool=pool,
                host=host,
                gpus=tuple(gpus),
                width=width,
                free_gpus=free_gpus,
                detail=detail,
            )
        )
        _RECORDED.add(1)

    @property
    def events(self) -> Tuple[ObsEvent, ...]:
        return tuple(self._events)

    def events_of(self, kind: str) -> List[ObsEvent]:
        """Every recorded event of one kind, in emission order."""
        return [e for e in self._events if e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------ track layout
    def _require_fleet(self):
        if self._fleet is None:
            raise RuntimeError(
                "recorder is not bound to a run; attach it to a scheduler "
                "and call run() (or call begin_run yourself) before exporting"
            )
        return self._fleet

    def _pool_pids(self) -> Dict[str, int]:
        # pid 0 is the cluster-wide track; pools follow in declaration order.
        fleet = self._require_fleet()
        return {name: i + 1 for i, name in enumerate(fleet.pool_names)}

    # ---------------------------------------------------------------- exports
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome ``trace_event`` JSON object (Perfetto-ready)."""
        fleet = self._require_fleet()
        pool_pids = self._pool_pids()
        rows: List[Dict[str, Any]] = []

        # Track metadata: name the cluster process, one process per pool and
        # one thread per host, with stable sort order.
        rows.append(_meta(0, 0, "process_name", name="cluster"))
        rows.append(_meta(0, 0, "process_sort_index", sort_index=0))
        for name, pid in pool_pids.items():
            rows.append(_meta(pid, 0, "process_name", name=f"pool {name}"))
            rows.append(_meta(pid, 0, "process_sort_index", sort_index=pid))
        for host in range(fleet.num_hosts):
            pool = fleet.pool_of_host(host)
            rows.append(
                _meta(pool_pids[pool], host, "thread_name", name=f"host {host}")
            )
            rows.append(
                _meta(pool_pids[pool], host, "thread_sort_index", sort_index=host)
            )

        # Job spans: open at placement/collocate, close at completion/
        # preemption/kill/detach, close+reopen at replan/migration.
        open_spans: Dict[str, Dict[str, Any]] = {}
        last_ts = 0.0

        def close_span(job: str, end_s: float) -> None:
            span = open_spans.pop(job, None)
            if span is None:
                return
            rows.append(
                {
                    "ph": "X",
                    "pid": span["pid"],
                    "tid": span["tid"],
                    "name": job,
                    "cat": span["cat"],
                    "ts": span["start"] * 1e6,
                    "dur": max(end_s - span["start"], 0.0) * 1e6,
                    "args": span["args"],
                }
            )

        def open_span(event: ObsEvent) -> None:
            pid = pool_pids.get(event.pool, 0)
            tid = fleet.host_of_gpu(event.gpus[0]) if event.gpus else 0
            open_spans[event.job] = {
                "start": event.time,
                "pid": pid,
                "tid": tid,
                "cat": event.detail or "job",
                "args": {
                    "pool": event.pool,
                    "width": event.width,
                    "gpus": list(event.gpus),
                },
            }

        for event in self._events:
            last_ts = event.time
            if event.kind in _SPAN_OPENERS:
                close_span(event.job, event.time)  # defensive: never nest
                open_span(event)
            elif event.kind in _SPAN_REOPENERS:
                close_span(event.job, event.time)
                open_span(event)
            elif event.kind in _SPAN_CLOSERS:
                close_span(event.job, event.time)

            if event.kind == EV_ARRIVAL:
                rows.append(_instant(0, 0, f"arrival {event.job}", event.time, "p"))
            elif event.kind == EV_RESTART:
                pid = pool_pids.get(event.pool, 0)
                tid = fleet.host_of_gpu(event.gpus[0]) if event.gpus else 0
                rows.append(
                    _instant(pid, tid, f"restart {event.job}", event.time, "t")
                )
            elif event.kind in (EV_NODE_FAILURE, EV_NODE_RECOVERY):
                pid = pool_pids.get(event.pool, 0)
                rows.append(
                    _instant(pid, max(event.host, 0), event.kind, event.time, "p")
                )
            elif event.kind in (EV_SUBMIT, EV_CANCEL):
                # Service-layer markers (admission decisions, cancellations)
                # land on the cluster-wide track like arrivals.
                rows.append(
                    _instant(0, 0, f"{event.kind} {event.job}", event.time, "p")
                )
            elif event.kind in (EV_SNAPSHOT, EV_RECOVERY):
                # Durability markers: snapshot cadence and crash recoveries
                # on the cluster-wide track, detail carried verbatim.
                label = f"{event.kind} {event.detail}".rstrip()
                rows.append(_instant(0, 0, label, event.time, "p"))

            if event.free_gpus >= 0 and event.pool:
                rows.append(
                    {
                        "ph": "C",
                        "pid": pool_pids[event.pool],
                        "tid": 0,
                        "name": "free_gpus",
                        "ts": event.time * 1e6,
                        "args": {"free_gpus": event.free_gpus},
                    }
                )

        # A completed run closes every span; tolerate partial logs anyway.
        for job in sorted(open_spans):
            close_span(job, last_ts)

        return {
            "displayTimeUnit": "ms",
            "otherData": {
                "policy": self.policy,
                "num_gpus": fleet.num_gpus,
                "num_hosts": fleet.num_hosts,
                "pools": list(fleet.pool_names),
                "recorded_events": len(self._events),
            },
            "traceEvents": rows,
        }

    def chrome_trace_json(self) -> str:
        """Canonical JSON text of the Chrome trace (byte-reproducible).

        Sorted keys and fixed separators: two runs recording identical event
        streams serialize to identical bytes, which the determinism tests
        compare directly.
        """
        return (
            json.dumps(
                self.to_chrome_trace(), sort_keys=True, separators=(",", ":")
            )
            + "\n"
        )

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        """Write the Chrome trace JSON to ``path`` and return it."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.chrome_trace_json())
        return out


def _meta(pid: int, tid: int, meta_name: str, **args: Any) -> Dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": meta_name, "args": args}


def _instant(
    pid: int, tid: int, name: str, time_s: float, scope: str
) -> Dict[str, Any]:
    return {
        "ph": "i",
        "pid": pid,
        "tid": tid,
        "name": name,
        "ts": time_s * 1e6,
        "s": scope,
    }
