"""Observability for the reproduction: tracing, telemetry, and metrics.

Three cooperating pieces, all deterministic and zero-overhead when unused:

* :mod:`repro.obs.metrics` — process-wide counter/timer registry with
  per-object scoped counters that roll up into global aggregates.
* :mod:`repro.obs.trace` — a :class:`TraceRecorder` bound to one scheduler
  run (via :class:`~repro.sched.scheduler.ClusterScheduler` or one
  :class:`~repro.sched.engine.SchedulerEngine`) that exports the run as
  Chrome ``trace_event`` JSON viewable in Perfetto.
* :mod:`repro.obs.sampler` — a :class:`TimeSeriesSampler` recording cluster
  gauges on a fixed sim-time grid, with a ``summary()`` reducer.

``python -m repro.obs report <trace.json>`` prints a timeline digest.
"""

from .metrics import Counter, MetricsRegistry, Timer, global_registry
from .sampler import TimeSeriesSampler
from .trace import (
    EV_ARRIVAL,
    EV_COLLOCATE,
    EV_COMPLETION,
    EV_DETACH,
    EV_CANCEL,
    EV_GPU_FREE,
    EV_GPU_GRANT,
    EV_KILL,
    EV_MIGRATION,
    EV_NODE_FAILURE,
    EV_NODE_RECOVERY,
    EV_PLACEMENT,
    EV_PREEMPTION,
    EV_RECOVERY,
    EV_REPLAN,
    EV_RESTART,
    EV_SNAPSHOT,
    EV_SUBMIT,
    ObsEvent,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "Timer",
    "MetricsRegistry",
    "global_registry",
    "TimeSeriesSampler",
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
