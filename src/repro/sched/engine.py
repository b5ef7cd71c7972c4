"""Event-dispatch core shared by offline replay and the online service.

:class:`SchedulerEngine` is one run's event loop over a
:class:`~repro.sched.scheduler.ClusterScheduler`: the offline
:meth:`~repro.sched.scheduler.ClusterScheduler.run` path and the online
:class:`~repro.serve.service.SchedulerService` drive the *same* engine.  The
offline path feeds every arrival up front and drains the queue; the service
feeds arrivals incrementally against a virtual clock
(:meth:`SchedulerEngine.advance_to`) and may :meth:`cancel` jobs in flight.
Both produce bit-identical :class:`ScheduleResult` metrics for the same
arrival log, which is the parity obligation `repro.serve` tests against.

One engine owns one run.  Everything the run mutates lives here: the event
queue, pending queue, free-GPU pool, job states and completion records, the
running-job registries and open-collocation-slot index, the failure
tracking flag, and the run's recorder and sampler — together with every
placement, failure, completion and re-plan helper that changes them.  The
scheduler holds only configuration and caches (plans, iso-times, graphs,
plan occupancy), so any number of engines may run on one scheduler, in
turn or interleaved, without seeing each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.planner.plan import TrainingPlan
from ..obs.metrics import global_registry
from ..obs.sampler import TimeSeriesSampler
from ..obs.trace import (
    EV_ARRIVAL,
    EV_CANCEL,
    EV_COLLOCATE,
    EV_COMPLETION,
    EV_DETACH,
    EV_GPU_FREE,
    EV_GPU_GRANT,
    EV_KILL,
    EV_MIGRATION,
    EV_NODE_FAILURE,
    EV_NODE_RECOVERY,
    EV_PLACEMENT,
    EV_PREEMPTION,
    EV_REPLAN,
    EV_RESTART,
    TraceRecorder,
)
from .events import Event, EventKind, EventQueue
from .failures import NodeFailure, validate_failures
from .fleet import FleetPool
from .metrics import FleetMetrics, JobRecord
from .ordering import OpenSlotIndex, PendingQueue, SortedJobList
from .policies import SchedulingPolicy, floor_pow2, get_policy, width_cap
from .traces import TraceJob

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .snapshot import EngineSnapshot

__all__ = ["SchedulerEngine", "ScheduleResult"]

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"

# Per-kind event-loop counters, prefetched at import so the loop pays one
# dict lookup + integer add per event.  ``sched.events.stale`` counts finish
# events discarded by lazy invalidation (not an EventKind of their own);
# ``sched.events.cancel`` counts jobs cancelled through the engine API.
_EVENT_COUNTERS = {
    kind: global_registry().counter(f"sched.events.{kind.value}")
    for kind in EventKind
}
_STALE_EVENTS = global_registry().counter("sched.events.stale")
_CANCELLED_JOBS = global_registry().counter("sched.events.cancel")


class _JobState:
    """Mutable per-job simulation state (one instance per trace job per run)."""

    def __init__(self, trace: TraceJob, order: int, iso_iter_time: float) -> None:
        self.trace = trace
        self.order = order
        #: Single-GPU time per iteration on the fleet's reference (fastest)
        #: pool; the work estimate policies sort by.
        self.iso_iter_time = iso_iter_time
        self.status = _PENDING
        self.remaining = float(trace.iterations)
        self.version = 0
        self.last_update = trace.arrival_time
        self.rate = 0.0  # iterations per second while running
        self.start_time: Optional[float] = None
        # Foreground placement state.
        self.width = 0
        self.gpu_ids: List[int] = []
        self.gpu_type: Optional[str] = None  # fleet pool of the placement
        self.plan: Optional[TrainingPlan] = None
        self.base_iter_time = 0.0
        self.work_per_iteration = 0.0  # busy GPU-seconds per iteration
        self.busy_fractions: List[float] = []
        self.hosted: Dict[int, "_JobState"] = {}  # local GPU index -> bg job
        #: Guests ordered by arrival order, maintained on attach/detach.
        self.guest_order = SortedJobList()
        # Background placement state.
        self.host: Optional["_JobState"] = None
        self.host_index = 0
        #: Isolated iteration time on the pool the job is placed on (equals
        #: ``iso_iter_time`` on a homogeneous fleet).
        self.placed_iso_time = iso_iter_time
        # Failure / checkpoint state.
        self.ckpt_remaining = float(trace.iterations)
        self.next_checkpoint: Optional[float] = None
        self.penalty_until = 0.0  # restart overhead window of the placement
        self.pending_restart_penalty = 0.0  # owed at the next placement
        # Accounting.
        self.preemptions = 0
        self.replans = 0
        self.restarts = 0
        self.busy_gpu_seconds = 0.0
        self.allocated_gpu_seconds = 0.0
        self.lost_gpu_seconds = 0.0

    # Attributes policies read (duck-typed).
    @property
    def name(self) -> str:
        return self.trace.name

    @property
    def is_foreground(self) -> bool:
        return self.trace.is_foreground

    @property
    def arrival_time(self) -> float:
        return self.trace.arrival_time

    @property
    def global_batch(self) -> int:
        return self.trace.global_batch

    @property
    def max_gpus(self) -> Optional[int]:
        return self.trace.max_gpus

    @property
    def remaining_gpu_seconds(self) -> float:
        """Estimated single-GPU compute remaining (the policy sort key)."""
        return self.remaining * self.iso_iter_time

    @property
    def collocated(self) -> bool:
        return self.host is not None


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduler run: per-job records plus fleet metrics."""

    policy: str
    num_gpus: int
    records: Tuple[JobRecord, ...]
    metrics: FleetMetrics
    #: Events the simulation processed (arrivals, finishes, node failures
    #: and recoveries, and stale finishes discarded by lazy invalidation) —
    #: the run's deterministic op count, reported by the benchmark harness.
    events_processed: int = 0
    #: Node failures injected into the run.
    failures_injected: int = 0

    def record(self, name: str) -> JobRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no record for job {name!r}")


def _work_key(state: _JobState) -> Tuple[float, int]:
    """Most-remaining-work-first ordering (preemption/re-plan registries)."""
    return (-state.remaining_gpu_seconds, state.order)


class SchedulerEngine:
    """One run's discrete-event loop over a :class:`ClusterScheduler`.

    The engine is deliberately *incremental*: jobs are registered with
    :meth:`add_job` (arrival events enter the queue as they are admitted),
    failures with :meth:`add_failures`, and time moves either all the way to
    quiescence (:meth:`drain` — the offline path) or up to a virtual-clock
    bound (:meth:`advance_to` — the service path).  Event *seq* numbers
    break exact-time ties, so feeding the same arrival log in the same
    order reproduces the offline run event for event.

    ``recorder`` and ``sampler`` observe this run only: the recorder gets
    one structured event per state change, the sampler the cluster gauges
    on its sim-time grid.  ``None`` disables either; every emission site
    guards on that, so an unobserved run pays one attribute load and one
    ``is None`` test per state change.
    """

    def __init__(
        self,
        scheduler,
        policy: Union[str, SchedulingPolicy],
        *,
        recorder: Optional[TraceRecorder] = None,
        sampler: Optional[TimeSeriesSampler] = None,
    ) -> None:
        self.scheduler = scheduler
        self.policy = get_policy(policy)
        self.states: Dict[str, _JobState] = {}
        self.queue = EventQueue()
        self.free = FleetPool(scheduler.fleet)
        self.pending = PendingQueue(self.policy)
        self.records: List[JobRecord] = []
        #: Running foreground / dedicated background jobs, most remaining
        #: work first (the preemption and re-plan scan order).
        self.fg_running = SortedJobList()
        self.bg_dedicated = SortedJobList()
        #: Open collocation slots; ``None`` under policies that never collocate.
        self.open_slots: Optional[OpenSlotIndex] = (
            OpenSlotIndex(
                scheduler.collocation.bg_idle_efficiency,
                scheduler.collocation.bg_busy_efficiency,
                getattr(self.policy, "min_collocation_efficiency", 0.0),
            )
            if self.policy.collocate_background
            else None
        )
        #: Checkpoint/rollback accounting is on once a failure is scheduled.
        self.track_failures = False
        self.clock = 0.0
        self.first_arrival: Optional[float] = None
        self.last_finish: Optional[float] = None
        self.failures_injected = 0
        self._order = 0
        self._recorder = recorder
        if recorder is not None:
            recorder.begin_run(scheduler.fleet, self.policy.name)
        self._sampler = sampler
        if sampler is not None:
            sampler.begin_run()

    # ------------------------------------------------------------------ intake
    def add_job(self, job: TraceJob) -> None:
        """Register one job and queue its arrival event.

        Jobs must be added in the order their arrivals should break exact
        simulated-time ties (trace order, for the offline path).  Duplicate
        names are rejected — the engine indexes state by name.
        """
        if job.name in self.states:
            raise ValueError(f"duplicate job name {job.name!r}")
        if job.arrival_time < self.clock:
            raise ValueError(
                f"job {job.name!r} arrives at {job.arrival_time}, before the "
                f"engine clock {self.clock}"
            )
        self.states[job.name] = _JobState(
            job,
            self._order,
            self.scheduler._iso_iter_time(job.model, job.global_batch),
        )
        self._order += 1
        self.queue.push(job.arrival_time, EventKind.JOB_ARRIVAL, job.name)
        if self.first_arrival is None or job.arrival_time < self.first_arrival:
            self.first_arrival = job.arrival_time

    def add_failures(self, failures: Sequence[NodeFailure]) -> int:
        """Validate and queue a node-failure schedule; returns its length."""
        ordered = validate_failures(self.scheduler.fleet, failures) if failures else []
        if ordered:
            self.track_failures = True
        for failure in ordered:
            self.queue.push(failure.time, EventKind.NODE_FAILURE, "", host=failure.host)
            self.queue.push(
                failure.recovery_time, EventKind.NODE_RECOVERY, "", host=failure.host
            )
        self.failures_injected += len(ordered)
        return len(ordered)

    # -------------------------------------------------------------- event loop
    def step(self) -> Event:
        """Pop and dispatch one event, then run a scheduling pass."""
        event = self.queue.pop()
        now = event.time
        self.clock = max(self.clock, now)
        if self._sampler is not None:
            # Boundaries at or before ``now`` sample the state *before*
            # this event's changes (piecewise-constant between events).
            self._sampler.advance_to(now, self.gauges)
        _EVENT_COUNTERS[event.kind].add(1)
        if event.kind is EventKind.JOB_ARRIVAL:
            state = self.states[event.job_name]
            if state.status is not _PENDING:
                # Cancelled before its arrival event popped: lazy-invalidated
                # exactly like a stale finish, including skipping the
                # scheduling pass (the cancellation already ran one).
                _STALE_EVENTS.add(1)
                return event
            state.last_update = now
            self.pending.add(state, now)
            if self._recorder is not None:
                self._recorder.emit(now, EV_ARRIVAL, job=state.name)
        elif event.kind is EventKind.NODE_FAILURE:
            self._fail_host(event.host, now)
        elif event.kind is EventKind.NODE_RECOVERY:
            self.free.recover_host(event.host)
            if self._recorder is not None:
                fleet = self.scheduler.fleet
                pool = fleet.pool_of_host(event.host)
                self._recorder.emit(
                    now,
                    EV_NODE_RECOVERY,
                    pool=pool,
                    host=event.host,
                    gpus=fleet.gpus_of_host(event.host),
                    free_gpus=self.free.free_of(pool),
                )
        else:
            state = self.states[event.job_name]
            if state.status != _RUNNING or event.version != state.version:
                _STALE_EVENTS.add(1)
                return event  # stale finish event (job was re-planned/preempted)
            self._finish(state, now)
            self.last_finish = now if self.last_finish is None else max(
                self.last_finish, now
            )
        self._schedule_point(now)
        return event

    def _schedule_point(self, now: float) -> None:
        """One scheduling pass: place pending work, then expand running jobs."""
        self._schedule_pending(now)
        if self.policy.replan_running and not self.pending and self.free:
            self._expand_running(now)

    def iter_steps(self, until: Optional[float] = None) -> Iterator[Event]:
        """Dispatch events one :meth:`step` at a time, yielding each.

        With ``until`` set, stops before the first event at or after it and
        then moves the clock to at least ``until``; without it, runs to
        quiescence.  Callers that must interleave other work with a long
        run (the service's async API) pace themselves on the yields.
        """
        queue = self.queue
        while queue:
            if until is not None and queue.peek_time() >= until:
                break
            yield self.step()
        if until is not None:
            self.clock = max(self.clock, until)

    def drain(self) -> int:
        """Dispatch events until the queue is empty; returns steps taken."""
        return sum(1 for _ in self.iter_steps())

    def advance_to(self, time: float) -> int:
        """Dispatch every event strictly before ``time``; returns steps taken.

        The bound is *exclusive* so that a job submitted at ``time`` slots
        into the queue before same-instant events that were pushed later —
        reproducing the offline path, where all arrivals are queued first.
        Afterwards the engine clock is at least ``time``.
        """
        return sum(1 for _ in self.iter_steps(time))

    # ------------------------------------------------------------ cancellation
    def cancel(self, name: str, now: float) -> bool:
        """Cancel one job at simulated time ``now``.

        Pending jobs leave the queue with their progress-to-date kept on
        their state (the service layer reads ``busy_gpu_seconds`` /
        ``lost_gpu_seconds`` for quota settlement — the same accounting the
        offline ``lost_gpu_seconds`` semantics use).  Running jobs release
        their GPUs (or their collocation slot) exactly like a completion,
        minus the completion record.  Returns ``False`` when the job is
        already done or cancelled.
        """
        state = self.states[name]
        if state.status in (_DONE, _CANCELLED):
            return False
        _CANCELLED_JOBS.add(1)
        if state.status == _PENDING:
            if state in self.pending:
                self.pending.remove(state)
            state.status = _CANCELLED
            state.version += 1  # invalidate any in-flight event
            if self._recorder is not None:
                self._recorder.emit(now, EV_CANCEL, job=state.name, detail="pending")
        else:
            if state.collocated:
                self._release(state, now, _CANCELLED, EV_CANCEL, detail="collocated")
            else:
                self._release(
                    state, now, _CANCELLED, EV_CANCEL,
                    width=max(state.width, 1), detail="running",
                )
            # Unlike a completion, a cancellation also drops the pool and
            # the guest ordering; snapshot payloads carry both fields.
            state.gpu_type = None
            if state.is_foreground:
                state.guest_order = SortedJobList()
            state.version += 1
        self._schedule_point(now)
        return True

    # ------------------------------------------------------- snapshot/restore
    def snapshot(self) -> "EngineSnapshot":
        """Freeze the run's complete state (see :mod:`repro.sched.snapshot`).

        Legal at any event boundary — between :meth:`step` calls, after an
        :meth:`advance_to`, mid-drain.  The capture is read-only: taking a
        snapshot never changes the run's subsequent event history.
        """
        from .snapshot import EngineSnapshot

        return EngineSnapshot.capture(self)

    def restore(self, snapshot: "EngineSnapshot") -> None:
        """Load a snapshot into this freshly constructed engine.

        The engine must be new (no jobs added, clock at zero) and built on a
        scheduler whose fleet, policy and planner/profiler configuration
        match the capturing run; continuing afterwards reproduces the
        uninterrupted run's event history exactly — same
        ``events_processed``, same metrics, same ``result_fingerprint``.
        """
        snapshot.apply(self)

    # ---------------------------------------------------------------- results
    def unfinished(self) -> List[str]:
        """Names of jobs neither completed nor cancelled, sorted."""
        return sorted(
            s.name
            for s in self.states.values()
            if s.status not in (_DONE, _CANCELLED)
        )

    def result(self, require_complete: bool = True) -> ScheduleResult:
        """Fold the run into a :class:`ScheduleResult`.

        ``require_complete`` raises on jobs that never completed (the
        offline deadlock check); cancelled jobs are never counted as
        unfinished.
        """
        if require_complete:
            unfinished = self.unfinished()
            if unfinished:
                raise RuntimeError(
                    f"scheduler deadlock under policy {self.policy.name!r}: "
                    f"jobs never completed: {', '.join(unfinished)}"
                )
        # Makespan runs from the first arrival to the last completion, so a
        # trace submitted late does not dilute utilization and goodput.
        first = self.first_arrival if self.first_arrival is not None else 0.0
        last = first if self.last_finish is None else max(self.last_finish, first)
        metrics = FleetMetrics.compute(
            self.records, self.scheduler.num_gpus, last - first
        )
        return ScheduleResult(
            policy=self.policy.name,
            num_gpus=self.scheduler.num_gpus,
            records=tuple(self.records),
            metrics=metrics,
            events_processed=self.queue.popped,
            failures_injected=self.failures_injected,
        )

    def gauges(self) -> Dict[str, Union[int, float]]:
        """Cluster gauges now: queue depth, occupancy, free GPUs per pool."""
        free = self.free
        num_gpus = self.scheduler.num_gpus
        free_total = len(free)
        down = free.num_down_gpus
        reading: Dict[str, Union[int, float]] = {
            "pending_jobs": len(self.pending),
            "running_foreground": len(self.fg_running),
            "running_background": len(self.bg_dedicated),
            "collocated_guests": sum(len(s.hosted) for s in self.fg_running),
            "free_gpus": free_total,
            "failed_hosts": free.num_down_hosts,
            "down_gpus": down,
            "allocated_gpus": num_gpus - free_total - down,
            "utilization_allocated": (num_gpus - free_total - down) / num_gpus,
        }
        for name in self.scheduler.fleet.pool_names:
            reading[f"free_gpus.{name}"] = free.free_of(name)
        return reading

    # ---------------------------------------------------------------- progress
    def _advance(self, state: _JobState, now: float) -> None:
        """Account progress since the job's last update."""
        start = state.last_update
        state.last_update = now
        if state.status != _RUNNING or now - start <= 0:
            return
        # A restarted job makes no progress until its restart overhead
        # (``penalty_until``) has elapsed; it holds its GPUs throughout.
        if state.penalty_until > start:
            effective = max(0.0, now - state.penalty_until)
        else:
            effective = now - start
        before = state.remaining
        done = min(before, effective * state.rate)
        if (
            self.track_failures
            and state.next_checkpoint is not None
            and state.next_checkpoint <= now
        ):
            # Snapshot the remaining work at the *latest* checkpoint instant
            # the window covers (earlier ones are superseded, so they are
            # never materialized); a failure rolls back to this snapshot.
            interval = self.scheduler.checkpoint.interval_s
            begin = max(start, state.penalty_until)
            steps = int((now - state.next_checkpoint) // interval)
            last = state.next_checkpoint + steps * interval
            if last > now:  # floating-point guard at the window boundary
                last -= interval
            at_ckpt = min(before, max(0.0, last - begin) * state.rate)
            state.ckpt_remaining = before - at_ckpt
            state.next_checkpoint = last + interval
        state.remaining = before - done
        state.busy_gpu_seconds += done * state.work_per_iteration
        if state.is_foreground:
            state.allocated_gpu_seconds += (now - start) * state.width
        elif not state.collocated:
            state.allocated_gpu_seconds += now - start
        # The job's remaining work moved: keep its registry position honest.
        if state in self.fg_running:
            self.fg_running.rekey(state, _work_key(state))
        elif state in self.bg_dedicated:
            self.bg_dedicated.rekey(state, _work_key(state))

    def _current_rate(self, state: _JobState) -> float:
        """Iterations per second in the job's current placement."""
        profile = self.scheduler.collocation
        if state.is_foreground:
            slowdown = profile.fg_slowdown if state.hosted else 1.0
            return 1.0 / (state.base_iter_time * slowdown)
        if state.collocated:
            assert state.host is not None
            busy = state.host.busy_fractions[state.host_index]
            efficiency = (
                (1.0 - busy) * profile.bg_idle_efficiency
                + busy * profile.bg_busy_efficiency
            )
            return efficiency / state.placed_iso_time
        return 1.0 / state.placed_iso_time

    def _reschedule_finish(self, state: _JobState, now: float) -> None:
        """Recompute the job's rate and (re)arm its finish event."""
        state.version += 1
        state.rate = self._current_rate(state)
        finish = now + state.remaining / state.rate
        if state.penalty_until > now:
            finish += state.penalty_until - now
        self.queue.push(finish, EventKind.JOB_FINISH, state.name, state.version)

    def _begin_placement(self, state: _JobState, now: float) -> None:
        """Common bookkeeping when a job starts (or restarts) running."""
        state.status = _RUNNING
        if state.start_time is None:
            state.start_time = now
        state.last_update = now
        if self.track_failures:
            begin = now
            if state.pending_restart_penalty > 0.0:
                if self._recorder is not None:
                    # The placement consumes the owed restart overhead here —
                    # the restart marker on the timeline.
                    self._recorder.emit(
                        now,
                        EV_RESTART,
                        job=state.name,
                        pool=state.gpu_type or "",
                        gpus=tuple(state.gpu_ids),
                        detail=f"overhead_s={state.pending_restart_penalty}",
                    )
                state.penalty_until = now + state.pending_restart_penalty
                state.pending_restart_penalty = 0.0
                begin = state.penalty_until
            else:
                state.penalty_until = 0.0
            # Placement snapshots progress by construction (evictions keep
            # it), so the checkpoint clock restarts here.
            self._snapshot_checkpoint(state, begin)

    def _snapshot_checkpoint(self, state: _JobState, begin: float) -> None:
        """Checkpoint the job's progress now; a rollback returns here.

        Called at every (re)configuration that serializes the job's state —
        placement, re-plan, migration — so ``work_per_iteration`` is always
        constant between the snapshot and any rollback that prices the lost
        iterations with it.
        """
        state.ckpt_remaining = state.remaining
        state.next_checkpoint = begin + self.scheduler.checkpoint.interval_s

    @staticmethod
    def _suspend_restart_penalty(state: _JobState, now: float) -> None:
        """Bank the unpaid part of a restart-overhead window on eviction.

        A restarted job pays ``restart_overhead_s`` of dead time after its
        placement; if it is evicted or killed mid-window, the unpaid
        remainder is owed again at its next placement instead of being
        silently forgiven.
        """
        if state.penalty_until > now:
            state.pending_restart_penalty += state.penalty_until - now
        state.penalty_until = 0.0

    # --------------------------------------------------------------- placement
    def _take_gpus(
        self, state: _JobState, gpu_pool: str, count: int, now: float
    ) -> List[int]:
        """Grant ``count`` GPUs of a pool to a job; returns their ids."""
        gpus = self.free.take(gpu_pool, count)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_GPU_GRANT, job=state.name, pool=gpu_pool,
                gpus=tuple(gpus), free_gpus=self.free.free_of(gpu_pool),
            )
        return gpus

    def _return_gpus(self, state: _JobState, now: float) -> None:
        """Return a job's GPUs to the free pool (its ids stay on the state)."""
        self.free.release(state.gpu_ids)
        if self._recorder is not None:
            pool = state.gpu_type or ""
            self._recorder.emit(
                now, EV_GPU_FREE, job=state.name, pool=pool,
                gpus=tuple(state.gpu_ids), free_gpus=self.free.free_of(pool),
            )

    def _install_plan(self, state: _JobState, plan: TrainingPlan) -> None:
        """Bind a burst-parallel plan and its per-GPU occupancy to a job.

        Every install of the same plan object shares one ``busy_fractions``
        list (the scheduler's occupancy memo), read-only from then on.
        """
        busy_fractions, work_per_iteration = self.scheduler._occupancy_of(plan)
        state.busy_fractions = busy_fractions
        state.plan = plan
        state.base_iter_time = plan.iteration_time
        state.work_per_iteration = work_per_iteration
        state.width = plan.total_gpus

    def _start_foreground(
        self, state: _JobState, width: int, gpu_pool: str, now: float
    ) -> None:
        self._install_plan(state, self.scheduler._plan_for(state.trace, width, gpu_pool))
        state.gpu_ids = self._take_gpus(state, gpu_pool, width, now)
        state.gpu_type = gpu_pool
        state.hosted = {}
        state.guest_order = SortedJobList()
        if self.open_slots is not None:
            self.open_slots.open(state)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_PLACEMENT, job=state.name, pool=gpu_pool,
                gpus=tuple(state.gpu_ids), width=width, detail="foreground",
            )
        self._begin_placement(state, now)
        self.fg_running.add(state, _work_key(state))
        self._reschedule_finish(state, now)

    def _start_background_dedicated(
        self, state: _JobState, gpu_pool: str, now: float
    ) -> None:
        state.width = 1
        state.gpu_ids = self._take_gpus(state, gpu_pool, 1, now)
        state.gpu_type = gpu_pool
        state.host = None
        state.placed_iso_time = self.scheduler._iso_time_on(
            state.trace.model, state.global_batch, gpu_pool
        )
        state.work_per_iteration = state.placed_iso_time
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_PLACEMENT, job=state.name, pool=gpu_pool,
                gpus=tuple(state.gpu_ids), width=1, detail="background",
            )
        self._begin_placement(state, now)
        self.bg_dedicated.add(state, _work_key(state))
        self._reschedule_finish(state, now)

    def _attach_background(
        self, state: _JobState, host: _JobState, index: int, now: float
    ) -> None:
        """Collocate a background job onto one GPU of a running foreground job."""
        first_guest = not host.hosted
        host.hosted[index] = state
        host.guest_order.add(state, (state.order,))
        assert self.open_slots is not None
        self.open_slots.refresh(host)
        state.host = host
        state.host_index = index
        state.width = 1
        state.gpu_ids = [host.gpu_ids[index]]
        state.gpu_type = host.gpu_type
        assert host.gpu_type is not None
        state.placed_iso_time = self.scheduler._iso_time_on(
            state.trace.model, state.global_batch, host.gpu_type
        )
        state.work_per_iteration = state.placed_iso_time
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_COLLOCATE, job=state.name, pool=state.gpu_type,
                gpus=tuple(state.gpu_ids), width=1,
                detail=f"collocated:{host.name}",
            )
        self._begin_placement(state, now)
        self._reschedule_finish(state, now)
        if first_guest:
            # The foreground host now pays the collocation slowdown.
            self._advance(host, now)
            self._reschedule_finish(host, now)

    def _detach_background(
        self, state: _JobState, now: float, rollback: bool = False
    ) -> None:
        """Return a collocated background job to the pending queue.

        ``rollback=True`` marks the detachment as failure-induced: the
        guest's own GPU died, so its progress rolls back to the last
        checkpoint and it owes a restart.
        """
        self._advance(state, now)
        if self.track_failures:
            self._suspend_restart_penalty(state, now)
        if rollback:
            self._rollback_to_checkpoint(state)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_DETACH, job=state.name, pool=state.gpu_type or "",
                gpus=tuple(state.gpu_ids),
                detail="rollback" if rollback else "requeue",
            )
        assert state.host is not None
        del state.host.hosted[state.host_index]
        state.host.guest_order.remove(state)
        state.host = None
        state.gpu_ids = []
        state.gpu_type = None
        state.status = _PENDING
        state.version += 1  # invalidate the in-flight finish event
        self.pending.add(state, now)

    def _preempt_background(self, state: _JobState, now: float) -> None:
        """Evict a dedicated background job, keeping its progress."""
        self.bg_dedicated.remove(state)
        self._advance(state, now)
        if self.track_failures:
            self._suspend_restart_penalty(state, now)
        self._return_gpus(state, now)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_PREEMPTION, job=state.name, pool=state.gpu_type or "",
                gpus=tuple(state.gpu_ids),
            )
        state.gpu_ids = []
        state.gpu_type = None
        state.status = _PENDING
        state.version += 1
        state.preemptions += 1
        self.pending.add(state, now)

    # ---------------------------------------------------------------- failures
    def _rollback_to_checkpoint(self, state: _JobState) -> None:
        """Lose the work since the last checkpoint and owe a restart."""
        lost = state.ckpt_remaining - state.remaining
        if lost > 0:
            wasted = lost * state.work_per_iteration
            state.remaining = state.ckpt_remaining
            state.busy_gpu_seconds -= wasted
            state.lost_gpu_seconds += wasted
        state.restarts += 1
        state.pending_restart_penalty = self.scheduler.checkpoint.restart_overhead_s

    def _fail_running(self, state: _JobState, now: float) -> None:
        """Kill a running job hit by a node failure and re-queue it.

        The caller has already removed the job from its registry (and
        evicted any guests).  Surviving GPUs return to the free pool;
        GPUs on the failed host are absorbed until recovery.
        """
        self._advance(state, now)
        self._suspend_restart_penalty(state, now)  # superseded by the rollback
        self._rollback_to_checkpoint(state)
        self._return_gpus(state, now)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_KILL, job=state.name, pool=state.gpu_type or "",
                gpus=tuple(state.gpu_ids), detail="node-failure",
            )
        state.gpu_ids = []
        state.gpu_type = None
        if state.is_foreground:
            state.hosted = {}
            state.guest_order = SortedJobList()
        state.status = _PENDING
        state.version += 1
        self.pending.add(state, now)

    def _fail_host(self, host: int, now: float) -> None:
        """Take one host down: kill and re-queue everything it touches."""
        down = set(self.free.fail_host(host))
        if self._recorder is not None:
            pool = self.scheduler.fleet.pool_of_host(host)
            self._recorder.emit(
                now, EV_NODE_FAILURE, pool=pool, host=host,
                gpus=tuple(sorted(down)), free_gpus=self.free.free_of(pool),
            )
        affected_fg = [
            s for s in list(self.fg_running) if not down.isdisjoint(s.gpu_ids)
        ]
        for state in affected_fg:
            if self.open_slots is not None:
                self.open_slots.close(state)
            # Guests are evicted first: one whose specific GPU died rolls
            # back like its host; one on a surviving GPU just loses its slot.
            for guest in list(state.guest_order):
                guest_died = bool(guest.gpu_ids) and guest.gpu_ids[0] in down
                self._detach_background(guest, now, rollback=guest_died)
            self.fg_running.remove(state)
            self._fail_running(state, now)
        affected_bg = [
            s for s in list(self.bg_dedicated) if not down.isdisjoint(s.gpu_ids)
        ]
        for state in affected_bg:
            self.bg_dedicated.remove(state)
            self._fail_running(state, now)

    # --------------------------------------------------------------- teardown
    def _release(
        self, state: _JobState, now: float, status: str, kind: str, **fields
    ) -> None:
        """Stop a running job for good: the one completion/cancel teardown.

        The job leaves its registry, its progress is settled, and its GPUs
        (or its collocation slot) are returned; then the terminal ``kind``
        event is emitted with ``fields``, and a foreground job's orphaned
        guests go back to the queue (re-placed by the next scheduling pass).
        """
        gpu_pool = state.gpu_type or ""
        gpus = tuple(state.gpu_ids)
        if state.is_foreground:
            self.fg_running.remove(state)
            if self.open_slots is not None:
                self.open_slots.close(state)
        elif not state.collocated:
            self.bg_dedicated.remove(state)
        self._advance(state, now)
        state.status = status
        host = state.host
        if host is not None:
            del host.hosted[state.host_index]
            host.guest_order.remove(state)
            assert self.open_slots is not None
            self.open_slots.refresh(host)
            state.host = None
            if not host.hosted:
                # Last guest left: the host runs at full speed again.
                self._advance(host, now)
                self._reschedule_finish(host, now)
        else:
            self._return_gpus(state, now)
        if self._recorder is not None:
            self._recorder.emit(
                now, kind, job=state.name, pool=gpu_pool, gpus=gpus, **fields
            )
        state.gpu_ids = []
        if state.is_foreground:
            for guest in list(state.guest_order):
                self._detach_background(guest, now)
            state.hosted = {}

    def _finish(self, state: _JobState, now: float) -> None:
        """Complete a running job and record it."""
        width = max(state.width, 1)
        self._release(state, now, _DONE, EV_COMPLETION, width=width)
        state.remaining = 0.0
        assert state.start_time is not None
        self.records.append(
            JobRecord(
                name=state.name,
                model=state.trace.model,
                kind=state.trace.kind,
                arrival_time=state.arrival_time,
                start_time=state.start_time,
                finish_time=now,
                iterations=state.trace.iterations,
                global_batch=state.global_batch,
                width=width,
                busy_gpu_seconds=state.busy_gpu_seconds,
                allocated_gpu_seconds=state.allocated_gpu_seconds,
                preemptions=state.preemptions,
                replans=state.replans,
                gpu_pool=state.gpu_type or "",
                restarts=state.restarts,
                lost_gpu_seconds=state.lost_gpu_seconds,
            )
        )

    # -------------------------------------------------------------- scheduling
    def _schedule_pending(self, now: float) -> None:
        """Place pending jobs until the policy makes no further progress.

        The queue is already in policy order (keys maintained on insertion),
        so one pass costs O(pending) instead of O(pending log pending);
        policies with time-varying keys declare ``dynamic_priority`` and are
        re-keyed here before each pass.  Foreground jobs try the fleet's
        pools in the policy's preference order (fastest first by default),
        falling back to slower pools when the fast ones are contended.
        """
        pending, free, policy = self.pending, self.free, self.policy
        fleet = self.scheduler.fleet
        while pending:
            if policy.dynamic_priority:
                pending.resort(now)
            order = list(pending)
            placed = 0
            waiting_fg = pending.foreground_waiting
            for state in order:
                if state.is_foreground:
                    placement: Optional[Tuple[str, int]] = None
                    for pool_name in policy.pool_preference(state, fleet):
                        pool_gpus = fleet.pool(pool_name).num_gpus
                        desired = policy.desired_width(state, pool_gpus)
                        if (
                            policy.preempt_background
                            and free.free_of(pool_name) < desired
                        ):
                            self._preempt_for(desired, pool_name, now)
                        width = policy.width_for(
                            state, free.free_of(pool_name), pool_gpus, waiting_fg
                        )
                        if width is not None:
                            placement = (pool_name, width)
                            break
                    waiting_fg -= 1  # this job's share is settled either way
                    if placement is None:
                        if policy.strict_order:
                            break
                        continue
                    # Placed jobs leave the queue immediately: a background
                    # job placed earlier in this pass may be preempted later
                    # in the same pass and must be free to re-enter it.
                    pending.remove(state)
                    self._start_foreground(state, placement[1], placement[0], now)
                    placed += 1
                else:
                    if self._place_background(state, now):
                        pending.remove(state)
                        placed += 1
                    elif policy.strict_order:
                        break
            if not placed:
                break

    def _preempt_for(self, desired: int, gpu_pool: str, now: float) -> None:
        """Evict the fewest dedicated background jobs that widen a placement.

        Widths are powers of two, so eviction only helps when it lifts
        ``floor_pow2`` of the pool's free count; preempting beyond that (or
        when even evicting every victim would not reach the next power of
        two) only churns background jobs without changing the foreground
        placement.  Only victims running *on the contended pool* are
        considered — evicting a background job from another pool frees the
        wrong kind of GPU.

        The victim registry is maintained most-remaining-work-first, so the
        eviction order needs no sort.
        """
        victims = [s for s in self.bg_dedicated if s.gpu_type == gpu_pool]
        free_gpus = self.free.free_of(gpu_pool)
        attainable = min(desired, floor_pow2(free_gpus + len(victims)))
        needed = attainable - free_gpus
        if attainable <= floor_pow2(free_gpus) or needed <= 0:
            return
        for victim in victims[:needed]:
            self._preempt_background(victim, now)

    def _place_background(self, state: _JobState, now: float) -> bool:
        # A whole free GPU always beats sharing one with a foreground job;
        # background jobs fill from the policy's least-preferred-first order
        # (slowest pool first by default).
        for pool_name in self.policy.pool_preference(state, self.scheduler.fleet):
            if self.free.free_of(pool_name):
                self._start_background_dedicated(state, pool_name, now)
                return True
        if self.policy.collocate_background:
            # The most idle open slot, minimising ``(busy, order, index)``.
            # Slots whose expected background efficiency falls below the
            # policy's ``min_collocation_efficiency`` are never indexed: a
            # background job crawling beside an always-busy foreground is
            # worse than waiting for a free GPU.
            assert self.open_slots is not None
            slot = self.open_slots.first()
            if slot is not None:
                self._attach_background(state, slot[0], slot[1], now)
                return True
        return False

    def _expand_running(self, now: float) -> None:
        """Re-plan running foreground jobs onto freed GPUs (widest win first).

        ``fg_running`` is maintained most-remaining-work-first, so scanning
        it in order and taking the first improvable job reproduces the old
        sort-then-pick without re-sorting per freed GPU.  A job first tries
        to widen within its own pool; when the policy allows
        ``replan_across_types`` (and the job hosts no guests, whose GPU
        slots a migration would destroy), it may instead migrate to another
        pool whose plan strictly beats its current iteration time.  Every
        action strictly lowers some job's iteration time over a finite set
        of (pool, width) plans, so the loop terminates.
        """
        sched, free = self.scheduler, self.free
        while free:
            expanded = False
            for state in list(self.fg_running):
                own = state.gpu_type
                assert own is not None
                own_gpus = sched.fleet.pool(own).num_gpus
                cap = width_cap(state, own_gpus)
                if state.width < cap:
                    new_width = min(
                        floor_pow2(state.width + free.free_of(own)), floor_pow2(cap)
                    )
                    if new_width > state.width:
                        plan = sched._plan_for(state.trace, new_width, own)
                        if plan.iteration_time < state.base_iter_time:
                            self._replan(state, plan, new_width, now)
                            expanded = True
                            break
                if self.policy.replan_across_types and not state.hosted:
                    if self._try_migrate(state, now):
                        expanded = True
                        break
            if not expanded:
                return

    def _try_migrate(self, state: _JobState, now: float) -> bool:
        """Move a job to another pool when that strictly beats its plan."""
        sched, free = self.scheduler, self.free
        for pool_name in sched.fleet.speed_order:
            if pool_name == state.gpu_type:
                continue
            pool_gpus = sched.fleet.pool(pool_name).num_gpus
            cap = width_cap(state, pool_gpus)
            width = min(floor_pow2(free.free_of(pool_name)), floor_pow2(cap))
            if width < 1:
                continue
            plan = sched._plan_for(state.trace, width, pool_name)
            if plan.iteration_time >= state.base_iter_time:
                continue
            self._advance(state, now)
            self._return_gpus(state, now)
            old_pool = state.gpu_type
            state.gpu_ids = self._take_gpus(state, pool_name, width, now)
            state.gpu_type = pool_name
            self._install_plan(state, plan)
            if self.open_slots is not None:
                self.open_slots.open(state)
            if self._recorder is not None:
                self._recorder.emit(
                    now, EV_MIGRATION, job=state.name, pool=pool_name,
                    gpus=tuple(state.gpu_ids), width=width, detail=f"from:{old_pool}",
                )
            if self.track_failures:
                # Migration serializes the job's state: checkpoint here so a
                # rollback never prices old iterations at the new plan's
                # per-iteration cost.
                self._snapshot_checkpoint(state, max(now, state.penalty_until))
            state.replans += 1
            self._reschedule_finish(state, now)
            return True
        return False

    def _replan(
        self, state: _JobState, plan: TrainingPlan, new_width: int, now: float
    ) -> None:
        """Move a running foreground job to a wider plan, keeping progress."""
        self._advance(state, now)
        assert state.gpu_type is not None
        old_width = state.width
        state.gpu_ids = state.gpu_ids + self._take_gpus(
            state, state.gpu_type, new_width - old_width, now
        )
        self._install_plan(state, plan)
        if self.open_slots is not None:
            self.open_slots.open(state)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_REPLAN, job=state.name, pool=state.gpu_type,
                gpus=tuple(state.gpu_ids), width=new_width,
                detail=f"from_width:{old_width}",
            )
        if self.track_failures:
            # Re-planning serializes the job's state: checkpoint here so a
            # rollback never prices old iterations at the new plan's
            # per-iteration cost.
            self._snapshot_checkpoint(state, max(now, state.penalty_until))
        state.replans += 1
        self._reschedule_finish(state, now)
        # Guests keep their GPU slot but their host's gaps moved.
        for guest in list(state.guest_order):
            self._advance(guest, now)
            self._reschedule_finish(guest, now)
