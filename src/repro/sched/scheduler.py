"""Trace-driven multi-tenant cluster scheduler.

This is the cluster-manager story of the paper turned into a discrete-event
simulator: a stream of :class:`~repro.sched.traces.TraceJob`\\ s arrives over
time, a :class:`~repro.sched.policies.SchedulingPolicy` decides admission
order and GPU widths, the :class:`~repro.core.planner.planner.BurstParallelPlanner`
produces a burst-parallel plan for every foreground placement, the
:class:`~repro.cluster.coordinator.ClusterCoordinator` maps the plan onto the
job's GPUs (yielding per-GPU busy fractions), and background jobs are packed
onto the idle gaps of foreground GPUs through the
:class:`~repro.cluster.executor.CollocationProfile`.

The event loop supports the dynamics a real cluster manager needs:

* **admission / backfilling** — pending jobs are (re)considered at every
  arrival and completion, in policy order;
* **collocation** — background jobs attached to a foreground GPU progress at
  ``idle * bg_idle_efficiency + busy * bg_busy_efficiency`` of their isolated
  rate while slowing the host foreground job by ``fg_slowdown``;
* **preemption** — policies may evict dedicated background jobs (their
  progress is kept; they re-enter the pending queue) to make room for
  foreground work;
* **re-planning** — when completions free GPUs and the queue is empty,
  policies may re-plan a running foreground job to a wider burst-parallel
  plan (or, on a heterogeneous fleet, migrate it to a faster pool),
  preserving its progress;
* **heterogeneity** — the cluster is a :class:`~repro.sched.fleet.ClusterFleet`
  of named GPU pools (mixed generations).  Every pool gets its own
  profiler/planner identity, plans and isolated-iteration times are derived
  and cached per pool (no aliasing across GPU types), and policies place
  foreground jobs fastest-pool-first with fallback to slower pools on
  contention while background jobs fill from the slowest pool up;
* **failures** — :class:`~repro.sched.failures.NodeFailure` events take whole
  hosts down.  Jobs touching a failed host are killed, rolled back to their
  last checkpoint under the scheduler's
  :class:`~repro.sched.failures.CheckpointModel` (lost work is accounted as
  ``lost_gpu_seconds``), their collocated guests are evicted and re-queued,
  and restarted jobs pay a restart overhead at their next placement.
  Recovery returns the host's GPUs to the free pool — never leaked, never
  double-freed.

Plans are cached by ``(model, batch, width, amplification limit)`` plus the
owning pool planner's content fingerprint (so schedulers with different
planner or profiler configurations — or two pools of different GPU
generations — can never alias plans), and the cache can be pre-warmed before
replay via :meth:`ClusterScheduler.prewarm_plans` — batch planning every
(model, width) a trace can request, optionally across worker processes
through a :class:`~repro.core.planner.pool.PlannerPool`.

The placement pass is *incremental*: the pending queue, the running
foreground jobs, the dedicated background jobs and each host's guests are
kept in mutation-maintained order (:mod:`repro.sched.ordering`) instead of
being re-sorted on every event, so one scheduling point costs O(changes ·
log n), not O(n log n).  Background collocation picks its slot from an
:class:`~repro.sched.ordering.OpenSlotIndex` of open, efficient-enough
foreground GPUs kept in pick order, updated only where a slot opens or
closes (foreground start, stop, re-plan and migration; guest attach and
departure), instead of scanning every running job's GPUs per placement.
Each distinct plan is placed by the coordinator once, at its first
install; its busy fractions and busy GPU-seconds are then shared by every
job that runs it.  Everything is deterministic: identical traces,
policies and failure schedules produce bit-identical
:class:`~repro.sched.metrics.FleetMetrics` — and a homogeneous one-pool
fleet reproduces the pre-fleet scheduler bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cluster.coordinator import ClusterCoordinator
from ..cluster.executor import CollocationProfile
from ..core.planner.plan import TrainingPlan
from ..core.planner.planner import BurstParallelPlanner
from ..core.planner.pool import PlannerPool, PlanRequest
from ..models.graph import ModelGraph
from ..models.registry import build_model
from ..network.fabric import NetworkFabric, get_fabric
from ..obs.sampler import TimeSeriesSampler
from ..obs.trace import (
    EV_COLLOCATE,
    EV_COMPLETION,
    EV_DETACH,
    EV_GPU_FREE,
    EV_GPU_GRANT,
    EV_KILL,
    EV_MIGRATION,
    EV_NODE_FAILURE,
    EV_PLACEMENT,
    EV_PREEMPTION,
    EV_REPLAN,
    EV_RESTART,
    TraceRecorder,
)
from ..profiler.layer_profiler import LayerProfiler
from .engine import (  # noqa: F401  (ScheduleResult re-exported for API stability)
    ScheduleResult,
    SchedulerEngine,
    _DONE,
    _JobState,
    _PENDING,
    _RUNNING,
)
from .events import EventKind, EventQueue
from .failures import CheckpointModel, NodeFailure
from .fleet import ClusterFleet, FleetPool
from .metrics import JobRecord
from .ordering import OpenSlotIndex, PendingQueue, SortedJobList
from .policies import SchedulingPolicy, floor_pow2, width_cap
from .traces import TraceJob

__all__ = ["ClusterScheduler", "ScheduleResult"]


class ClusterScheduler:
    """Discrete-event scheduler serving a trace of jobs on a GPU cluster.

    The cluster is either homogeneous (``num_gpus`` identical GPUs matching
    the profiler's spec — the legacy constructor) or a
    :class:`~repro.sched.fleet.ClusterFleet` of named pools mixing GPU
    generations.  One instance can run many (trace, policy, failures)
    combinations; planner and profiler caches persist across runs, so
    comparing policies on the same trace only pays each burst-parallel plan
    search once.  Pools whose GPU spec matches the scheduler's profiler
    share its profiler/planner (and therefore its caches); other pools get
    per-pool instances with their own content fingerprints, so plans and
    profiles can never alias across GPU types.
    """

    def __init__(
        self,
        num_gpus: Union[int, ClusterFleet],
        fabric: Union[NetworkFabric, str, None] = None,
        profiler: Optional[LayerProfiler] = None,
        planner: Optional[BurstParallelPlanner] = None,
        collocation: Optional[CollocationProfile] = None,
        checkpoint: Optional[CheckpointModel] = None,
    ) -> None:
        fleet: Optional[ClusterFleet]
        if isinstance(num_gpus, ClusterFleet):
            fleet = num_gpus
        else:
            if num_gpus < 1:
                raise ValueError("num_gpus must be at least 1")
            fleet = None  # built below, once the profiler's GPU spec is known
        if fabric is None or isinstance(fabric, str):
            fabric = get_fabric(fabric if fabric is not None else "nvswitch")
        self.fabric = fabric
        self.profiler = profiler if profiler is not None else LayerProfiler()
        self.planner = (
            planner
            if planner is not None
            else BurstParallelPlanner(self.fabric, self.profiler)
        )
        self.collocation = (
            collocation if collocation is not None else CollocationProfile()
        )
        self.checkpoint = checkpoint if checkpoint is not None else CheckpointModel()
        if fleet is None:
            fleet = ClusterFleet.homogeneous(num_gpus, gpu=self.profiler.gpu)
        self.fleet = fleet
        self.num_gpus = fleet.num_gpus
        #: Pools whose GPU spec matches ``self.profiler`` resolve to
        #: ``self.planner`` / ``self.profiler`` dynamically, so swapping
        #: either attribute after construction can never serve stale plans.
        self._default_pools = {
            pool.name for pool in fleet.pools if pool.gpu == self.profiler.gpu
        }
        self._reference_pool = fleet.speed_order[0]
        self._pool_profilers: Dict[str, LayerProfiler] = {}
        self._pool_planners: Dict[str, BurstParallelPlanner] = {}
        self._plan_cache: Dict[Tuple[str, int, int, float, str], TrainingPlan] = {}
        self._graph_cache: Dict[str, ModelGraph] = {}
        self._iso_cache: Dict[Tuple[str, int, str], float] = {}
        self._states: Dict[str, _JobState] = {}
        # Planner identities folded into plan-cache keys; memoized per
        # planner object so swapping a planner can never serve the old
        # planner's plans.
        self._planner_fps: Dict[int, Tuple[BurstParallelPlanner, str]] = {}
        # Per-GPU busy fractions and busy GPU-seconds per iteration of every
        # installed plan, keyed by plan object (held, so ids stay unique).
        # Filled lazily at first install, never by prewarming.
        self._occupancy: Dict[int, Tuple[TrainingPlan, List[float], float]] = {}
        # Mutation-maintained placement registries (re-bound per run).
        self._fg_running = SortedJobList()
        self._bg_dedicated = SortedJobList()
        #: Open collocation slots; ``None`` under policies that never collocate.
        self._open_slots: Optional[OpenSlotIndex] = None
        self._free = FleetPool(fleet)
        self._track_failures = False
        # Observability seams (repro.obs).  ``None`` means disabled; every
        # emission site guards on that, so an unobserved run pays exactly one
        # attribute load + ``is None`` test per state change — nothing else.
        self._recorder: Optional[TraceRecorder] = None
        self._sampler: Optional[TimeSeriesSampler] = None

    # ----------------------------------------------------------- observability
    def attach_recorder(self, recorder: Optional[TraceRecorder]) -> None:
        """Attach a trace recorder (``None`` detaches).

        The recorder receives one structured event per scheduler state
        change — placements, collocations, preemptions, re-plans,
        migrations, failures, restarts, completions, per-pool GPU
        grants/frees — stamped with simulated time.  Recording only *reads*
        state, so metrics are bit-identical with or without it.
        """
        self._recorder = recorder

    def attach_sampler(self, sampler: Optional[TimeSeriesSampler]) -> None:
        """Attach a time-series sampler (``None`` detaches).

        The sampler records cluster gauges (pending depth, free GPUs per
        pool, allocation, collocated guests, failed hosts) on its fixed
        sim-time grid during :meth:`run`.
        """
        self._sampler = sampler

    def _make_gauges(self, pending, free: FleetPool):
        """Gauge callback for the attached sampler, bound to one run's state."""
        pool_names = self.fleet.pool_names
        num_gpus = self.num_gpus

        def gauges() -> Dict[str, Union[int, float]]:
            free_total = len(free)
            down = free.num_down_gpus
            reading: Dict[str, Union[int, float]] = {
                "pending_jobs": len(pending),
                "running_foreground": len(self._fg_running),
                "running_background": len(self._bg_dedicated),
                "collocated_guests": sum(len(s.hosted) for s in self._fg_running),
                "free_gpus": free_total,
                "failed_hosts": free.num_down_hosts,
                "down_gpus": down,
                "allocated_gpus": num_gpus - free_total - down,
                "utilization_allocated": (num_gpus - free_total - down) / num_gpus,
            }
            for name in pool_names:
                reading[f"free_gpus.{name}"] = free.free_of(name)
            return reading

        return gauges

    # ------------------------------------------------------------------ caches
    def _graph(self, model: str) -> ModelGraph:
        if model not in self._graph_cache:
            self._graph_cache[model] = build_model(model)
        return self._graph_cache[model]

    def _profiler_for(self, pool_name: str) -> LayerProfiler:
        """The layer profiler modeling one pool's GPU generation."""
        if pool_name in self._default_pools:
            return self.profiler
        prof = self._pool_profilers.get(pool_name)
        if prof is None:
            pool = self.fleet.pool(pool_name)
            prof = LayerProfiler(
                gpu=pool.gpu,
                use_cuda_graphs=self.profiler.use_cuda_graphs,
                dtype_bytes=self.profiler.dtype_bytes,
                enable_cache=self.profiler.enable_cache,
                persistent_cache=self.profiler.persistent_cache,
            )
            self._pool_profilers[pool_name] = prof
        return prof

    def _planner_for(self, pool_name: str) -> BurstParallelPlanner:
        """The burst-parallel planner targeting one pool's GPU generation."""
        if pool_name in self._default_pools:
            return self.planner
        planner = self._pool_planners.get(pool_name)
        if planner is None:
            planner = BurstParallelPlanner(
                self.fabric,
                self._profiler_for(pool_name),
                config=self.planner.config,
                cache=self.planner.cache,
            )
            self._pool_planners[pool_name] = planner
        return planner

    def _iso_time_on(self, model: str, batch: int, pool_name: str) -> float:
        """Isolated single-GPU iteration time of a model on one pool."""
        key = (model, batch, pool_name)
        if key not in self._iso_cache:
            self._iso_cache[key] = self._profiler_for(pool_name).iteration_compute_time(
                self._graph(model), batch
            )
        return self._iso_cache[key]

    def _iso_iter_time(self, model: str, batch: int) -> float:
        """Isolated iteration time on the reference (fastest) pool."""
        return self._iso_time_on(model, batch, self._reference_pool)

    def _fingerprint_of(self, planner: BurstParallelPlanner) -> str:
        entry = self._planner_fps.get(id(planner))
        if entry is None or entry[0] is not planner:
            entry = (planner, planner.fingerprint())
            self._planner_fps[id(planner)] = entry
        return entry[1]

    def _plan_cache_key(
        self,
        model: str,
        batch: int,
        width: int,
        amp_limit: float,
        gpu_pool: Optional[str] = None,
    ) -> Tuple[str, int, int, float, str]:
        planner = self.planner if gpu_pool is None else self._planner_for(gpu_pool)
        return (model, batch, width, amp_limit, self._fingerprint_of(planner))

    def _plan_for(self, state: _JobState, width: int, gpu_pool: str) -> TrainingPlan:
        key = self._plan_cache_key(
            state.trace.model,
            state.global_batch,
            width,
            state.trace.amplification_limit,
            gpu_pool,
        )
        if key not in self._plan_cache:
            self._plan_cache[key] = self._planner_for(gpu_pool).plan(
                state.graph,
                state.global_batch,
                width,
                amplification_limit=state.trace.amplification_limit,
            )
        return self._plan_cache[key]

    def prewarm_plans(
        self,
        trace: Sequence[TraceJob],
        pool: Optional[PlannerPool] = None,
    ) -> int:
        """Plan every (model, width, GPU pool) the trace can request.

        Every foreground job is expanded to the power-of-two widths its
        policy could ever place it at on each fleet pool (1 up to
        ``floor_pow2`` of the pool/batch/``max_gpus`` cap), the deduplicated
        requests are planned — through ``pool`` (possibly multiprocess,
        possibly backed by a shared persistent cache) when given, inline on
        the per-pool planners otherwise — and the results seed
        :attr:`_plan_cache` so trace replay never stalls on a planner
        search.  Returns the number of plans seeded.

        A :class:`~repro.core.planner.pool.PlannerPool` plans for exactly
        one GPU identity, so pool-backed prewarming requires a homogeneous
        fleet and a pool whose fabric/profiler/planner fingerprint matches
        this scheduler's planner; a mismatch raises ``ValueError``.  Pool
        results are deterministic and independent of the worker count, so
        replay metrics are identical whether the cache was warmed inline,
        by one worker, or by many.
        """
        if pool is not None:
            if not self.fleet.is_homogeneous:
                raise ValueError(
                    "PlannerPool-backed prewarming plans for a single GPU "
                    "identity; a heterogeneous fleet must prewarm inline "
                    "(pool=None)"
                )
            # Validate against the fleet pool's planner — the identity the
            # seeded cache keys carry — not ``self.planner``, which models a
            # different GPU whenever the single pool's spec diverges from
            # the scheduler's profiler.
            target = self._planner_for(self.fleet.pool_names[0])
            pool_fp = pool.planner().fingerprint()
            if pool_fp != self._fingerprint_of(target):
                raise ValueError(
                    "PlannerPool configuration does not match this "
                    "scheduler's planner for the fleet's GPU pool "
                    "(fabric/profiler/config fingerprints differ); prewarmed "
                    "plans would alias under the wrong planner identity"
                )
        seeded = 0
        for pool_name in self.fleet.pool_names:
            pool_gpus = self.fleet.pool(pool_name).num_gpus
            requests: List[PlanRequest] = []
            seen = set()
            for job in trace:
                if not job.is_foreground:
                    continue
                cap = width_cap(job, pool_gpus)
                width = 1
                top = floor_pow2(max(cap, 1))
                while width <= top:
                    request = PlanRequest(
                        job.model, job.global_batch, width, job.amplification_limit
                    )
                    if request not in seen:
                        seen.add(request)
                        requests.append(request)
                    width *= 2
            if pool is not None:
                plans = pool.plan_batch(requests)
            else:
                planner = self._planner_for(pool_name)
                plans = [
                    planner.plan(
                        self._graph(r.model),
                        r.global_batch,
                        r.total_gpus,
                        amplification_limit=r.amplification_limit,
                    )
                    for r in requests
                ]
            for request, plan in zip(requests, plans):
                key = self._plan_cache_key(
                    request.model,
                    request.global_batch,
                    request.total_gpus,
                    request.amplification_limit,
                    pool_name,
                )
                if key not in self._plan_cache:
                    self._plan_cache[key] = plan
                    seeded += 1
        return seeded

    def prewarm_job(self, job: TraceJob) -> int:
        """Plan every (pool, width) one foreground job could be placed at.

        The online service calls this at admission time
        (``prewarm_on_admit``) so the job's first placement never stalls on
        a planner search.  Returns the number of plans seeded — 0 for
        background jobs, whose dedicated and collocated rates derive from
        the profiler rather than a plan.
        """
        if not job.is_foreground:
            return 0
        seeded = 0
        for pool_name in self.fleet.pool_names:
            pool_gpus = self.fleet.pool(pool_name).num_gpus
            width = 1
            top = floor_pow2(max(width_cap(job, pool_gpus), 1))
            while width <= top:
                key = self._plan_cache_key(
                    job.model,
                    job.global_batch,
                    width,
                    job.amplification_limit,
                    pool_name,
                )
                if key not in self._plan_cache:
                    self._plan_cache[key] = self._planner_for(pool_name).plan(
                        self._graph(job.model),
                        job.global_batch,
                        width,
                        amplification_limit=job.amplification_limit,
                    )
                    seeded += 1
                width *= 2
        return seeded

    # --------------------------------------------------------------- event loop
    def run(
        self,
        trace: Sequence[TraceJob],
        policy: Union[str, SchedulingPolicy],
        failures: Sequence[NodeFailure] = (),
    ) -> ScheduleResult:
        """Simulate the whole trace under one policy and return its metrics.

        ``failures`` is an optional schedule of
        :class:`~repro.sched.failures.NodeFailure` events (see
        :func:`~repro.sched.failures.inject_failures`); each one takes a
        host down at its time and brings it back after its duration.

        The loop itself lives in :class:`~repro.sched.engine.SchedulerEngine`
        (shared with the online :class:`~repro.serve.service.SchedulerService`);
        this method is the offline driver: queue every arrival in trace
        order, queue the failure schedule, drain to quiescence.
        """
        if not trace:
            raise ValueError("trace must contain at least one job")
        names = [job.name for job in trace]
        if len(set(names)) != len(names):
            raise ValueError("trace job names must be unique")
        engine = SchedulerEngine(self, policy)
        for job in trace:
            engine.add_job(job)
        engine.add_failures(failures)
        engine.drain()
        return engine.result(require_complete=True)

    # ---------------------------------------------------------------- progress
    @staticmethod
    def _work_key(state: _JobState) -> Tuple[float, int]:
        """Most-remaining-work-first ordering (preemption/re-plan registries)."""
        return (-state.remaining_gpu_seconds, state.order)

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
            self._track_failures
            and state.next_checkpoint is not None
            and state.next_checkpoint <= now
        ):
            # Snapshot the remaining work at the *latest* checkpoint instant
            # the window covers (earlier ones are superseded, so they are
            # never materialized); a failure rolls back to this snapshot.
            interval = self.checkpoint.interval_s
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
        if state in self._fg_running:
            self._fg_running.rekey(state, self._work_key(state))
        elif state in self._bg_dedicated:
            self._bg_dedicated.rekey(state, self._work_key(state))

    def _current_rate(self, state: _JobState) -> float:
        """Iterations per second in the job's current placement."""
        profile = self.collocation
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

    def _reschedule_finish(
        self, state: _JobState, now: float, queue: EventQueue
    ) -> None:
        """Recompute the job's rate and (re)arm its finish event."""
        state.version += 1
        state.rate = self._current_rate(state)
        finish = now + state.remaining / state.rate
        if state.penalty_until > now:
            finish += state.penalty_until - now
        queue.push(finish, EventKind.JOB_FINISH, state.name, state.version)

    def _begin_placement(self, state: _JobState, now: float) -> None:
        """Common bookkeeping when a job starts (or restarts) running."""
        state.status = _RUNNING
        if state.start_time is None:
            state.start_time = now
        state.last_update = now
        if self._track_failures:
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
        state.next_checkpoint = begin + self.checkpoint.interval_s

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
    def _install_plan(self, state: _JobState, plan: TrainingPlan) -> None:
        """Bind a burst-parallel plan (and its per-GPU occupancy) to a job.

        The coordinator places each distinct plan once; every later install
        of the same plan object shares its ``busy_fractions`` list, which
        is read-only from then on.
        """
        occupancy = self._occupancy.get(id(plan))
        if occupancy is None:
            coordinator = ClusterCoordinator(num_gpus=plan.total_gpus)
            coordinator.place_plan(plan)
            occupancy = (
                plan,
                coordinator.busy_fractions(plan.iteration_time),
                plan.total_gpu_seconds(),
            )
            self._occupancy[id(plan)] = occupancy
        state.busy_fractions = occupancy[1]
        state.plan = plan
        state.base_iter_time = plan.iteration_time
        state.work_per_iteration = occupancy[2]
        state.width = plan.total_gpus

    def _start_foreground(
        self, state: _JobState, width: int, gpu_pool: str, now: float,
        free: FleetPool, queue: EventQueue,
    ) -> None:
        self._install_plan(state, self._plan_for(state, width, gpu_pool))
        state.gpu_ids = free.take(gpu_pool, width)
        state.gpu_type = gpu_pool
        state.hosted = {}
        state.guest_order = SortedJobList()
        if self._open_slots is not None:
            self._open_slots.open(state)
        if self._recorder is not None:
            gpus = tuple(state.gpu_ids)
            self._recorder.emit(
                now, EV_GPU_GRANT, job=state.name, pool=gpu_pool,
                gpus=gpus, free_gpus=free.free_of(gpu_pool),
            )
            self._recorder.emit(
                now, EV_PLACEMENT, job=state.name, pool=gpu_pool,
                gpus=gpus, width=width, detail="foreground",
            )
        self._begin_placement(state, now)
        self._fg_running.add(state, self._work_key(state))
        self._reschedule_finish(state, now, queue)

    def _start_background_dedicated(
        self, state: _JobState, gpu_pool: str, now: float, free: FleetPool,
        queue: EventQueue,
    ) -> None:
        state.width = 1
        state.gpu_ids = free.take(gpu_pool, 1)
        state.gpu_type = gpu_pool
        state.host = None
        state.placed_iso_time = self._iso_time_on(
            state.trace.model, state.global_batch, gpu_pool
        )
        state.work_per_iteration = state.placed_iso_time
        if self._recorder is not None:
            gpus = tuple(state.gpu_ids)
            self._recorder.emit(
                now, EV_GPU_GRANT, job=state.name, pool=gpu_pool,
                gpus=gpus, free_gpus=free.free_of(gpu_pool),
            )
            self._recorder.emit(
                now, EV_PLACEMENT, job=state.name, pool=gpu_pool,
                gpus=gpus, width=1, detail="background",
            )
        self._begin_placement(state, now)
        self._bg_dedicated.add(state, self._work_key(state))
        self._reschedule_finish(state, now, queue)

    def _attach_background(
        self, state: _JobState, host: _JobState, index: int, now: float,
        queue: EventQueue,
    ) -> None:
        """Collocate a background job onto one GPU of a running foreground job."""
        first_guest = not host.hosted
        host.hosted[index] = state
        host.guest_order.add(state, (state.order,))
        assert self._open_slots is not None
        self._open_slots.refresh(host)
        state.host = host
        state.host_index = index
        state.width = 1
        state.gpu_ids = [host.gpu_ids[index]]
        state.gpu_type = host.gpu_type
        assert host.gpu_type is not None
        state.placed_iso_time = self._iso_time_on(
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
        self._reschedule_finish(state, now, queue)
        if first_guest:
            # The foreground host now pays the collocation slowdown.
            self._advance(host, now)
            self._reschedule_finish(host, now, queue)

    def _pick_background_host(self) -> Optional[Tuple[_JobState, int]]:
        """Most-idle open slot on a running foreground job, or ``None``.

        The slot minimises ``(busy, order, index)`` over the run's open
        collocation slots: the first entry of :attr:`_open_slots`, which the
        placement, completion, failure, re-plan and migration paths keep
        current.  Slots whose expected background efficiency falls below the
        policy's ``min_collocation_efficiency`` are never indexed: a
        background job crawling beside an always-busy foreground is worse
        than waiting for a free GPU.
        """
        assert self._open_slots is not None
        return self._open_slots.first()

    def _detach_background(
        self, state: _JobState, now: float, pending: PendingQueue,
        rollback: bool = False,
    ) -> None:
        """Return a collocated background job to the pending queue.

        ``rollback=True`` marks the detachment as failure-induced: the
        guest's own GPU died, so its progress rolls back to the last
        checkpoint and it owes a restart.
        """
        self._advance(state, now)
        if self._track_failures:
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
        pending.add(state, now)

    def _preempt_background(
        self, state: _JobState, now: float, free: FleetPool,
        pending: PendingQueue,
    ) -> None:
        """Evict a dedicated background job, keeping its progress."""
        self._bg_dedicated.remove(state)
        self._advance(state, now)
        if self._track_failures:
            self._suspend_restart_penalty(state, now)
        free.release(state.gpu_ids)
        if self._recorder is not None:
            pool = state.gpu_type or ""
            gpus = tuple(state.gpu_ids)
            self._recorder.emit(
                now, EV_GPU_FREE, job=state.name, pool=pool,
                gpus=gpus, free_gpus=free.free_of(pool),
            )
            self._recorder.emit(
                now, EV_PREEMPTION, job=state.name, pool=pool, gpus=gpus,
            )
        state.gpu_ids = []
        state.gpu_type = None
        state.status = _PENDING
        state.version += 1
        state.preemptions += 1
        pending.add(state, now)

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
        state.pending_restart_penalty = self.checkpoint.restart_overhead_s

    def _fail_running(
        self, state: _JobState, now: float, free: FleetPool, pending: PendingQueue
    ) -> None:
        """Kill a running job hit by a node failure and re-queue it.

        The caller has already removed the job from its registry (and
        evicted any guests).  Surviving GPUs return to the free pool;
        GPUs on the failed host are absorbed until recovery.
        """
        self._advance(state, now)
        self._suspend_restart_penalty(state, now)  # superseded by the rollback
        self._rollback_to_checkpoint(state)
        free.release(state.gpu_ids)
        if self._recorder is not None:
            pool = state.gpu_type or ""
            gpus = tuple(state.gpu_ids)
            self._recorder.emit(
                now, EV_GPU_FREE, job=state.name, pool=pool,
                gpus=gpus, free_gpus=free.free_of(pool),
            )
            self._recorder.emit(
                now, EV_KILL, job=state.name, pool=pool, gpus=gpus,
                detail="node-failure",
            )
        state.gpu_ids = []
        state.gpu_type = None
        if state.is_foreground:
            state.hosted = {}
            state.guest_order = SortedJobList()
        state.status = _PENDING
        state.version += 1
        pending.add(state, now)

    def _fail_host(
        self, host: int, now: float, free: FleetPool, pending: PendingQueue
    ) -> None:
        """Take one host down: kill and re-queue everything it touches."""
        down = set(free.fail_host(host))
        if self._recorder is not None:
            pool = self.fleet.pool_of_host(host)
            self._recorder.emit(
                now, EV_NODE_FAILURE, pool=pool, host=host,
                gpus=tuple(sorted(down)), free_gpus=free.free_of(pool),
            )
        affected_fg = [
            s for s in list(self._fg_running) if not down.isdisjoint(s.gpu_ids)
        ]
        for state in affected_fg:
            if self._open_slots is not None:
                self._open_slots.close(state)
            # Guests are evicted first: one whose specific GPU died rolls
            # back like its host; one on a surviving GPU just loses its slot.
            for guest in list(state.guest_order):
                guest_died = bool(guest.gpu_ids) and guest.gpu_ids[0] in down
                self._detach_background(guest, now, pending, rollback=guest_died)
            self._fg_running.remove(state)
            self._fail_running(state, now, free, pending)
        affected_bg = [
            s for s in list(self._bg_dedicated) if not down.isdisjoint(s.gpu_ids)
        ]
        for state in affected_bg:
            self._bg_dedicated.remove(state)
            self._fail_running(state, now, free, pending)

    # --------------------------------------------------------------- completion
    def _finish(
        self, state: _JobState, now: float, free: FleetPool,
        pending: PendingQueue, queue: EventQueue, records: List[JobRecord],
    ) -> None:
        gpu_pool = state.gpu_type or ""
        if state.is_foreground:
            self._fg_running.remove(state)
            if self._open_slots is not None:
                self._open_slots.close(state)
        elif not state.collocated:
            self._bg_dedicated.remove(state)
        self._advance(state, now)
        state.remaining = 0.0
        state.status = _DONE
        if state.collocated:
            assert state.host is not None
            host = state.host
            del host.hosted[state.host_index]
            host.guest_order.remove(state)
            assert self._open_slots is not None
            self._open_slots.refresh(host)
            state.host = None
            if not host.hosted:
                # Last guest left: the host runs at full speed again.
                self._advance(host, now)
                self._reschedule_finish(host, now, queue)
        else:
            free.release(state.gpu_ids)
            if self._recorder is not None:
                self._recorder.emit(
                    now, EV_GPU_FREE, job=state.name, pool=gpu_pool,
                    gpus=tuple(state.gpu_ids), free_gpus=free.free_of(gpu_pool),
                )
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_COMPLETION, job=state.name, pool=gpu_pool,
                gpus=tuple(state.gpu_ids), width=max(state.width, 1),
            )
        state.gpu_ids = []
        if state.is_foreground:
            # Orphaned guests go back to the queue and are re-placed below.
            for guest in list(state.guest_order):
                self._detach_background(guest, now, pending)
            state.hosted = {}
        assert state.start_time is not None
        records.append(
            JobRecord(
                name=state.name,
                model=state.trace.model,
                kind=state.trace.kind,
                arrival_time=state.arrival_time,
                start_time=state.start_time,
                finish_time=now,
                iterations=state.trace.iterations,
                global_batch=state.global_batch,
                width=max(state.width, 1),
                busy_gpu_seconds=state.busy_gpu_seconds,
                allocated_gpu_seconds=state.allocated_gpu_seconds,
                preemptions=state.preemptions,
                replans=state.replans,
                gpu_pool=gpu_pool,
                restarts=state.restarts,
                lost_gpu_seconds=state.lost_gpu_seconds,
            )
        )

    # -------------------------------------------------------------- scheduling
    def _schedule_pending(
        self, now: float, pending: PendingQueue, free: FleetPool,
        policy: SchedulingPolicy, queue: EventQueue,
    ) -> None:
        """Place pending jobs until the policy makes no further progress.

        The queue is already in policy order (keys maintained on insertion),
        so one pass costs O(pending) instead of O(pending log pending);
        policies with time-varying keys declare ``dynamic_priority`` and are
        re-keyed here before each pass.  Foreground jobs try the fleet's
        pools in the policy's preference order (fastest first by default),
        falling back to slower pools when the fast ones are contended.
        """
        while pending:
            if policy.dynamic_priority:
                pending.resort(now)
            order = list(pending)
            placed = 0
            waiting_fg = pending.foreground_waiting
            for state in order:
                if state.is_foreground:
                    placement: Optional[Tuple[str, int]] = None
                    for pool_name in policy.pool_preference(state, self.fleet):
                        pool_gpus = self.fleet.pool(pool_name).num_gpus
                        desired = policy.desired_width(state, pool_gpus)
                        if (
                            policy.preempt_background
                            and free.free_of(pool_name) < desired
                        ):
                            self._preempt_for(
                                desired, pool_name, now, free, pending
                            )
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
                    self._start_foreground(
                        state, placement[1], placement[0], now, free, queue
                    )
                    placed += 1
                else:
                    if self._place_background(state, now, free, policy, queue):
                        pending.remove(state)
                        placed += 1
                    elif policy.strict_order:
                        break
            if not placed:
                break

    def _preempt_for(
        self, desired: int, gpu_pool: str, now: float, free: FleetPool,
        pending: PendingQueue,
    ) -> None:
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
        victims = [s for s in self._bg_dedicated if s.gpu_type == gpu_pool]
        free_gpus = free.free_of(gpu_pool)
        attainable = min(desired, floor_pow2(free_gpus + len(victims)))
        needed = attainable - free_gpus
        if attainable <= floor_pow2(free_gpus) or needed <= 0:
            return
        for victim in victims[:needed]:
            self._preempt_background(victim, now, free, pending)

    def _place_background(
        self, state: _JobState, now: float, free: FleetPool,
        policy: SchedulingPolicy, queue: EventQueue,
    ) -> bool:
        # A whole free GPU always beats sharing one with a foreground job;
        # background jobs fill from the policy's least-preferred-first order
        # (slowest pool first by default).
        for pool_name in policy.pool_preference(state, self.fleet):
            if free.free_of(pool_name):
                self._start_background_dedicated(state, pool_name, now, free, queue)
                return True
        if policy.collocate_background:
            host = self._pick_background_host()
            if host is not None:
                self._attach_background(state, host[0], host[1], now, queue)
                return True
        return False

    def _expand_running(
        self, now: float, free: FleetPool, policy: SchedulingPolicy,
        queue: EventQueue,
    ) -> None:
        """Re-plan running foreground jobs onto freed GPUs (widest win first).

        ``_fg_running`` is maintained most-remaining-work-first, so scanning
        it in order and taking the first improvable job reproduces the old
        sort-then-pick without re-sorting per freed GPU.  A job first tries
        to widen within its own pool; when the policy allows
        ``replan_across_types`` (and the job hosts no guests, whose GPU
        slots a migration would destroy), it may instead migrate to another
        pool whose plan strictly beats its current iteration time.  Every
        action strictly lowers some job's iteration time over a finite set
        of (pool, width) plans, so the loop terminates.
        """
        while free:
            expanded = False
            for state in list(self._fg_running):
                own = state.gpu_type
                assert own is not None
                own_gpus = self.fleet.pool(own).num_gpus
                cap = width_cap(state, own_gpus)
                if state.width < cap:
                    new_width = min(
                        floor_pow2(state.width + free.free_of(own)), floor_pow2(cap)
                    )
                    if new_width > state.width:
                        plan = self._plan_for(state, new_width, own)
                        if plan.iteration_time < state.base_iter_time:
                            self._replan(state, plan, new_width, now, free, queue)
                            expanded = True
                            break
                if policy.replan_across_types and not state.hosted:
                    migrated = self._try_migrate(state, now, free, queue)
                    if migrated:
                        expanded = True
                        break
            if not expanded:
                return

    def _try_migrate(
        self, state: _JobState, now: float, free: FleetPool, queue: EventQueue
    ) -> bool:
        """Move a job to another pool when that strictly beats its plan."""
        for pool_name in self.fleet.speed_order:
            if pool_name == state.gpu_type:
                continue
            pool_gpus = self.fleet.pool(pool_name).num_gpus
            cap = width_cap(state, pool_gpus)
            width = min(floor_pow2(free.free_of(pool_name)), floor_pow2(cap))
            if width < 1:
                continue
            plan = self._plan_for(state, width, pool_name)
            if plan.iteration_time >= state.base_iter_time:
                continue
            self._advance(state, now)
            free.release(state.gpu_ids)
            old_pool = state.gpu_type
            old_gpus = tuple(state.gpu_ids)
            state.gpu_ids = free.take(pool_name, width)
            state.gpu_type = pool_name
            self._install_plan(state, plan)
            if self._open_slots is not None:
                self._open_slots.open(state)
            if self._recorder is not None:
                assert old_pool is not None
                self._recorder.emit(
                    now, EV_GPU_FREE, job=state.name, pool=old_pool,
                    gpus=old_gpus, free_gpus=free.free_of(old_pool),
                )
                gpus = tuple(state.gpu_ids)
                self._recorder.emit(
                    now, EV_GPU_GRANT, job=state.name, pool=pool_name,
                    gpus=gpus, free_gpus=free.free_of(pool_name),
                )
                self._recorder.emit(
                    now, EV_MIGRATION, job=state.name, pool=pool_name,
                    gpus=gpus, width=width, detail=f"from:{old_pool}",
                )
            if self._track_failures:
                # Migration serializes the job's state: checkpoint here so a
                # rollback never prices old iterations at the new plan's
                # per-iteration cost.
                self._snapshot_checkpoint(state, max(now, state.penalty_until))
            state.replans += 1
            self._reschedule_finish(state, now, queue)
            return True
        return False

    def _replan(
        self, state: _JobState, plan: TrainingPlan, new_width: int, now: float,
        free: FleetPool, queue: EventQueue,
    ) -> None:
        """Move a running foreground job to a wider plan, keeping progress."""
        self._advance(state, now)
        assert state.gpu_type is not None
        old_width = state.width
        extra = free.take(state.gpu_type, new_width - state.width)
        state.gpu_ids = state.gpu_ids + extra
        self._install_plan(state, plan)
        if self._open_slots is not None:
            self._open_slots.open(state)
        if self._recorder is not None:
            self._recorder.emit(
                now, EV_GPU_GRANT, job=state.name, pool=state.gpu_type,
                gpus=tuple(extra), free_gpus=free.free_of(state.gpu_type),
            )
            self._recorder.emit(
                now, EV_REPLAN, job=state.name, pool=state.gpu_type,
                gpus=tuple(state.gpu_ids), width=new_width,
                detail=f"from_width:{old_width}",
            )
        if self._track_failures:
            # Re-planning serializes the job's state: checkpoint here so a
            # rollback never prices old iterations at the new plan's
            # per-iteration cost.
            self._snapshot_checkpoint(state, max(now, state.penalty_until))
        state.replans += 1
        self._reschedule_finish(state, now, queue)
        # Guests keep their GPU slot but their host's gaps moved.
        for guest in list(state.guest_order):
            self._advance(guest, now)
            self._reschedule_finish(guest, now, queue)
