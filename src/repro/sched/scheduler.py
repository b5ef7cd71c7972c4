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

The scheduler is configuration plus caches; one run's mutable state and
the event loop that changes it belong to a
:class:`~repro.sched.engine.SchedulerEngine`, which :meth:`ClusterScheduler.run`
builds per call (and the online service builds once).  The placement pass is
*incremental*: the pending queue, the running foreground jobs, the dedicated
background jobs and each host's guests are kept in mutation-maintained order
(:mod:`repro.sched.ordering`) instead of being re-sorted on every event, so
one scheduling point costs O(changes · log n), not O(n log n).  Background
collocation picks its slot from an
:class:`~repro.sched.ordering.OpenSlotIndex` of open, efficient-enough
foreground GPUs kept in pick order, updated only where a slot opens or
closes, instead of scanning every running job's GPUs per placement.  Each
distinct plan is placed by the coordinator once, at its first install; its
busy fractions and busy GPU-seconds are then shared by every job that runs
it.  Everything is deterministic: identical traces, policies and failure
schedules produce bit-identical :class:`~repro.sched.metrics.FleetMetrics` —
and a homogeneous one-pool fleet reproduces the pre-fleet scheduler bit for
bit.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..cluster.coordinator import ClusterCoordinator
from ..cluster.executor import CollocationProfile
from ..core.planner.plan import TrainingPlan
from ..core.planner.planner import BurstParallelPlanner
from ..core.planner.pool import PlannerPool, PlanRequest
from ..models.graph import ModelGraph
from ..models.registry import build_model
from ..network.fabric import NetworkFabric, get_fabric
from ..obs.sampler import TimeSeriesSampler
from ..obs.trace import TraceRecorder
from ..profiler.layer_profiler import LayerProfiler
from .engine import ScheduleResult, SchedulerEngine
from .failures import CheckpointModel, NodeFailure
from .fleet import ClusterFleet
from .policies import SchedulingPolicy, floor_pow2, width_cap
from .traces import TraceJob

# ScheduleResult is re-exported here for API stability.
__all__ = ["ClusterScheduler", "ScheduleResult"]


class ClusterScheduler:
    """Discrete-event scheduler serving a trace of jobs on a GPU cluster.

    The cluster is either homogeneous (``num_gpus`` identical GPUs matching
    the profiler's spec — the legacy constructor) or a
    :class:`~repro.sched.fleet.ClusterFleet` of named pools mixing GPU
    generations.  One instance can run many (trace, policy, failures)
    combinations, one engine each, even interleaved; only planner and
    profiler caches persist across runs, so comparing policies on the same
    trace only pays each burst-parallel plan search once.  Pools whose GPU
    spec matches the scheduler's profiler share its profiler/planner (and
    therefore its caches); other pools get per-pool instances with their
    own content fingerprints, so plans and profiles can never alias across
    GPU types.
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
        # Planner identities folded into plan-cache keys; memoized per
        # planner object so swapping a planner can never serve the old
        # planner's plans.
        self._planner_fps: Dict[int, Tuple[BurstParallelPlanner, str]] = {}
        # Per-GPU busy fractions and busy GPU-seconds per iteration of every
        # installed plan, keyed by plan object (held, so ids stay unique).
        # Filled lazily at first install, never by prewarming.
        self._occupancy: Dict[int, Tuple[TrainingPlan, List[float], float]] = {}
        # Observers handed to each run() (repro.obs); ``None`` disables.
        self._recorder: Optional[TraceRecorder] = None
        self._sampler: Optional[TimeSeriesSampler] = None

    # ----------------------------------------------------------- observability
    def attach_recorder(self, recorder: Optional[TraceRecorder]) -> None:
        """Attach a trace recorder to every later :meth:`run` (``None`` detaches).

        Each run binds the recorder afresh and feeds it one structured event
        per state change — placements, collocations, preemptions, re-plans,
        migrations, failures, restarts, completions, per-pool GPU
        grants/frees — stamped with simulated time.  Recording only *reads*
        state, so metrics are bit-identical with or without it.  Engines
        built directly take their own ``recorder=`` instead.
        """
        self._recorder = recorder

    def attach_sampler(self, sampler: Optional[TimeSeriesSampler]) -> None:
        """Attach a time-series sampler to every later :meth:`run` (``None`` detaches).

        The sampler records cluster gauges (pending depth, free GPUs per
        pool, allocation, collocated guests, failed hosts) on its fixed
        sim-time grid during the run.
        """
        self._sampler = sampler

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

    def _plan_for(self, job: TraceJob, width: int, gpu_pool: str) -> TrainingPlan:
        """The (cached) burst-parallel plan of a job at one width on one pool."""
        key = self._plan_cache_key(
            job.model, job.global_batch, width, job.amplification_limit, gpu_pool
        )
        if key not in self._plan_cache:
            self._plan_cache[key] = self._planner_for(gpu_pool).plan(
                self._graph(job.model),
                job.global_batch,
                width,
                amplification_limit=job.amplification_limit,
            )
        return self._plan_cache[key]

    def _occupancy_of(self, plan: TrainingPlan) -> Tuple[List[float], float]:
        """Per-GPU busy fractions and busy GPU-seconds per iteration of a plan.

        The coordinator places each distinct plan once, at its first install;
        every later install shares the same ``busy_fractions`` list.
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
        return occupancy[1], occupancy[2]

    def _plan_widths(self, job: TraceJob, pool_name: str) -> Iterator[int]:
        """Every power-of-two width a policy could place ``job`` at on a pool."""
        top = floor_pow2(max(width_cap(job, self.fleet.pool(pool_name).num_gpus), 1))
        width = 1
        while width <= top:
            yield width
            width *= 2

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
            requests: List[PlanRequest] = []
            seen = set()
            for job in trace:
                if not job.is_foreground:
                    continue
                for width in self._plan_widths(job, pool_name):
                    request = PlanRequest(
                        job.model, job.global_batch, width, job.amplification_limit
                    )
                    if request not in seen:
                        seen.add(request)
                        requests.append(request)
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
        cached = len(self._plan_cache)
        for pool_name in self.fleet.pool_names:
            for width in self._plan_widths(job, pool_name):
                self._plan_for(job, width, pool_name)
        return len(self._plan_cache) - cached

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
        this method is the offline driver: build a fresh engine observed by
        the attached recorder and sampler, queue every arrival in trace
        order, queue the failure schedule, drain to quiescence.
        """
        if not trace:
            raise ValueError("trace must contain at least one job")
        names = [job.name for job in trace]
        if len(set(names)) != len(names):
            raise ValueError("trace job names must be unique")
        engine = SchedulerEngine(
            self, policy, recorder=self._recorder, sampler=self._sampler
        )
        for job in trace:
            engine.add_job(job)
        engine.add_failures(failures)
        engine.drain()
        return engine.result(require_complete=True)
