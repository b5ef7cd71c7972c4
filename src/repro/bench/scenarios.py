"""The built-in benchmark scenarios covering the repo's hot paths.

Four scenarios ship by default, one per subsystem the ROADMAP cares about:

* ``planner_grid`` — burst-parallel plan search across every registry model
  at a grid of GPU budgets (the paper's Table 3 headline, scaled up).  Ops
  are planned layer assignments; ``cached=False`` re-plans with cold
  in-memory caches, and ``cache_dir`` points the search at a persistent
  :class:`~repro.cache.ArtifactCache` (a warm cache skips every search).
* ``sched_sim`` — the trace-driven multi-tenant cluster scheduler at
  production scale (256 GPUs, 500 jobs).  Ops are simulation events
  processed.
* ``sched_sim_xl`` — the cluster-scale fast path: ≥2048 GPUs serving a
  ≥10k-job mixed trace (steady synthetic tenant + heavy-tailed diurnal
  tenant), with the plan cache pre-warmed before replay.
* ``sched_sim_hetero`` — a heterogeneous A100+V100 fleet serving the mixed
  trace under an injected host-failure storm: per-pool planning,
  fastest-pool-first foreground placement, checkpoint/restart rollback and
  lost-GPU-seconds accounting.  Ops are simulation events processed
  (failures and recoveries included).
* ``sched_sim_xxl`` — the datacenter-scale replay: a 16384-GPU A100+V100
  fleet serving a 100k-job mixed trace through a failure storm.
* ``collocation_matrix`` — the Figure 12 pairwise GPU-collocation sweep over
  the synthetic kernel grid.  Ops are GPU-simulator runs.

Every scenario returns deterministic ops and metric fingerprints: running
twice with the same parameters must produce byte-identical values — with a
cache cold or warm, prewarmed or planned on demand — which is what lets
CI gate regressions against a committed baseline.  Cache traffic and other
run-dependent diagnostics go into the artifact's non-gated ``info`` block.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.experiments import figure12_collocation_matrix
from ..cache import ArtifactCache, fleet_fingerprint
from ..core.planner.planner import BurstParallelPlanner, PlannerConfig
from ..models.registry import available_models, build_model, model_entry
from ..network.fabric import get_fabric
from ..obs.trace import TraceRecorder
from ..profiler.gpu_spec import get_gpu_spec
from ..profiler.layer_profiler import LayerProfiler
from ..sched import (
    CheckpointModel,
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    alibaba_trace,
    inject_failures,
    mixed_trace,
    synthetic_trace,
)
from ..serve import (
    QuotaAdmission,
    SchedulerService,
    TenantQuota,
    replay_trace_sync,
    result_fingerprint,
)
from .harness import ScenarioResult, scenario

__all__ = [
    "planner_grid",
    "sched_sim",
    "sched_sim_xl",
    "sched_sim_hetero",
    "sched_sim_xxl",
    "sched_service",
    "collocation_matrix",
]


def _cache_info(cache: Optional[ArtifactCache]) -> dict:
    if cache is None:
        return {"persistent_cache": False}
    return {
        "persistent_cache": True,
        "cache_hits": cache.stats.hits,
        "cache_misses": cache.stats.misses,
        "cache_writes": cache.stats.writes,
        "cache_errors": cache.stats.errors,
    }


@scenario(
    "planner_grid",
    "Burst-parallel plan search: all registry models x a grid of GPU budgets",
    models=(),
    gpu_counts=(1, 2, 4, 8, 16, 32),
    fabric="nvswitch",
    amplification_limit=2.0,
    powers_of_two_only=True,
    cached=True,
    cache_dir=None,
)
def planner_grid(
    models: Sequence[str],
    gpu_counts: Sequence[int],
    fabric: str,
    amplification_limit: float,
    powers_of_two_only: bool,
    cached: bool,
    cache_dir: Optional[str],
) -> ScenarioResult:
    """Plan every model at every GPU budget; ops = planned layer assignments.

    ``cached=False`` disables the profiler memo, drops the planner's cost
    models before every search, and bypasses the persistent cache entirely
    (it measures the pre-optimization code path, which a warm ``cache_dir``
    would otherwise silently short-circuit).  ``cache_dir`` enables the
    persistent plan/profile cache: a cold run populates it, a warm run
    answers every search from disk.  Ops and metric fingerprints are
    identical in all modes — only the wall time (and the ``info`` cache
    counters) move.
    """
    model_names = list(models) if models else available_models()
    cache = ArtifactCache(cache_dir) if (cache_dir and cached) else None
    profiler = LayerProfiler(enable_cache=cached, persistent_cache=cache)
    planner = BurstParallelPlanner(
        get_fabric(fabric),
        profiler,
        PlannerConfig(amplification_limit, powers_of_two_only),
        cache=cache,
    )
    plans = 0
    planned_layers = 0
    total_iteration_time = 0.0
    total_search_relaxed_gpus = 0
    for name in model_names:
        graph = build_model(name)
        for gpus in gpu_counts:
            if not cached:
                planner.clear_caches()
            global_batch = max(model_entry(name).default_global_batch, gpus)
            plan = planner.plan(graph, global_batch, gpus)
            plans += 1
            planned_layers += len(plan.assignments)
            total_iteration_time += plan.iteration_time
            total_search_relaxed_gpus += sum(a.num_gpus for a in plan.assignments)
    info = _cache_info(cache)
    info.update(
        profile_queries=profiler.cache_stats.queries,
        profile_computations=profiler.cache_stats.misses,
    )
    return ScenarioResult(
        ops=planned_layers,
        metrics={
            "plans": float(plans),
            "total_iteration_time_s": total_iteration_time,
            "total_assigned_gpus": float(total_search_relaxed_gpus),
        },
        info=info,
    )


def _fleet_from_pools(pools: Sequence[str], gpus_per_host: int) -> ClusterFleet:
    """Build a fleet from ``"<gpu spec>:<num gpus>"`` pool entries."""
    pool_specs = []
    for entry in pools:
        spec_name, _, count = str(entry).partition(":")
        if not count:
            raise ValueError(
                f"pool entry {entry!r} must look like '<gpu spec>:<num gpus>'"
            )
        pool_specs.append(
            GpuPoolSpec(spec_name, get_gpu_spec(spec_name), int(count), gpus_per_host)
        )
    return ClusterFleet(tuple(pool_specs))


def _make_trace(trace: str, num_jobs: int, seed: int):
    if trace == "synthetic":
        return synthetic_trace(num_jobs, seed=seed)
    if trace == "alibaba":
        return alibaba_trace(num_jobs, seed=seed)
    if trace == "mixed":
        return mixed_trace(num_jobs, seed=seed)
    raise ValueError(
        f"unknown trace {trace!r}; expected synthetic|alibaba|mixed"
    )


@scenario(
    "sched_sim",
    "Multi-tenant cluster scheduler: 500-job trace on a 256-GPU fleet",
    num_gpus=256,
    num_jobs=500,
    seed=11,
    policy="collocation",
    trace="synthetic",
    fabric="nvswitch",
)
def sched_sim(
    num_gpus: int,
    num_jobs: int,
    seed: int,
    policy: str,
    trace: str,
    fabric: str,
) -> ScenarioResult:
    """Simulate a whole trace under one policy; ops = events processed."""
    jobs = _make_trace(trace, num_jobs, seed)
    sched = ClusterScheduler(num_gpus, fabric=fabric)
    result = sched.run(jobs, policy)
    m = result.metrics
    return ScenarioResult(
        ops=result.events_processed,
        metrics={
            "jobs": float(m.num_jobs),
            "makespan_s": m.makespan,
            "mean_jct_s": m.mean_jct,
            "utilization": m.utilization,
            "preemptions": float(m.preemptions),
            "replans": float(m.replans),
        },
    )


@scenario(
    "sched_sim_xl",
    "Cluster-scale scheduler fast path: 10k-job mixed trace on 2048 GPUs",
    num_gpus=2048,
    num_jobs=10000,
    seed=17,
    policy="collocation",
    trace="mixed",
    fabric="nvswitch",
    prewarm=True,
    cache_dir=None,
)
def sched_sim_xl(
    num_gpus: int,
    num_jobs: int,
    seed: int,
    policy: str,
    trace: str,
    fabric: str,
    prewarm: bool,
    cache_dir: Optional[str],
) -> ScenarioResult:
    """The ROADMAP's production-scale target: ops = events processed.

    The plan cache is pre-warmed before replay (``prewarm=True``), optionally
    backed by the persistent cache at ``cache_dir``.  Metric fingerprints are
    identical with prewarming on or off and with the cache cold or warm —
    the determinism regression tests pin exactly that — so neither knob can
    hide a result drift.
    """
    jobs = _make_trace(trace, num_jobs, seed)
    cache = ArtifactCache(cache_dir) if cache_dir else None
    profiler = LayerProfiler(persistent_cache=cache)
    planner = BurstParallelPlanner(get_fabric(fabric), profiler, cache=cache)
    sched = ClusterScheduler(
        num_gpus, fabric=fabric, profiler=profiler, planner=planner
    )
    prewarmed = 0
    if prewarm:
        prewarmed = sched.prewarm_plans(jobs)
    result = sched.run(jobs, policy)
    m = result.metrics
    info = _cache_info(cache)
    info.update(prewarmed_plans=prewarmed)
    return ScenarioResult(
        ops=result.events_processed,
        metrics={
            "jobs": float(m.num_jobs),
            "makespan_s": m.makespan,
            "mean_jct_s": m.mean_jct,
            "p95_jct_s": m.p95_jct,
            "mean_queue_delay_s": m.mean_queue_delay,
            "utilization": m.utilization,
            "fg_goodput": m.fg_goodput,
            "bg_goodput": m.bg_goodput,
            "preemptions": float(m.preemptions),
            "replans": float(m.replans),
        },
        info=info,
    )


@scenario(
    "sched_sim_hetero",
    "Heterogeneous A100+V100 fleet under an injected host-failure storm",
    pools=("a100:128", "v100:128"),
    gpus_per_host=8,
    num_jobs=1200,
    seed=23,
    policy="collocation",
    trace="mixed",
    fabric="nvswitch",
    failures=6,
    failure_seed=7,
    failure_window=(60.0, 480.0),
    mean_downtime=45.0,
    checkpoint_interval_s=90.0,
    restart_overhead_s=15.0,
    cache_dir=None,
    trace_out=None,
)
def sched_sim_hetero(
    pools: Sequence[str],
    gpus_per_host: int,
    num_jobs: int,
    seed: int,
    policy: str,
    trace: str,
    fabric: str,
    failures: int,
    failure_seed: int,
    failure_window: Sequence[float],
    mean_downtime: float,
    checkpoint_interval_s: float,
    restart_overhead_s: float,
    cache_dir: Optional[str],
    trace_out: Optional[str],
) -> ScenarioResult:
    """Mixed-generation fleet + failure injection; ops = events processed.

    ``pools`` entries are ``"<gpu spec>:<num gpus>"`` (specs resolved via
    :func:`~repro.profiler.gpu_spec.get_gpu_spec`); each pool plans with its
    own profiler/planner identity, so plans never alias across GPU types and
    a persistent ``cache_dir`` serves both pools without cross-talk.  The
    failure schedule is generated deterministically from ``failure_seed``,
    and the checkpoint/restart cost model prices each failure in rolled-back
    GPU-seconds plus a restart overhead.  Metric fingerprints are identical
    across repeats and with the cache cold or warm.

    ``trace_out`` attaches a :class:`~repro.obs.trace.TraceRecorder` and
    writes the run's Chrome ``trace_event`` JSON there (the CI-uploaded
    artifact).  The recorder is read-only, so fingerprints are identical
    with it on or off — which is why ``trace_out`` sits in
    :data:`~repro.bench.compare.ENVIRONMENT_PARAMS`.
    """
    if len(failure_window) != 2:
        raise ValueError(
            "failure_window needs exactly (start, end) seconds, got "
            f"{list(failure_window)}"
        )
    fleet = _fleet_from_pools(pools, gpus_per_host)
    jobs = _make_trace(trace, num_jobs, seed)
    schedule = inject_failures(
        fleet,
        failures,
        seed=failure_seed,
        window=(failure_window[0], failure_window[1]),
        mean_downtime=mean_downtime,
    )
    cache = ArtifactCache(cache_dir) if cache_dir else None
    profiler = LayerProfiler(persistent_cache=cache)
    planner = BurstParallelPlanner(get_fabric(fabric), profiler, cache=cache)
    sched = ClusterScheduler(
        fleet,
        fabric=fabric,
        profiler=profiler,
        planner=planner,
        checkpoint=CheckpointModel(checkpoint_interval_s, restart_overhead_s),
    )
    recorder = None
    if trace_out:
        recorder = TraceRecorder()
        sched.attach_recorder(recorder)
    result = sched.run(jobs, policy, failures=schedule)
    m = result.metrics
    info = _cache_info(cache)
    info.update(
        num_gpus=fleet.num_gpus,
        num_hosts=fleet.num_hosts,
        speed_order=",".join(fleet.speed_order),
        # Content identity of the fleet (declaration-order independent), so
        # two artifacts are comparable at a glance even across param shapes.
        fleet_fingerprint=fleet_fingerprint(fleet),
    )
    if recorder is not None:
        path = recorder.write_chrome_trace(trace_out)
        info.update(trace_out=str(path), trace_events=len(recorder))
    return ScenarioResult(
        ops=result.events_processed,
        metrics={
            "jobs": float(m.num_jobs),
            "failures": float(result.failures_injected),
            "makespan_s": m.makespan,
            "mean_jct_s": m.mean_jct,
            "p95_jct_s": m.p95_jct,
            "mean_queue_delay_s": m.mean_queue_delay,
            "utilization": m.utilization,
            "fg_goodput": m.fg_goodput,
            "bg_goodput": m.bg_goodput,
            "preemptions": float(m.preemptions),
            "replans": float(m.replans),
            "restarts": float(m.restarts),
            "lost_gpu_seconds": m.lost_gpu_seconds,
        },
        info=info,
    )


@scenario(
    "sched_sim_xxl",
    "Datacenter-scale replay: 100k-job mixed trace on a 16384-GPU "
    "heterogeneous fleet",
    pools=("a100:8192", "v100:8192"),
    gpus_per_host=8,
    num_jobs=100000,
    seed=31,
    policy="collocation",
    trace="mixed",
    fabric="nvswitch",
    failures=12,
    failure_seed=9,
    failure_window=(300.0, 43200.0),
    mean_downtime=120.0,
    checkpoint_interval_s=120.0,
    restart_overhead_s=15.0,
    cache_dir=None,
)
def sched_sim_xxl(
    pools: Sequence[str],
    gpus_per_host: int,
    num_jobs: int,
    seed: int,
    policy: str,
    trace: str,
    fabric: str,
    failures: int,
    failure_seed: int,
    failure_window: Sequence[float],
    mean_downtime: float,
    checkpoint_interval_s: float,
    restart_overhead_s: float,
    cache_dir: Optional[str],
) -> ScenarioResult:
    """The datacenter-scale headline; ops = events processed.

    A 16k-GPU A100+V100 fleet serves a 100k-job mixed trace through an
    injected failure storm, replayed by one ``ClusterScheduler.run``.
    """
    if len(failure_window) != 2:
        raise ValueError(
            "failure_window needs exactly (start, end) seconds, got "
            f"{list(failure_window)}"
        )
    fleet = _fleet_from_pools(pools, gpus_per_host)
    jobs = _make_trace(trace, num_jobs, seed)
    schedule = inject_failures(
        fleet,
        failures,
        seed=failure_seed,
        window=(failure_window[0], failure_window[1]),
        mean_downtime=mean_downtime,
    )
    cache = ArtifactCache(cache_dir) if cache_dir else None
    profiler = LayerProfiler(persistent_cache=cache)
    planner = BurstParallelPlanner(get_fabric(fabric), profiler, cache=cache)
    sched = ClusterScheduler(
        fleet,
        fabric=fabric,
        profiler=profiler,
        planner=planner,
        checkpoint=CheckpointModel(checkpoint_interval_s, restart_overhead_s),
    )
    result = sched.run(jobs, policy, failures=schedule)
    m = result.metrics
    info = _cache_info(cache)
    info.update(
        num_gpus=fleet.num_gpus,
        num_hosts=fleet.num_hosts,
        speed_order=",".join(fleet.speed_order),
        fleet_fingerprint=fleet_fingerprint(fleet),
        result_fingerprint=result_fingerprint(result),
    )
    return ScenarioResult(
        ops=result.events_processed,
        metrics={
            "jobs": float(m.num_jobs),
            "failures": float(result.failures_injected),
            "makespan_s": m.makespan,
            "mean_jct_s": m.mean_jct,
            "p95_jct_s": m.p95_jct,
            "mean_queue_delay_s": m.mean_queue_delay,
            "utilization": m.utilization,
            "fg_goodput": m.fg_goodput,
            "bg_goodput": m.bg_goodput,
            "preemptions": float(m.preemptions),
            "replans": float(m.replans),
            "restarts": float(m.restarts),
            "lost_gpu_seconds": m.lost_gpu_seconds,
        },
        info=info,
    )


@scenario(
    "sched_service",
    "Online scheduler service: bridged mixed trace with tenant quotas",
    num_gpus=256,
    num_jobs=600,
    seed=29,
    policy="collocation",
    trace="mixed",
    fabric="nvswitch",
    quota_gpu_seconds=16000.0,
    max_pending=8,
    journal_dir=None,
    snapshot_every=None,
)
def sched_service(
    num_gpus: int,
    num_jobs: int,
    seed: int,
    policy: str,
    trace: str,
    fabric: str,
    quota_gpu_seconds: float,
    max_pending: int,
    journal_dir: Optional[str],
    snapshot_every: Optional[int],
) -> ScenarioResult:
    """Replay-to-live bridge under admission control; ops = events processed.

    The trace is driven through :meth:`SchedulerService.submit` against
    per-tenant GPU-second quotas sized to bite (the mixed trace's tenants
    each demand well beyond ``quota_gpu_seconds``), so the run exercises
    every admission outcome: immediate accepts, queue-with-backpressure
    during bursts, quota-driven re-admission on completions, and starved
    rejections at drain.  All of it is deterministic under the fixed
    arrival log — the admission counts are gated metrics.

    The submit-path throughput (``submissions_per_sec``) goes to the
    non-gated ``info`` block; ``compare`` treats it like wall time (>10%
    regression fails) without folding it into the fingerprint.

    ``journal_dir``/``snapshot_every`` switch on the write-ahead intent
    journal and durable snapshots (:mod:`repro.serve.journal` /
    :mod:`repro.serve.recovery`).  Durability is write-path only — it
    never alters the simulation — so fingerprints are identical with it on
    or off, which is why both sit in
    :data:`~repro.bench.compare.ENVIRONMENT_PARAMS` and committed
    baselines stay byte-identical either way.
    """
    jobs = _make_trace(trace, num_jobs, seed)
    admission = QuotaAdmission(
        default=TenantQuota(gpu_seconds=quota_gpu_seconds, max_pending=max_pending)
    )
    service = SchedulerService(
        ClusterScheduler(num_gpus, fabric=fabric),
        policy=policy,
        admission=admission,
        journal_dir=journal_dir,
        snapshot_every=snapshot_every,
    )
    report = replay_trace_sync(service, jobs)
    m = report.result.metrics
    return ScenarioResult(
        ops=report.result.events_processed,
        metrics={
            "jobs_submitted": float(report.jobs),
            "jobs_completed": float(report.completed),
            "jobs_rejected": float(report.rejected),
            "queued_at_submit": float(report.queued_at_submit),
            "makespan_s": m.makespan,
            "mean_jct_s": m.mean_jct,
            "utilization": m.utilization,
            "preemptions": float(m.preemptions),
            "replans": float(m.replans),
        },
        info={
            "submissions_per_sec": report.submissions_per_sec,
            "submit_seconds": report.submit_seconds,
        },
    )


@scenario(
    "collocation_matrix",
    "Pairwise GPU-collocation sweep over the synthetic kernel grid (Fig. 12)",
    sim_time=0.1,
)
def collocation_matrix(sim_time: float) -> ScenarioResult:
    """Collocate every kernel-type pair; ops = GPU-simulator runs."""
    cells = figure12_collocation_matrix(sim_time=sim_time)
    labels = {hp for hp, _ in cells}
    throughputs: Tuple[float, ...] = tuple(cells.values())
    return ScenarioResult(
        # One simulator run per pair plus one isolated run per kernel type.
        ops=len(cells) + len(labels),
        metrics={
            "pairs": float(len(cells)),
            "mean_relative_throughput": sum(throughputs) / len(throughputs),
            "min_relative_throughput": min(throughputs),
        },
    )
