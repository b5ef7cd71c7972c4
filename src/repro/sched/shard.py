"""Sharded, epoch-parallel replay of one scheduler run.

A discrete-event simulation is inherently serial: event *n* determines the
state event *n+1* dispatches against.  What makes it shardable anyway is
PR 8's :class:`~repro.sched.snapshot.EngineSnapshot` — a fingerprint-exact
freeze of the complete run state at any event boundary.  This module turns
that primitive into a parallel replay driver:

1. **Partition** the timeline into *epochs*.  :func:`partition_epochs` cuts
   at arrival-time quantiles of the trace so each epoch carries a comparable
   share of the event stream; callers may also pass explicit boundaries.
2. **Anchor** each epoch with a snapshot of the engine state at its start.
   Anchors are content-addressed in the shared :mod:`repro.cache` store
   (:func:`~repro.cache.fingerprint.shard_anchor_fingerprint` keys them by
   the full workload identity plus the partition), so the serial *anchor
   pass* that materializes them runs at most once per workload — every
   later replay of the same run, in this process or any other, starts from
   cache hits and goes straight to the parallel phase.  An anchor is the
   engine snapshot with its completion-record list stripped to a bare
   *count*: a worker only ever appends new records, so shipping the
   history would be dead weight — on a 100k-job trace it is the majority
   of the later anchors' bytes, and dropping it is what makes restore
   cheap enough for the parallel phase to win.
3. **Replay** every epoch independently: each worker restores its anchor
   into a fresh engine and advances to the epoch's end boundary (the last
   epoch drains).  Workers are processes (the
   :class:`~repro.core.planner.pool.PlannerPool` discipline: module-level
   worker functions on picklable payloads, ``workers <= 1`` runs inline),
   they share the persistent plan store via ``cache_dir``, and they report
   their :mod:`repro.obs` counter deltas back for fold-in, so the driver's
   registry reflects the work wherever it executed.
4. **Stitch** the per-epoch record batches — in epoch order, which *is*
   global completion order — through the columnar
   :class:`~repro.sched.metrics.MetricsFold`, whose float reductions use
   the exact summation the single-process path uses.

The stitched :class:`~repro.sched.engine.ScheduleResult` is therefore
*bit-identical* to a single-process replay of the same workload — same
records, same metrics, same
:func:`~repro.serve.replay.result_fingerprint` — at every epoch and worker
count.  The property tests assert this and the CI ``shard`` job gates on it.

Determinism note: an ``advance_to`` at each boundary is a no-op relative to
a plain ``drain`` — the bound is exclusive and the engine clock moves to
``max(clock, boundary)``, which the next event's dispatch would do anyway —
so the anchor pass and the epoch replays traverse the exact event history
of the uninterrupted run.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..cache import ArtifactCache
from ..cache.fingerprint import (
    fabric_fingerprint,
    fingerprint,
    fleet_fingerprint,
    planner_config_fingerprint,
    shard_anchor_fingerprint,
    trace_fingerprint,
)
from ..cluster.executor import CollocationProfile
from ..core.planner.planner import BurstParallelPlanner, PlannerConfig
from ..network.fabric import NetworkFabric
from ..obs.metrics import global_registry
from ..profiler.gpu_spec import GPUSpec
from ..profiler.layer_profiler import LayerProfiler
from .engine import ScheduleResult, SchedulerEngine
from .failures import CheckpointModel, NodeFailure, validate_failures
from .fleet import ClusterFleet, GpuPoolSpec
from .metrics import JobRecord, MetricsFold
from .policies import SchedulingPolicy, get_policy
from .scheduler import ClusterScheduler
from .snapshot import EngineSnapshot, dump_record, load_record
from .traces import TraceJob

__all__ = [
    "ShardConfig",
    "ShardReport",
    "EpochReport",
    "partition_epochs",
    "replay_sharded",
]

#: Cache namespace holding epoch-anchor snapshots.
ANCHOR_NAMESPACE = "shard-anchors"


def _make_anchor(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a snapshot payload as an epoch anchor.

    The completion records are replaced by their count: a replaying worker
    never reads them (it only appends new ones), and the stitch phase needs
    just the count to verify the anchor agrees with the records the earlier
    epochs produced.
    """
    return {
        "snapshot": {**payload, "records": []},
        "prior_records": len(payload["records"]),
    }


def _valid_anchor(payload: Any) -> bool:
    """Whether a cache payload has the anchor shape (guards stale entries)."""
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("snapshot"), dict)
        and isinstance(payload.get("prior_records"), int)
    )

_REGISTRY = global_registry()
_RUNS = _REGISTRY.counter("sched.shard.runs")
_EPOCHS_REPLAYED = _REGISTRY.counter("sched.shard.epochs_replayed")
_ANCHOR_HITS = _REGISTRY.counter("sched.shard.anchor_hits")
_ANCHOR_MISSES = _REGISTRY.counter("sched.shard.anchor_misses")
_ANCHOR_WRITES = _REGISTRY.counter("sched.shard.anchor_writes")
_ANCHOR_PASSES = _REGISTRY.counter("sched.shard.anchor_passes")
_ANCHOR_TIMER = _REGISTRY.timer("sched.shard.anchor_pass")
_REPLAY_TIMER = _REGISTRY.timer("sched.shard.replay")


def partition_epochs(trace: Sequence[TraceJob], epochs: int) -> List[float]:
    """Cut the trace timeline into ``epochs`` spans at arrival quantiles.

    Returns the ``epochs - 1`` interior boundaries (non-decreasing arrival
    times); an epoch spans ``[boundary[i-1], boundary[i])`` with the usual
    exclusive-bound convention of :meth:`SchedulerEngine.advance_to`, the
    first epoch starting at time zero and the last draining to quiescence.
    Quantiles of the *arrival* distribution keep event counts roughly
    balanced across epochs without simulating anything.  A bursty trace may
    produce duplicate boundaries — i.e. *empty* epochs — which replay as
    zero-step no-ops and stitch cleanly.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if not trace:
        raise ValueError("cannot partition an empty trace")
    arrivals = sorted(job.arrival_time for job in trace)
    return [
        arrivals[(index * len(arrivals)) // epochs] for index in range(1, epochs)
    ]


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker process needs to rebuild an equivalent scheduler.

    All fields are plain frozen dataclasses (or scalars), so the config
    pickles under both fork and spawn start methods.  ``build_scheduler``
    reconstructs a scheduler whose planner/profiler derivations match the
    capturing one exactly — :meth:`EngineSnapshot.apply` verifies this by
    recomputing every job's ``iso_iter_time``, so a drifted configuration
    fails loudly instead of diverging silently.
    """

    pools: Tuple[GpuPoolSpec, ...]
    fabric: NetworkFabric
    gpu: GPUSpec
    use_cuda_graphs: bool
    dtype_bytes: int
    planner_config: PlannerConfig
    collocation: CollocationProfile
    checkpoint: CheckpointModel
    policy: str
    #: Persistent-cache root shared with the workers (plans, profiles and
    #: epoch anchors); ``None`` runs every worker cold.
    cache_dir: Optional[str] = None

    @classmethod
    def from_scheduler(
        cls,
        scheduler: ClusterScheduler,
        policy: Union[str, SchedulingPolicy],
        cache_dir: Optional[str] = None,
    ) -> "ShardConfig":
        """Capture a live scheduler's configuration (not its run state)."""
        if cache_dir is None:
            cache = scheduler.profiler.persistent_cache
            cache_dir = str(cache.base_dir) if cache is not None else None
        return cls(
            pools=tuple(scheduler.fleet.pools),
            fabric=scheduler.fabric,
            gpu=scheduler.profiler.gpu,
            use_cuda_graphs=scheduler.profiler.use_cuda_graphs,
            dtype_bytes=scheduler.profiler.dtype_bytes,
            planner_config=scheduler.planner.config,
            collocation=scheduler.collocation,
            checkpoint=scheduler.checkpoint,
            policy=get_policy(policy).name,
            cache_dir=cache_dir,
        )

    def build_scheduler(self) -> ClusterScheduler:
        """A fresh scheduler equivalent to the one this config captured."""
        cache = (
            ArtifactCache(self.cache_dir) if self.cache_dir is not None else None
        )
        profiler = LayerProfiler(
            gpu=self.gpu,
            use_cuda_graphs=self.use_cuda_graphs,
            dtype_bytes=self.dtype_bytes,
            persistent_cache=cache,
        )
        planner = BurstParallelPlanner(
            self.fabric, profiler, self.planner_config, cache=cache
        )
        return ClusterScheduler(
            ClusterFleet(self.pools),
            fabric=self.fabric,
            profiler=profiler,
            planner=planner,
            collocation=self.collocation,
            checkpoint=self.checkpoint,
        )

    def fingerprint(self) -> str:
        """Content identity of the captured configuration.

        ``cache_dir`` is excluded: it changes where artifacts live, never
        what the simulation computes.
        """
        return fingerprint(
            "shard-config",
            fleet_fingerprint(ClusterFleet(self.pools)),
            fabric_fingerprint(self.fabric),
            asdict(self.gpu),
            self.use_cuda_graphs,
            self.dtype_bytes,
            planner_config_fingerprint(self.planner_config),
            asdict(self.collocation),
            asdict(self.checkpoint),
            self.policy,
        )


@dataclass
class _EpochTask:
    """One epoch's replay assignment (picklable worker payload)."""

    index: int
    config: ShardConfig
    #: Exclusive advance bound; ``None`` drains the final epoch.
    end: Optional[float]
    #: Inline anchor (:func:`_make_anchor` shape), or ``None`` when the
    #: worker should read it from the shared store (cheaper than pickling
    #: the payload through pipes).
    anchor: Optional[Dict[str, Any]]
    anchor_dir: Optional[str]
    anchor_schema: int
    key: str


#: One rebuilt scheduler per worker process, keyed by config fingerprint, so
#: every epoch a worker replays reuses the same warm plan/graph/iso caches.
_WORKER_SCHEDULERS: Dict[str, ClusterScheduler] = {}


def _worker_scheduler(config: ShardConfig) -> ClusterScheduler:
    key = config.fingerprint()
    scheduler = _WORKER_SCHEDULERS.get(key)
    if scheduler is None:
        _WORKER_SCHEDULERS.clear()  # at most one live config per worker
        scheduler = _WORKER_SCHEDULERS[key] = config.build_scheduler()
    return scheduler


def _replay_epoch(
    task: _EpochTask, scheduler: Optional[ClusterScheduler] = None
) -> Dict[str, Any]:
    """Worker: restore one epoch's anchor, advance to its end, ship rows.

    Runs in a pool process (``scheduler=None`` — rebuilt from the config
    and memoized per process) or inline in the driver (the driver passes
    its own scheduler).  Returns a plain dict of picklable fields; the
    ``counters`` entry is this call's :mod:`repro.obs` counter delta, which
    the driver folds into its registry for pooled workers only (inline
    increments land in the driver's registry directly).
    """
    registry = global_registry()
    before = registry.counter_values()
    wall_start = perf_counter()
    anchor = task.anchor
    if anchor is None:
        store = ArtifactCache(task.anchor_dir, task.anchor_schema)
        anchor = store.get(ANCHOR_NAMESPACE, task.key)
        if not _valid_anchor(anchor):
            raise RuntimeError(
                f"epoch {task.index}: anchor {task.key[:12]}… vanished from "
                f"the anchor store at {task.anchor_dir} between the driver's "
                "probe and this worker's read"
            )
    if scheduler is None:
        scheduler = _worker_scheduler(task.config)
    engine = SchedulerEngine(scheduler, task.config.policy)
    restore_start = perf_counter()
    engine.restore(EngineSnapshot(anchor["snapshot"]))
    restore_s = perf_counter() - restore_start
    # The anchor carries no record history, so everything on the restored
    # engine after the advance is this epoch's output.
    steps = engine.drain() if task.end is None else engine.advance_to(task.end)
    rows = [dump_record(record) for record in engine.records]
    after = registry.counter_values()
    counters = {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] - before.get(name, 0)
    }
    return {
        "index": task.index,
        "steps": steps,
        "start_records": anchor["prior_records"],
        "rows": rows,
        "restore_s": restore_s,
        "wall_s": perf_counter() - wall_start,
        "counters": counters,
        "events_processed": engine.queue.popped,
        "first_arrival": engine.first_arrival,
        "last_finish": engine.last_finish,
        "failures_injected": engine.failures_injected,
        "unfinished": engine.unfinished() if task.end is None else [],
    }


@dataclass(frozen=True)
class EpochReport:
    """Per-epoch accounting from one sharded replay."""

    index: int
    #: Exclusive end boundary (``None`` for the draining final epoch).
    end: Optional[float]
    #: Events the epoch dispatched.
    steps: int
    #: Completion records the epoch produced.
    records: int
    #: Wall seconds restoring the anchor into a fresh engine.
    restore_s: float
    #: Wall seconds for the whole epoch task (anchor read + restore + replay).
    wall_s: float


@dataclass(frozen=True)
class ShardReport:
    """Outcome of :func:`replay_sharded`: the stitched result plus accounting."""

    result: ScheduleResult
    boundaries: Tuple[float, ...]
    #: Worker processes the parallel phase actually used (1 = inline).
    workers: int
    epochs: Tuple[EpochReport, ...]
    #: Workload fingerprint the anchor keys derive from.
    workload: str
    anchor_hits: int
    anchor_misses: int
    anchor_writes: int
    #: Wall seconds of the serial anchor pass (0.0 on a fully warm store).
    anchor_pass_s: float
    #: Wall seconds of the parallel replay phase.
    replay_s: float

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker-pool's wall capacity spent replaying."""
        capacity = self.workers * self.replay_s
        if capacity <= 0.0:
            return 0.0
        return min(1.0, sum(epoch.wall_s for epoch in self.epochs) / capacity)

    def result_fingerprint(self) -> str:
        """The run's :func:`~repro.serve.replay.result_fingerprint`."""
        from ..serve.replay import result_fingerprint  # avoid import cycle

        return result_fingerprint(self.result)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe summary (the CI shard job uploads this as an artifact)."""
        return {
            "workload": self.workload,
            "result_fingerprint": self.result_fingerprint(),
            "policy": self.result.policy,
            "num_gpus": self.result.num_gpus,
            "num_jobs": self.result.metrics.num_jobs,
            "events_processed": self.result.events_processed,
            "failures_injected": self.result.failures_injected,
            "boundaries": list(self.boundaries),
            "workers": self.workers,
            "anchor_hits": self.anchor_hits,
            "anchor_misses": self.anchor_misses,
            "anchor_writes": self.anchor_writes,
            "anchor_pass_s": self.anchor_pass_s,
            "replay_s": self.replay_s,
            "worker_utilization": self.worker_utilization,
            "epochs": [asdict(epoch) for epoch in self.epochs],
        }


def replay_sharded(
    scheduler: ClusterScheduler,
    trace: Sequence[TraceJob],
    policy: Union[str, SchedulingPolicy],
    failures: Sequence[NodeFailure] = (),
    *,
    epochs: int = 4,
    workers: int = 1,
    boundaries: Optional[Sequence[float]] = None,
    anchor_cache: Optional[ArtifactCache] = None,
) -> ShardReport:
    """Replay one run epoch-parallel; bit-identical to the serial path.

    Parameters
    ----------
    scheduler / trace / policy / failures:
        Exactly the inputs :meth:`ClusterScheduler.run` takes.
    epochs:
        Timeline partitions (see :func:`partition_epochs`).  Ignored when
        ``boundaries`` is given.
    workers:
        Worker processes for the parallel phase; capped at the epoch count,
        ``<= 1`` replays inline on ``scheduler`` itself with no pool.
    boundaries:
        Explicit non-decreasing epoch boundaries overriding the quantile
        partition (``len(boundaries) + 1`` epochs).
    anchor_cache:
        Store for epoch anchors; defaults to the scheduler profiler's
        persistent cache.  With no store, anchors live only in memory and
        travel to workers by value.

    Returns a :class:`ShardReport` whose ``result`` matches
    ``scheduler.run(trace, policy, failures)`` bit for bit.
    """
    policy_obj = get_policy(policy)
    jobs = list(trace)
    if not jobs:
        raise ValueError("cannot replay an empty trace")
    names = {job.name for job in jobs}
    if len(names) != len(jobs):
        raise ValueError("trace contains duplicate job names")
    ordered = validate_failures(scheduler.fleet, failures) if failures else []
    if boundaries is not None:
        cuts = [float(bound) for bound in boundaries]
        for left, right in zip(cuts, cuts[1:]):
            if right < left:
                raise ValueError("epoch boundaries must be non-decreasing")
        epochs = len(cuts) + 1
    else:
        cuts = partition_epochs(jobs, epochs)
    if anchor_cache is None:
        anchor_cache = scheduler.profiler.persistent_cache
    config = ShardConfig.from_scheduler(scheduler, policy_obj)
    workload = fingerprint(
        "shard-workload",
        config.fingerprint(),
        trace_fingerprint(jobs),
        [[f.time, f.host, f.duration] for f in ordered],
        cuts,
    )
    keys = [shard_anchor_fingerprint(workload, cuts, i) for i in range(epochs)]
    _RUNS.add(1)

    # ------------------------------------------------------------ anchor pass
    anchors: List[Optional[Dict[str, Any]]] = [None] * epochs
    hits = 0
    if anchor_cache is not None:
        for index, key in enumerate(keys):
            found = anchor_cache.get(ANCHOR_NAMESPACE, key)
            if _valid_anchor(found):
                anchors[index] = found
                hits += 1
    misses = epochs - hits
    _ANCHOR_HITS.add(hits)
    _ANCHOR_MISSES.add(misses)
    writes = 0
    anchor_pass_s = 0.0
    if misses:
        # Serial pass on the caller's scheduler, cut short at the last
        # missing anchor.  This costs one (partial) plain replay — paid at
        # most once per workload, since every anchor it captures is written
        # back under its content key.
        _ANCHOR_PASSES.add(1)
        last_miss = max(i for i in range(epochs) if anchors[i] is None)
        pass_start = perf_counter()
        with _ANCHOR_TIMER.time():
            engine = SchedulerEngine(scheduler, policy_obj)
            for job in jobs:
                engine.add_job(job)
            engine.add_failures(ordered)
            for index in range(last_miss + 1):
                if index:
                    engine.advance_to(cuts[index - 1])
                if anchors[index] is None:
                    anchor = _make_anchor(engine.snapshot().payload)
                    anchors[index] = anchor
                    if anchor_cache is not None:
                        anchor_cache.put(ANCHOR_NAMESPACE, keys[index], anchor)
                        writes += 1
        anchor_pass_s = perf_counter() - pass_start
    _ANCHOR_WRITES.add(writes)

    # ------------------------------------------------------- parallel replay
    effective = max(1, min(workers, epochs))
    ship_inline = anchor_cache is None or effective <= 1
    tasks = [
        _EpochTask(
            index=index,
            config=config,
            end=cuts[index] if index < epochs - 1 else None,
            anchor=anchors[index] if ship_inline else None,
            anchor_dir=(
                str(anchor_cache.base_dir) if anchor_cache is not None else None
            ),
            anchor_schema=(
                anchor_cache.schema_version if anchor_cache is not None else 0
            ),
            key=keys[index],
        )
        for index in range(epochs)
    ]
    replay_start = perf_counter()
    with _REPLAY_TIMER.time():
        if effective <= 1:
            outs = [_replay_epoch(task, scheduler=scheduler) for task in tasks]
        else:
            with multiprocessing.Pool(processes=effective) as pool:
                outs = pool.map(_replay_epoch, tasks)
            # Pooled increments happened in other processes; fold their
            # deltas in so this registry reflects the whole run.  (Inline
            # increments already landed here — merging would double-count.)
            for out in outs:
                _REGISTRY.merge_counters(out["counters"])
    replay_s = perf_counter() - replay_start
    _EPOCHS_REPLAYED.add(epochs)

    # ---------------------------------------------------------------- stitch
    fold = MetricsFold()
    records: List[JobRecord] = []
    for out in outs:
        if out["start_records"] != len(records):
            raise RuntimeError(
                f"epoch {out['index']} replayed from an anchor holding "
                f"{out['start_records']} completion records, but epochs "
                f"0..{out['index'] - 1} produced {len(records)} — the anchor "
                "store is inconsistent with this partition"
            )
        for row in out["rows"]:
            fold.add_row(row)
            records.append(load_record(row))
    final = outs[-1]
    if final["unfinished"]:
        raise RuntimeError(
            f"scheduler deadlock under policy {policy_obj.name!r}: jobs "
            f"never completed: {', '.join(final['unfinished'])}"
        )
    first = final["first_arrival"] if final["first_arrival"] is not None else 0.0
    last = first if final["last_finish"] is None else max(final["last_finish"], first)
    metrics = fold.finalize(scheduler.num_gpus, last - first)
    result = ScheduleResult(
        policy=policy_obj.name,
        num_gpus=scheduler.num_gpus,
        records=tuple(records),
        metrics=metrics,
        events_processed=final["events_processed"],
        failures_injected=final["failures_injected"],
    )
    return ShardReport(
        result=result,
        boundaries=tuple(cuts),
        workers=effective,
        epochs=tuple(
            EpochReport(
                index=out["index"],
                end=tasks[out["index"]].end,
                steps=out["steps"],
                records=len(out["rows"]),
                restore_s=out["restore_s"],
                wall_s=out["wall_s"],
            )
            for out in outs
        ),
        workload=workload,
        anchor_hits=hits,
        anchor_misses=misses,
        anchor_writes=writes,
        anchor_pass_s=anchor_pass_s,
        replay_s=replay_s,
    )
