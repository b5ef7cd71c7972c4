"""The pending-placement pass against a full-scan reference, and its work.

``SchedulerEngine._schedule_pending`` skips placement attempts that
provably fail: a foreground job while no pool has a free GPU and no
dedicated background job can be preempted, a background job while no pool
has a free GPU and no collocation slot is open.  The reference engine
below keeps the full scan that visits every pending job on every pass.
Hypothesis drives both over small random traces — one- and two-pool
fleets, node failures, mixed foreground widths — under every policy shape
the skip rules must hold for, and requires identical snapshots after every
step, identical event streams and identical results.

The counter test replays the frozen contended benchmark shape and bounds
the pass's placement attempts by its placements and passes.
"""

from dataclasses import replace
from functools import lru_cache
from typing import Optional, Tuple

import pytest
import test_sched_xl
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobKind
from repro.obs.metrics import global_registry
from repro.obs.trace import (
    EV_GPU_FREE,
    EV_GPU_GRANT,
    EV_PLACEMENT,
    EV_PREEMPTION,
    TraceRecorder,
)
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    CheckpointModel,
    ClusterFleet,
    ClusterScheduler,
    CollocationAwarePolicy,
    GpuPoolSpec,
    SchedulerEngine,
    ShortestRemainingGPUSecondsPolicy,
    TraceJob,
    inject_failures,
    synthetic_trace,
)
from repro.sched.policies import SchedulingPolicy
from repro.serve.replay import result_fingerprint


class _ReferenceEngine(SchedulerEngine):
    """The engine with the full-scan pending pass: every job, every pass."""

    def _schedule_pending(self, now: float) -> None:
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
                            self._preempt_for(
                                state, desired, pool_name, waiting_fg, now
                            )
                        width = policy.width_for(
                            state, free.free_of(pool_name), pool_gpus, waiting_fg
                        )
                        if width is not None:
                            placement = (pool_name, width)
                            break
                    waiting_fg -= 1
                    if placement is None:
                        if policy.strict_order:
                            break
                        continue
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


class _AgingSRGS(ShortestRemainingGPUSecondsPolicy):
    """Shortest work first, but waiting jobs gain priority as they age."""

    name = "srgs+aging"
    dynamic_priority = True

    def sort_key(self, job, now: float) -> Tuple:
        return (job.remaining_gpu_seconds - 40.0 * (now - job.arrival_time), job.order)


class _FullWidthBackfill(SchedulingPolicy):
    """Arrival order with backfilling, but only full-width placements.

    ``width_for`` refuses while GPUs are free, so a foreground job can fail
    on a fleet with free GPUs and a narrower job behind it still start.
    """

    name = "full-width-backfill"

    def sort_key(self, job, now: float) -> Tuple:
        return (job.arrival_time, job.order)

    def width_for(self, job, free_gpus, num_gpus, pending_foreground=1):
        desired = self.desired_width(job, num_gpus)
        return desired if free_gpus >= desired else None


class _PreemptingFullWidth(_FullWidthBackfill):
    """Full-width placements that may evict dedicated background jobs.

    Eviction can lift the free count to a power of two below the job's
    full width, which ``width_for`` then refuses: preempting for it would
    place nothing.
    """

    name = "full-width+preempt"
    preempt_background = True


class _InterleavedCollocation(CollocationAwarePolicy):
    """The collocation policy without its foreground-first ordering.

    Foreground and background jobs interleave in the queue, so a background
    job can sit right behind the foreground start that opened its slot.
    """

    name = "collocation+interleaved"

    def sort_key(self, job, now: float) -> Tuple:
        return ShortestRemainingGPUSecondsPolicy.sort_key(self, job, now)


#: Policy names or classes; the engine instantiates a class once per run.
_POLICIES = {
    "fifo": "fifo",
    "srgs": "srgs",
    "collocation": "collocation",
    "srgs+preempt": test_sched_xl.TestSamePassPreemption._PreemptingSRGS,
    "srgs+aging": _AgingSRGS,
    "full-width": _FullWidthBackfill,
    "full-width+preempt": _PreemptingFullWidth,
    "collocation+interleaved": _InterleavedCollocation,
}

_FLEETS = {
    "one-pool": lambda: ClusterFleet.homogeneous(16, gpus_per_host=4),
    "two-pool": lambda: ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, 8, 4),
            GpuPoolSpec("v100", V100_32GB, 8, 4),
        )
    ),
}


@lru_cache(maxsize=None)
def _scheduler(fleet: str) -> ClusterScheduler:
    # Shared across examples so plans are searched once per fleet.
    return ClusterScheduler(_FLEETS[fleet]())


def _trace(seed, num_jobs, rate, caps):
    """A synthetic trace whose foreground jobs get mixed width caps."""
    trace = synthetic_trace(num_jobs, seed=seed, arrival_rate=rate)
    return [
        replace(job, max_gpus=caps[i % len(caps)]) if job.is_foreground else job
        for i, job in enumerate(trace)
    ]


def _engine(cls, sched, policy, trace, failures):
    recorder = TraceRecorder()
    engine = cls(sched, _POLICIES[policy], recorder=recorder)
    for job in trace:
        engine.add_job(job)
    engine.add_failures(failures)
    return engine, recorder


def _assert_same_run(fleet, policy, seed, num_jobs, rate, caps, failures):
    sched = _scheduler(fleet)
    trace = _trace(seed, num_jobs, rate, caps)
    schedule = []
    if failures:
        # Inside the busy part of the run, so failures kill running jobs.
        window = (1.0, 1.0 + 2.0 * trace[-1].arrival_time)
        schedule = inject_failures(
            sched.fleet, failures, seed=seed, window=window, mean_downtime=10.0
        )
    ref, ref_events = _engine(_ReferenceEngine, sched, policy, trace, schedule)
    real, real_events = _engine(SchedulerEngine, sched, policy, trace, schedule)
    assert real.snapshot().to_json() == ref.snapshot().to_json()
    while ref.queue:
        assert ref.step() == real.step()
        assert real.snapshot().to_json() == ref.snapshot().to_json()
    assert not real.queue
    assert real.records == ref.records
    assert real_events.events == ref_events.events
    assert result_fingerprint(real.result()) == result_fingerprint(ref.result())


_CAPS = st.lists(st.sampled_from([None, 1, 2, 4, 8]), min_size=1, max_size=4)


class TestPassMatchesFullScan:
    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    @pytest.mark.parametrize("policy", list(_POLICIES))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_jobs=st.integers(min_value=2, max_value=14),
        rate=st.sampled_from([0.5, 2.0, 6.0]),
        caps=_CAPS,
        failures=st.integers(min_value=0, max_value=2),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_runs(self, fleet, policy, seed, num_jobs, rate, caps, failures):
        _assert_same_run(fleet, policy, seed, num_jobs, rate, caps, failures)

    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    @pytest.mark.parametrize("policy", list(_POLICIES))
    def test_dense_run_with_failures(self, fleet, policy):
        # A burst of mixed-width arrivals on a small fleet: the queue stays
        # deep, so passes start with both classes blocked and with only one.
        _assert_same_run(fleet, policy, 3, 24, 6.0, [None, 2, 1, 8], 2)


@pytest.fixture(scope="module")
def contended():
    """The frozen contended benchmark shape: 1,500 jobs, 128 GPUs, failures."""
    fleet = ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, 64, 8),
            GpuPoolSpec("v100", V100_32GB, 64, 8),
        )
    )
    trace = synthetic_trace(1500, seed=6, arrival_rate=2.2)
    horizon = trace[-1].arrival_time
    failures = inject_failures(
        fleet, 2, seed=1, window=(0.2 * horizon, 0.8 * horizon), mean_downtime=30.0
    )
    sched = ClusterScheduler(fleet, checkpoint=CheckpointModel(90.0, 15.0))
    sched.prewarm_plans(trace)
    return sched, trace, failures


class TestPendingWork:
    @pytest.mark.parametrize("policy", ["fifo", "srgs", "collocation"])
    def test_attempts_bounded_by_placements(self, contended, policy):
        sched, trace, failures = contended
        registry = global_registry()
        before = registry.snapshot()
        engine = SchedulerEngine(sched, policy)
        for job in trace:
            engine.add_job(job)
        engine.add_failures(failures)
        engine.drain()
        assert len(engine.result().records) == len(trace)
        moved = registry.delta_since(before)
        passes = moved["sched.pending.passes"]
        visited = moved["sched.pending.visited"]
        placed = moved["sched.pending.placed"]
        # Every job is placed at least once; re-placements follow
        # preemptions, failures and evicted guests.
        assert placed >= len(trace)
        # At most two failed attempts per pass, plus one per placement.
        assert visited <= 2 * (placed + passes)


class _BoundedPreemptions(SchedulerEngine):
    """Fails instead of spinning when preemptions outrun a bound."""

    limit = 50

    def _preempt_background(self, state, now):
        self.limit -= 1
        if self.limit < 0:
            raise AssertionError("preemption livelock: the pass never settles")
        super()._preempt_background(state, now)


class TestPreemptOnlyForAcceptedWidth:
    """A policy that preempts and then refuses the width must not livelock."""

    def _trace(self):
        # ``hold`` keeps 2 of 8 GPUs busy, five background jobs take 5 more,
        # then ``wide`` wants all 8.  Evicting 3 victims lifts the free
        # count to 4, which a full-width policy refuses; the victims sort
        # ahead of ``wide`` and would be re-placed and evicted again.
        bg = [
            TraceJob(
                f"bg{i}", "resnet50", 32, 0.1 + 0.01 * i, iterations=5000,
                kind=JobKind.BACKGROUND,
            )
            for i in range(5)
        ]
        return [
            TraceJob("hold", "vgg16", 32, 0.0, iterations=400, max_gpus=2),
            *bg,
            TraceJob("wide", "vgg16", 32, 1.0, iterations=200),
        ]

    def test_terminates_and_preempts_only_for_a_placement(self):
        recorder = TraceRecorder()
        engine = _BoundedPreemptions(
            ClusterScheduler(8), _PreemptingFullWidth(), recorder=recorder
        )
        for job in self._trace():
            engine.add_job(job)
        engine.drain()
        result = engine.result()
        assert result.record("wide").width == 8
        events = recorder.events
        preempted = [e for e in events if e.kind == EV_PREEMPTION]
        assert preempted  # ``wide`` does evict, once its full width is attainable
        # Every eviction run ends in a foreground placement at the same time.
        owed = None
        for event in events:
            if event.kind == EV_PREEMPTION:
                owed = owed or event
            elif event.kind == EV_PLACEMENT and event.detail == "foreground":
                owed = None
            elif owed is not None:
                assert event.kind in (EV_GPU_FREE, EV_GPU_GRANT), (owed, event)
                assert event.time == owed.time
        assert owed is None
