"""The expand pass against a full-scan reference, and the work it saves.

``SchedulerEngine._expand_running`` walks only the expansion frontier (the
running foreground jobs that may still improve) and prices each (job, pool,
width) at most once per plan install.  The reference engine below keeps the
full scan that visits every running foreground job at every scheduling
point and looks up the plan at whatever width the free GPUs reach.
Hypothesis drives both over small random traces on one- and two-pool
fleets, with and without node failures, and requires identical snapshots
after every step, identical event streams and identical results; one case
snapshots mid-run and continues in a fresh engine.

The pricing test wraps the plan lookup and checks that the expand path
never prices the same (job, pool, width) twice between two installs of
that job.
"""

from collections import defaultdict
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobKind
from repro.obs.metrics import global_registry
from repro.obs.trace import TraceRecorder
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    CollocationAwarePolicy,
    GpuPoolSpec,
    SchedulerEngine,
    TraceJob,
    inject_failures,
    synthetic_trace,
)
from repro.sched.policies import floor_pow2, width_cap
from repro.serve.replay import result_fingerprint


class _ReferenceEngine(SchedulerEngine):
    """The engine with the full-scan expand pass: every job, every point."""

    def _expand_running(self, now: float) -> None:
        sched, free = self.scheduler, self.free
        while free:
            expanded = False
            for state in list(self.fg_running):
                own = state.gpu_type
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

    def _try_migrate(self, state, now: float) -> bool:
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
            self._migrate(state, plan, pool_name, width, now)
            return True
        return False


class _WidenOnly(CollocationAwarePolicy):
    """The collocation policy without cross-pool migration."""

    name = "collocation-widen-only"
    replan_across_types = False


#: Policy names or classes; the engine instantiates a class once per run.
_POLICIES = {
    "fifo": "fifo",
    "srgs": "srgs",
    "collocation": "collocation",
    "widen-only": _WidenOnly,
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


def _failures(sched, trace, count, seed):
    if not count:
        return []
    # Inside the busy part of the run, so failures kill running jobs.
    window = (1.0, 1.0 + 2.0 * trace[-1].arrival_time)
    return inject_failures(
        sched.fleet, count, seed=seed, window=window, mean_downtime=10.0
    )


def _engine(cls, sched, policy, trace, failures):
    recorder = TraceRecorder()
    engine = cls(sched, _POLICIES[policy], recorder=recorder)
    for job in trace:
        engine.add_job(job)
    engine.add_failures(failures)
    return engine, recorder


def _assert_frontier_sound(engine):
    """The frontier is the improvable subset of ``fg_running``, in its order."""
    frontier = list(engine.frontier)
    assert [s for s in engine.fg_running if s in engine.frontier] == frontier
    for state in engine.fg_running:
        assert bool(state.reach) == (state in engine.frontier)
        # The job's own pool (widen) comes before every migration target.
        assert state.gpu_type not in list(state.reach)[1:]


def _assert_same_run(fleet, policy, seed, num_jobs, rate, caps, failures, cut=None):
    sched = _scheduler(fleet)
    trace = _trace(seed, num_jobs, rate, caps)
    schedule = _failures(sched, trace, failures, seed)
    ref, ref_events = _engine(_ReferenceEngine, sched, policy, trace, schedule)
    real, real_events = _engine(SchedulerEngine, sched, policy, trace, schedule)
    assert real.snapshot().to_json() == ref.snapshot().to_json()
    steps = 0
    while ref.queue:
        assert ref.step() == real.step()
        steps += 1
        assert real.snapshot().to_json() == ref.snapshot().to_json()
        _assert_frontier_sound(real)
        if steps == cut:
            # Continue in a fresh engine restored from the snapshot: its
            # frontier is rebuilt with nothing priced.
            restored = SchedulerEngine(sched, _POLICIES[policy])
            restored.restore(real.snapshot())
            _assert_frontier_sound(restored)
            real = restored
    assert not real.queue
    assert real.records == ref.records
    if cut is None:
        assert real_events.events == ref_events.events
    assert result_fingerprint(real.result()) == result_fingerprint(ref.result())


_CAPS = st.lists(st.sampled_from([None, 1, 2, 4, 8]), min_size=1, max_size=4)


class TestExpandMatchesFullScan:
    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    @pytest.mark.parametrize("policy", list(_POLICIES))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_jobs=st.integers(min_value=2, max_value=14),
        rate=st.sampled_from([0.2, 1.0, 4.0]),
        caps=_CAPS,
        failures=st.integers(min_value=0, max_value=2),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_runs(self, fleet, policy, seed, num_jobs, rate, caps, failures):
        _assert_same_run(fleet, policy, seed, num_jobs, rate, caps, failures)

    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        caps=_CAPS,
        failures=st.integers(min_value=0, max_value=2),
        cut=st.integers(min_value=1, max_value=30),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_restore_mid_run(self, fleet, seed, caps, failures, cut):
        _assert_same_run(fleet, "collocation", seed, 12, 1.0, caps, failures, cut)

    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    def test_sparse_run_with_failures(self, fleet):
        # Arrivals far apart on a mostly idle fleet: jobs widen and migrate
        # as others finish, the regime the frontier is for.
        _assert_same_run(fleet, "collocation", 7, 20, 0.2, [None, 2, 4], 2)


def _expand_lookups(sched, engine, monkeypatch):
    """Drain the engine; return its expand-path plan lookups, in order.

    Fails as soon as one (job, pool, width) is looked up twice between two
    installs of that job.
    """
    priced = defaultdict(set)
    in_expand = []
    lookups = []
    plan_for, install, expand = (
        sched._plan_for, engine._install_plan, engine._expand_running
    )

    def counting_plan_for(job, width, gpu_pool):
        if in_expand:
            key = (gpu_pool, width)
            assert key not in priced[job.name], (job.name, key)
            priced[job.name].add(key)
            lookups.append((job.name,) + key)
        return plan_for(job, width, gpu_pool)

    def resetting_install(state, *args):
        priced[state.name].clear()
        return install(state, *args)

    def flagged_expand(now):
        in_expand.append(now)
        try:
            expand(now)
        finally:
            in_expand.pop()

    monkeypatch.setattr(sched, "_plan_for", counting_plan_for)
    monkeypatch.setattr(engine, "_install_plan", resetting_install)
    monkeypatch.setattr(engine, "_expand_running", flagged_expand)
    registry = global_registry()
    before = registry.snapshot()
    engine.drain()
    moved = registry.delta_since(before)
    assert moved["sched.expand.priced"] == len(lookups)
    assert moved["sched.expand.scanned"] >= len(lookups)
    return lookups


class TestPricing:
    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    def test_no_width_priced_twice_per_install(self, fleet, monkeypatch):
        sched = _scheduler(fleet)
        trace = _trace(5, 30, 0.5, [None, 4, 2])
        engine = SchedulerEngine(sched, "collocation")
        for job in trace:
            engine.add_job(job)
        engine.add_failures(_failures(sched, trace, 2, 5))
        assert _expand_lookups(sched, engine, monkeypatch)
        assert len(engine.result().records) == len(trace)

    def test_losing_width_priced_once_on_one_pool(self, monkeypatch):
        # ``steady`` starts at width 16 of 64 GPUs; once ``a`` and ``b``
        # finish, its width-32 plan is priced and loses (vgg16 at batch 32
        # gains nothing past 16 GPUs).  Every later background arrival and
        # finish runs an expand pass with 32+ GPUs free; a full scan
        # re-prices width 32 at each one.
        trace = [
            TraceJob("a", "resnet50", 256, 0.0, iterations=200, max_gpus=32),
            TraceJob("b", "resnet50", 256, 0.01, iterations=200, max_gpus=16),
            TraceJob("steady", "vgg16", 32, 0.02, iterations=20000),
        ] + [
            TraceJob(
                f"bg{i}", "resnet50", 32, 20.0 + i, iterations=100,
                kind=JobKind.BACKGROUND,
            )
            for i in range(20)
        ]
        sched = ClusterScheduler(64)
        engine = SchedulerEngine(sched, "collocation")
        for job in trace:
            engine.add_job(job)
        lookups = _expand_lookups(sched, engine, monkeypatch)
        assert lookups == [("steady", "default", 32)]
        assert engine.result().record("steady").replans == 0

    def test_frontier_empty_under_non_replanning_policies(self):
        sched = _scheduler("two-pool")
        for policy in ("fifo", "srgs"):
            engine = SchedulerEngine(sched, policy)
            for job in _trace(3, 10, 1.0, [None]):
                engine.add_job(job)
            while engine.queue:
                engine.step()
                assert not engine.frontier
