"""The open-collocation-slot index against a brute-force reference.

Background placement reads the least open slot from
:class:`~repro.sched.ordering.OpenSlotIndex` instead of scanning every
running foreground job's GPUs.  These tests drive small random runs —
homogeneous and A100+V100 fleets, node failures, re-plans, migrations and
cancellations of running foreground jobs and collocated guests — and after
every ``step()`` and ``cancel()`` recompute the open slots from scratch
(``fg_running``, ``busy_fractions``, ``hosted``) and re-run the original
linear scan, which lives here as the obviously-correct reference.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sched.engine as engine_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.obs.trace import (
    EV_COLLOCATE,
    EV_KILL,
    EV_MIGRATION,
    EV_REPLAN,
    TraceRecorder,
)
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    SchedulerEngine,
    inject_failures,
    synthetic_trace,
)
from repro.sched.ordering import OpenSlotIndex

_FLEETS = {
    "homogeneous": lambda: 16,
    "two-pool": lambda: ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, 8, 4),
            GpuPoolSpec("v100", V100_32GB, 8, 4),
        )
    ),
}


@lru_cache(maxsize=None)
def _scheduler(fleet: str) -> ClusterScheduler:
    # Shared across examples so plans are searched once; every engine
    # re-binds the scheduler's per-run registries.
    return ClusterScheduler(_FLEETS[fleet]())


def _eligible(sched, policy, busy: float) -> bool:
    profile = sched.collocation
    efficiency = (
        (1.0 - busy) * profile.bg_idle_efficiency + busy * profile.bg_busy_efficiency
    )
    return not efficiency < policy.min_collocation_efficiency


def _reference_open_slots(engine):
    """Every open eligible slot, recomputed from the engine's registries."""
    sched = engine.scheduler
    return sorted(
        (busy, fg.order, index)
        for fg in engine.fg_running
        for index, busy in enumerate(fg.busy_fractions)
        if index not in fg.hosted and _eligible(sched, engine.policy, busy)
    )


def _reference_pick(engine):
    """The linear scan background placement used before the index."""
    sched = engine.scheduler
    profile = sched.collocation
    min_efficiency = engine.policy.min_collocation_efficiency
    best = None
    for fg in engine.fg_running:
        for index, busy in enumerate(fg.busy_fractions):
            if index in fg.hosted:
                continue
            efficiency = (
                (1.0 - busy) * profile.bg_idle_efficiency
                + busy * profile.bg_busy_efficiency
            )
            if efficiency < min_efficiency:
                continue
            key = (busy, fg.order, index)
            if best is None or key < (best[0], best[1], best[2]):
                best = (busy, fg.order, index, fg)
    if best is None:
        return None
    return best[3], best[2]


def _assert_index_exact(engine):
    index = engine.open_slots
    slots = _reference_open_slots(engine)
    assert index.open_slots() == slots
    # One key per job with an open slot: that job's least open slot.
    best = {}
    for key in slots:
        best.setdefault(key[1], key)
    assert index._keys == sorted(best.values())
    assert set(index._jobs) == {fg.order for fg in engine.fg_running}
    picked, expected = index.first(), _reference_pick(engine)
    if expected is None:
        assert picked is None
    else:
        assert picked is not None
        assert (picked[0].name, picked[1]) == (expected[0].name, expected[1])


def _drive(fleet, seed, num_jobs, rate, failures, cancels):
    """Run one workload, checking the index after every step and cancel.

    ``cancels`` holds ``(step, kind, pick)`` triples: after ``step`` events,
    cancel the ``pick``-th (modulo) running foreground job (``kind="fg"``)
    or collocated guest (``kind="guest"``), if there is one.
    """
    sched = _scheduler(fleet)
    recorder = TraceRecorder()
    engine = SchedulerEngine(sched, "collocation", recorder=recorder)
    trace = synthetic_trace(num_jobs, seed=seed, arrival_rate=rate)
    for job in trace:
        engine.add_job(job)
    if failures:
        # Inside the busy part of the run, so failures kill running
        # jobs and evict guests.
        window = (1.0, 1.0 + 2.0 * trace[-1].arrival_time)
        engine.add_failures(
            inject_failures(
                sched.fleet, failures, seed=seed, window=window, mean_downtime=10.0
            )
        )
    due = sorted(cancels)
    cancelled = {"fg": 0, "guest": 0}
    steps = 0
    _assert_index_exact(engine)
    while engine.queue:
        engine.step()
        steps += 1
        _assert_index_exact(engine)
        while due and due[0][0] <= steps:
            _, kind, pick = due.pop(0)
            if kind == "fg":
                victims = sorted(s.name for s in engine.fg_running)
            else:
                victims = sorted(
                    s.name for s in engine.states.values() if s.collocated
                )
            if victims and engine.cancel(victims[pick % len(victims)], engine.clock):
                cancelled[kind] += 1
                _assert_index_exact(engine)
    engine.result(require_complete=False)
    return recorder, cancelled


_CANCELS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=60),
        st.sampled_from(["fg", "guest"]),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=4,
)


class TestIndexMatchesReference:
    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_jobs=st.integers(min_value=2, max_value=14),
        rate=st.sampled_from([0.3, 1.0, 3.0]),
        failures=st.integers(min_value=0, max_value=3),
        cancels=_CANCELS,
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_runs(self, fleet, seed, num_jobs, rate, failures, cancels):
        _drive(fleet, seed, num_jobs, rate, failures, cancels)

    @pytest.mark.parametrize("fleet", sorted(_FLEETS))
    def test_fixed_run_exercises_every_update_path(self, fleet):
        # A dense run with failures and both kinds of cancellation: the
        # index is checked across attaches, re-plans, failures and cancels
        # (and migrations on the two-pool fleet), not just quiet steps.
        cancels = [(10, "guest", 0), (14, "fg", 1), (20, "guest", 3), (26, "fg", 0)]
        recorder, cancelled = _drive(fleet, 5, 24, 1.0, 3, cancels)
        assert recorder.events_of(EV_COLLOCATE)
        assert recorder.events_of(EV_REPLAN)
        assert recorder.events_of(EV_KILL)
        assert cancelled["fg"] >= 1 and cancelled["guest"] >= 1
        if fleet == "two-pool":
            assert recorder.events_of(EV_MIGRATION)


@pytest.fixture
def built_indexes(monkeypatch):
    """Every OpenSlotIndex the engine constructs while the test runs."""
    built = []

    class CountingIndex(OpenSlotIndex):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(engine_module, "OpenSlotIndex", CountingIndex)
    return built


class TestNonCollocatingPolicies:
    @pytest.mark.parametrize("policy", ["fifo", "srgs"])
    def test_no_index_is_built_or_fed(self, policy, built_indexes):
        sched = _scheduler("two-pool")
        engine = SchedulerEngine(sched, policy)
        for job in synthetic_trace(12, seed=3, arrival_rate=3.0):
            engine.add_job(job)
        engine.add_failures(inject_failures(sched.fleet, 2, seed=3))
        engine.drain()
        assert len(engine.result().records) == 12
        assert engine.open_slots is None and not built_indexes

    def test_collocating_policy_builds_one_index_per_run(self, built_indexes):
        sched = _scheduler("homogeneous")
        engines = [SchedulerEngine(sched, "collocation") for _ in range(2)]
        assert len(built_indexes) == 2
        assert [engine.open_slots for engine in engines] == built_indexes


class TestPlanOccupancyMemo:
    def test_each_plan_is_placed_once(self, monkeypatch):
        placed = []
        original = ClusterCoordinator.place_plan

        def counting(self, plan):
            placed.append(id(plan))
            return original(self, plan)

        monkeypatch.setattr(ClusterCoordinator, "place_plan", counting)
        sched = ClusterScheduler(16)
        trace = synthetic_trace(16, seed=2, arrival_rate=1.0)
        sched.prewarm_plans(trace)
        assert not placed  # prewarming plans, never places them
        first = sched.run(trace, "collocation")
        assert placed and len(placed) == len(set(placed))
        count = len(placed)
        again = sched.run(trace, "collocation")
        assert len(placed) == count  # the second run re-places nothing
        assert first.metrics == again.metrics
