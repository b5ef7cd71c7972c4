"""Heterogeneous fleets + failure injection in repro.sched.

Covers the fleet/host modeling, per-pool planner identity (no plan aliasing
across GPU types), type-aware placement (fast pools for foregrounds, slow
pools for backgrounds, cross-pool migration), the failure/checkpoint model,
and the property-style invariants the CI matrix pins: metrics are invariant
to pool enumeration order, and a failure at any time never leaks or
double-frees the GPU pool.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import fleet_fingerprint
from repro.cluster.job import JobKind
from repro.profiler.gpu_spec import A100_40GB, H100_80GB, V100_32GB, get_gpu_spec
from repro.sched import (
    CheckpointModel,
    ClusterFleet,
    ClusterScheduler,
    FleetPool,
    GpuPool,
    GpuPoolSpec,
    NodeFailure,
    SchedulerEngine,
    TraceJob,
    get_policy,
    inject_failures,
    synthetic_trace,
    validate_failures,
)


def drain_engine(sched, trace, policy, failures):
    """Run a trace on a fresh engine and return it, free pool included."""
    engine = SchedulerEngine(sched, policy)
    for job in trace:
        engine.add_job(job)
    engine.add_failures(failures)
    engine.drain()
    return engine


def mixed_fleet(a100=8, v100=8, gpus_per_host=4):
    return ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, a100, gpus_per_host),
            GpuPoolSpec("v100", V100_32GB, v100, gpus_per_host),
        )
    )


# ---------------------------------------------------------------------------
# Fleet modeling
# ---------------------------------------------------------------------------

class TestClusterFleet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterFleet(())
        with pytest.raises(ValueError):
            ClusterFleet(
                (
                    GpuPoolSpec("x", A100_40GB, 4),
                    GpuPoolSpec("x", V100_32GB, 4),
                )
            )
        with pytest.raises(ValueError):
            GpuPoolSpec("x", A100_40GB, 0)
        with pytest.raises(ValueError):
            GpuPoolSpec("x", A100_40GB, 4, gpus_per_host=0)

    def test_gpu_and_host_numbering(self):
        fleet = mixed_fleet(a100=6, v100=4, gpus_per_host=4)
        assert fleet.num_gpus == 10
        # 6 GPUs at 4/host -> 2 hosts (one partial); 4 GPUs -> 1 host.
        assert fleet.num_hosts == 3
        assert list(fleet.gpu_ids_of_pool("a100")) == [0, 1, 2, 3, 4, 5]
        assert list(fleet.gpu_ids_of_pool("v100")) == [6, 7, 8, 9]
        assert fleet.pool_of_gpu(5) == "a100"
        assert fleet.pool_of_gpu(6) == "v100"
        assert fleet.gpus_of_host(0) == (0, 1, 2, 3)
        assert fleet.gpus_of_host(1) == (4, 5)  # partial host
        assert fleet.gpus_of_host(2) == (6, 7, 8, 9)
        assert fleet.host_of_gpu(4) == 1
        assert fleet.pool_of_host(2) == "v100"
        with pytest.raises(ValueError):
            fleet.pool_of_gpu(10)
        with pytest.raises(ValueError):
            fleet.pool_of_host(3)
        with pytest.raises(KeyError):
            fleet.pool("h100")

    def test_speed_order_ignores_declaration_order(self):
        forward = mixed_fleet()
        backward = ClusterFleet(tuple(reversed(forward.pools)))
        assert forward.speed_order == backward.speed_order == ("a100", "v100")
        three = ClusterFleet(
            (
                GpuPoolSpec("v100", V100_32GB, 4),
                GpuPoolSpec("h100", H100_80GB, 4),
                GpuPoolSpec("a100", A100_40GB, 4),
            )
        )
        assert three.speed_order == ("h100", "a100", "v100")

    def test_homogeneous_helper(self):
        fleet = ClusterFleet.homogeneous(8)
        assert fleet.is_homogeneous
        assert fleet.num_gpus == 8
        assert fleet.pools[0].gpu == A100_40GB

    def test_fleet_fingerprint_is_order_invariant(self):
        forward = mixed_fleet()
        backward = ClusterFleet(tuple(reversed(forward.pools)))
        assert fleet_fingerprint(forward) == fleet_fingerprint(backward)
        bigger = mixed_fleet(a100=16)
        assert fleet_fingerprint(forward) != fleet_fingerprint(bigger)


class TestFleetPool:
    def test_take_release_per_pool(self):
        pool = FleetPool(mixed_fleet(a100=4, v100=4))
        assert len(pool) == 8
        taken = pool.take("v100", 2)
        assert taken == [4, 5]  # v100 ids start after the a100 block
        assert pool.free_of("v100") == 2
        assert pool.free_of("a100") == 4
        pool.release("v100", taken)
        assert pool.free_ids() == list(range(8))

    def test_fail_and_recover_host(self):
        fleet = mixed_fleet(a100=4, v100=4, gpus_per_host=4)
        pool = FleetPool(fleet)
        busy = pool.take("a100", 2)  # ids 0, 1 leave the pool
        down = pool.fail_host(0)  # a100 host: ids 0..3
        assert down == (0, 1, 2, 3)
        assert pool.free_of("a100") == 0
        assert pool.down_ids() == [0, 1, 2, 3]
        # The evicted job's GPUs are absorbed, not double-freed.
        pool.release("a100", busy)
        assert pool.free_of("a100") == 0
        with pytest.raises(ValueError):
            pool.fail_host(0)
        pool.recover_host(0)
        assert pool.free_ids() == list(range(8))
        with pytest.raises(ValueError):
            pool.recover_host(0)

    def test_gpu_pool_remove_and_ids(self):
        pool = GpuPool(range(6))
        assert pool.remove([1, 3, 99]) == [1, 3]  # absent ids ignored
        assert pool.ids() == [0, 2, 4, 5]
        assert pool.take(2) == [0, 2]


# ---------------------------------------------------------------------------
# Failure schedules
# ---------------------------------------------------------------------------

class TestFailureSchedules:
    def test_node_failure_validation(self):
        with pytest.raises(ValueError):
            NodeFailure(time=-1.0, host=0, duration=5.0)
        with pytest.raises(ValueError):
            NodeFailure(time=0.0, host=0, duration=0.0)
        with pytest.raises(ValueError):
            NodeFailure(time=0.0, host=-1, duration=5.0)

    def test_validate_rejects_unknown_host_and_overlap(self):
        fleet = mixed_fleet(a100=4, v100=4, gpus_per_host=4)
        with pytest.raises(ValueError, match="host 9"):
            validate_failures(fleet, [NodeFailure(1.0, 9, 5.0)])
        with pytest.raises(ValueError, match="still down"):
            validate_failures(
                fleet, [NodeFailure(1.0, 0, 10.0), NodeFailure(5.0, 0, 1.0)]
            )
        # Non-overlapping windows on one host are fine, and come back sorted.
        ordered = validate_failures(
            fleet, [NodeFailure(20.0, 0, 1.0), NodeFailure(1.0, 0, 5.0)]
        )
        assert [f.time for f in ordered] == [1.0, 20.0]

    def test_inject_failures_deterministic_and_valid(self):
        fleet = mixed_fleet(a100=16, v100=16, gpus_per_host=4)
        first = inject_failures(fleet, 12, seed=3)
        assert first == inject_failures(fleet, 12, seed=3)
        assert first != inject_failures(fleet, 12, seed=4)
        assert len(first) == 12
        validate_failures(fleet, first)  # non-overlapping by construction
        assert inject_failures(fleet, 0) == []

    def test_checkpoint_model_validation(self):
        with pytest.raises(ValueError):
            CheckpointModel(interval_s=0.0)
        with pytest.raises(ValueError):
            CheckpointModel(restart_overhead_s=-1.0)


# ---------------------------------------------------------------------------
# Scheduler on heterogeneous fleets
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def het_sched():
    return ClusterScheduler(mixed_fleet(a100=8, v100=8, gpus_per_host=4))


class TestHeterogeneousScheduling:
    def test_homogeneous_fleet_matches_legacy_constructor(self):
        trace = synthetic_trace(10, seed=3, models=("vgg16",))
        legacy = ClusterScheduler(8).run(trace, "collocation")
        fleet = ClusterScheduler(ClusterFleet.homogeneous(8)).run(trace, "collocation")
        assert fleet.metrics == legacy.metrics
        assert fleet.records == legacy.records
        assert fleet.events_processed == legacy.events_processed

    def test_foreground_prefers_fast_pool_background_takes_slow(self, het_sched):
        trace = [
            TraceJob("fg", "vgg16", 32, 0.0, 50),
            TraceJob("bg", "vgg16", 4, 0.0, 50, JobKind.BACKGROUND),
        ]
        result = het_sched.run(trace, "collocation")
        assert result.record("fg").gpu_pool == "a100"
        assert result.record("bg").gpu_pool == "v100"

    def test_foreground_falls_back_to_slow_pool_on_contention(self, het_sched):
        # Two width-8 foregrounds: the first saturates the 8-GPU a100 pool,
        # so the second must run (and finish) on the v100 pool.
        trace = [
            TraceJob("fg-fast", "vgg16", 32, 0.0, 2000, max_gpus=8),
            TraceJob("fg-slow", "vgg16", 32, 0.1, 50, max_gpus=8),
        ]
        result = het_sched.run(trace, "fifo")
        assert result.record("fg-fast").gpu_pool == "a100"
        assert result.record("fg-slow").gpu_pool == "v100"
        # Same width on a slower GPU: strictly later finish per iteration.
        assert result.record("fg-slow").start_time == pytest.approx(0.1)

    def test_contended_job_migrates_to_fast_pool_when_it_frees(self, het_sched):
        # The short job holds the whole a100 pool; the long job starts on
        # the v100s and migrates to the a100 pool once it drains.
        trace = [
            TraceJob("fg-short", "vgg16", 32, 0.0, 50, max_gpus=8),
            TraceJob("fg-long", "vgg16", 32, 0.1, 4000, max_gpus=8),
        ]
        result = het_sched.run(trace, "collocation")
        long_record = result.record("fg-long")
        assert long_record.gpu_pool == "a100"  # finished on the fast pool
        assert long_record.replans >= 1

    def test_per_pool_plans_never_alias(self, het_sched):
        trace = [TraceJob("fg", "vgg16", 32, 0.0, 50)]
        het_sched.run(trace, "collocation")
        key_a = het_sched._plan_cache_key("vgg16", 32, 4, 2.0, "a100")
        key_v = het_sched._plan_cache_key("vgg16", 32, 4, 2.0, "v100")
        assert key_a != key_v
        assert key_a[:4] == key_v[:4]  # only the planner identity differs

    def test_pool_planners_model_their_gpu(self, het_sched):
        assert het_sched._profiler_for("a100").gpu == A100_40GB
        assert het_sched._profiler_for("v100").gpu == V100_32GB
        # Same model+batch is strictly slower on the slower generation.
        fast = het_sched._iso_time_on("vgg16", 8, "a100")
        slow = het_sched._iso_time_on("vgg16", 8, "v100")
        assert slow > fast

    def test_prewarm_covers_every_pool(self):
        sched = ClusterScheduler(mixed_fleet(a100=8, v100=8, gpus_per_host=4))
        trace = synthetic_trace(12, seed=5, models=("vgg16",))
        seeded = sched.prewarm_plans(trace)
        assert seeded > 0
        pools = {key[4] for key in sched._plan_cache}
        assert len(pools) == 2  # one planner fingerprint per pool
        cold = ClusterScheduler(mixed_fleet(a100=8, v100=8, gpus_per_host=4)).run(
            trace, "collocation"
        )
        assert sched.run(trace, "collocation").metrics == cold.metrics

    def test_prewarm_keys_carry_fleet_pool_planner(self):
        # A homogeneous fleet whose GPU differs from the scheduler's default
        # profiler: prewarmed plans must be keyed by the *fleet pool's*
        # planner identity (here V100), not the scheduler's default A100
        # planner — otherwise A100 plans would be served to V100 jobs.
        fleet = ClusterFleet((GpuPoolSpec("v100", V100_32GB, 4, gpus_per_host=2),))
        trace = synthetic_trace(4, seed=1, models=("vgg16",))
        sched = ClusterScheduler(fleet)
        seeded = sched.prewarm_plans(trace)
        assert seeded > 0
        v100_fp = sched._fingerprint_of(sched._planner_for("v100"))
        assert v100_fp != sched._fingerprint_of(sched.planner)
        assert {key[4] for key in sched._plan_cache} == {v100_fp}


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------

class TestFailureHandling:
    def _fleet(self):
        # One pool, two 2-GPU hosts: failures have a tight blast radius.
        return ClusterFleet((GpuPoolSpec("a100", A100_40GB, 4, gpus_per_host=2),))

    def test_failure_restarts_job_and_accounts_lost_work(self):
        trace = [TraceJob("fg", "vgg16", 32, 0.0, 2000, max_gpus=4)]
        sched = ClusterScheduler(
            self._fleet(), checkpoint=CheckpointModel(interval_s=4.0)
        )
        clean = sched.run(trace, "collocation")
        # t=10 is between checkpoints (8 and 12): two seconds of progress
        # roll back.
        failed = sched.run(
            trace, "collocation", failures=[NodeFailure(10.0, 0, 8.0)]
        )
        record = failed.record("fg")
        assert record.restarts == 1
        assert record.lost_gpu_seconds > 0
        assert failed.metrics.restarts == 1
        assert failed.metrics.lost_gpu_seconds == record.lost_gpu_seconds
        assert record.finish_time > clean.record("fg").finish_time
        assert failed.failures_injected == 1
        assert failed.events_processed > clean.events_processed  # node events

    def test_checkpoint_interval_bounds_lost_work(self):
        trace = [TraceJob("fg", "vgg16", 32, 0.0, 2000, max_gpus=4)]
        failures = [NodeFailure(11.0, 0, 5.0)]
        lost = {}
        for interval in (1.0, 1000.0):
            sched = ClusterScheduler(
                self._fleet(),
                checkpoint=CheckpointModel(interval_s=interval, restart_overhead_s=0.0),
            )
            lost[interval] = sched.run(
                trace, "collocation", failures=failures
            ).record("fg").lost_gpu_seconds
        # Tight checkpoints lose (almost) nothing; with none before the
        # failure, everything since the start is rolled back.
        assert lost[1.0] < lost[1000.0]
        assert lost[1000.0] > 0

    def test_guests_evicted_when_host_job_dies(self):
        fleet = self._fleet()
        trace = [
            TraceJob("fg", "vgg16", 32, 0.0, 2000, max_gpus=4),
            TraceJob("bg", "vgg16", 4, 1.0, 50, JobKind.BACKGROUND),
        ]
        engine = drain_engine(
            ClusterScheduler(fleet), trace, "collocation", [NodeFailure(5.0, 0, 10.0)]
        )
        result = engine.result()
        assert result.metrics.num_jobs == 2  # both still complete
        assert result.record("fg").restarts == 1
        # The pool ends the run whole: every GPU free exactly once.
        assert engine.free.free_ids() == list(range(fleet.num_gpus))
        assert engine.free.down_ids() == []

    def test_rollback_after_replan_prices_lost_work_at_current_plan(self):
        # A re-plan serializes the job's state, so it re-checkpoints: a later
        # rollback loses only post-replan work, priced at the *current*
        # plan's per-iteration cost (never old iterations at the new, wider
        # plan's cost, which could drive busy_gpu_seconds negative).
        trace = [
            TraceJob("fg-a", "vgg16", 32, 0.0, 1000, max_gpus=2),
            TraceJob("fg-b", "vgg16", 32, 0.1, 4000, max_gpus=4),
        ]
        ckpt = CheckpointModel(interval_s=10_000.0, restart_overhead_s=0.0)
        clean = ClusterScheduler(self._fleet(), checkpoint=ckpt).run(
            trace, "collocation"
        )
        t_replan = clean.record("fg-a").finish_time  # fg-b widens 2 -> 4 here
        fail_time = t_replan + 2.0
        failed = ClusterScheduler(self._fleet(), checkpoint=ckpt).run(
            trace, "collocation", failures=[NodeFailure(fail_time, 0, 5.0)]
        )
        record = failed.record("fg-b")
        assert record.replans >= 1
        assert record.restarts == 1
        assert record.busy_gpu_seconds >= 0.0
        # Only the 2 seconds since the re-plan can roll back; the fleet
        # accrues at most `width` busy GPU-seconds per wall second.
        assert 0.0 < record.lost_gpu_seconds <= (fail_time - t_replan) * 4

    def test_preemption_banks_unpaid_restart_overhead(self):
        # A restarted job evicted mid-restart-window owes the unpaid
        # remainder at its next placement instead of forgiving it: with a
        # 40 s overhead the background job finishes >= ~35 s later than with
        # none, under an identical failure/preemption timeline.
        def run(overhead):
            trace = [
                TraceJob("bg", "vgg16", 4, 0.0, 3000, JobKind.BACKGROUND),
                TraceJob("fg", "vgg16", 32, 5.0, 3000, max_gpus=2),
            ]
            sched = ClusterScheduler(
                self._fleet(),
                checkpoint=CheckpointModel(
                    interval_s=10_000.0, restart_overhead_s=overhead
                ),
            )
            # Host 0 dies at t=2 (long outage): bg restarts on host 1, then
            # the arriving foreground preempts it at t=5, mid-penalty.
            return sched.run(
                trace, "collocation", failures=[NodeFailure(2.0, 0, 100.0)]
            )

        free_restart = run(0.0)
        paid_restart = run(40.0)
        assert free_restart.record("bg").preemptions >= 1
        assert paid_restart.record("bg").preemptions >= 1
        assert paid_restart.record("bg").restarts == 1
        delay = (
            paid_restart.record("bg").finish_time
            - free_restart.record("bg").finish_time
        )
        assert delay >= 35.0

    def test_failure_of_idle_host_is_harmless(self):
        trace = [TraceJob("fg", "vgg16", 32, 0.0, 100, max_gpus=2)]
        # Host 1 (GPUs 2-3) is idle: nothing to kill, capacity dips only.
        engine = drain_engine(
            ClusterScheduler(self._fleet()), trace, "collocation",
            [NodeFailure(1.0, 1, 5.0)],
        )
        assert engine.result().record("fg").restarts == 0
        assert engine.free.free_ids() == [0, 1, 2, 3]

    def test_overlapping_failures_rejected_by_run(self):
        sched = ClusterScheduler(self._fleet())
        trace = [TraceJob("fg", "vgg16", 32, 0.0, 100)]
        with pytest.raises(ValueError, match="still down"):
            sched.run(
                trace,
                "collocation",
                failures=[NodeFailure(1.0, 0, 10.0), NodeFailure(2.0, 0, 1.0)],
            )


# ---------------------------------------------------------------------------
# Property-style invariants (the CI matrix pins these)
# ---------------------------------------------------------------------------

_PERM_POOLS = (
    GpuPoolSpec("a100", A100_40GB, 4, gpus_per_host=2),
    GpuPoolSpec("v100", V100_32GB, 4, gpus_per_host=2),
    GpuPoolSpec("h100", H100_80GB, 2, gpus_per_host=2),
)


class TestPropertyInvariants:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2),
        perm=st.permutations(range(len(_PERM_POOLS))),
    )
    def test_metrics_invariant_to_pool_enumeration_order(self, seed, perm):
        """Permuting pool declarations renumbers GPUs but cannot change
        a single scheduling outcome: records and metrics are identical."""
        trace = synthetic_trace(8, seed=seed, models=("vgg16",))
        reference = ClusterScheduler(ClusterFleet(_PERM_POOLS)).run(
            trace, "collocation"
        )
        permuted_fleet = ClusterFleet(tuple(_PERM_POOLS[i] for i in perm))
        permuted = ClusterScheduler(permuted_fleet).run(trace, "collocation")
        assert permuted.metrics == reference.metrics
        assert permuted.records == reference.records
        assert permuted.events_processed == reference.events_processed

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        fail_time=st.floats(min_value=0.5, max_value=60.0),
        duration=st.floats(min_value=1.0, max_value=30.0),
        host=st.integers(min_value=0, max_value=2),
        policy=st.sampled_from(["fifo", "srgs", "collocation"]),
    )
    def test_failure_never_leaks_or_double_frees_gpus(
        self, fail_time, duration, host, policy
    ):
        """A failure at any time, on any host, under any policy, ends with
        every job complete and every GPU free exactly once."""
        fleet = ClusterFleet(_PERM_POOLS)
        trace = synthetic_trace(6, seed=1, models=("vgg16",))
        sched = ClusterScheduler(fleet, checkpoint=CheckpointModel(interval_s=10.0))
        engine = drain_engine(
            sched, trace, policy, [NodeFailure(fail_time, host, duration)]
        )
        assert engine.result().metrics.num_jobs == len(trace)
        assert engine.free.free_ids() == list(range(fleet.num_gpus))
        assert engine.free.down_ids() == []


class TestPolicyPoolPreference:
    def test_orders(self):
        fleet = mixed_fleet()
        policy = get_policy("collocation")
        fg = TraceJob("fg", "vgg16", 32, 0.0, 10)
        bg = TraceJob("bg", "vgg16", 4, 0.0, 10, JobKind.BACKGROUND)
        assert policy.pool_preference(fg, fleet) == ("a100", "v100")
        assert policy.pool_preference(bg, fleet) == ("v100", "a100")

    def test_h100_registered(self):
        assert get_gpu_spec("h100") == H100_80GB
