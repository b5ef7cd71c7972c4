"""Cluster-scale scheduler fast path: incremental orderings, prewarming,
plan-cache identity, and the sched_sim_xl determinism regression tests."""

from types import SimpleNamespace

import pytest

from repro.bench import run_scenario
from repro.cluster.job import JobKind
from repro.core.planner import PlannerConfig
from repro.core.planner.planner import BurstParallelPlanner
from repro.network.fabric import get_fabric
from repro.profiler.gpu_spec import V100_32GB
from repro.profiler.layer_profiler import LayerProfiler
from repro.sched import (
    ClusterScheduler,
    PendingQueue,
    ShortestRemainingGPUSecondsPolicy,
    SortedJobList,
    TraceJob,
    get_policy,
    mixed_trace,
    synthetic_trace,
)


def _job(name, key_attrs=()):
    job = SimpleNamespace(name=name, is_foreground=True)
    for attr, value in key_attrs:
        setattr(job, attr, value)
    return job


class TestSortedJobList:
    def test_orders_by_key_with_stable_ties(self):
        jobs = SortedJobList()
        a, b, c = _job("a"), _job("b"), _job("c")
        jobs.add(a, (2.0,))
        jobs.add(b, (1.0,))
        jobs.add(c, (2.0,))  # same key as a: insertion order breaks the tie
        assert [j.name for j in jobs] == ["b", "a", "c"]

    def test_remove_and_membership(self):
        jobs = SortedJobList()
        a, b = _job("a"), _job("b")
        jobs.add(a, (1.0,))
        jobs.add(b, (2.0,))
        assert a in jobs and len(jobs) == 2
        jobs.remove(a)
        assert a not in jobs
        assert [j.name for j in jobs] == ["b"]
        with pytest.raises(KeyError):
            jobs.remove(a)

    def test_duplicate_add_rejected(self):
        jobs = SortedJobList()
        a = _job("a")
        jobs.add(a, (1.0,))
        with pytest.raises(ValueError):
            jobs.add(a, (2.0,))

    def test_rekey_moves_item(self):
        jobs = SortedJobList()
        a, b = _job("a"), _job("b")
        jobs.add(a, (1.0,))
        jobs.add(b, (2.0,))
        jobs.rekey(a, (3.0,))
        assert [j.name for j in jobs] == ["b", "a"]


class TestPendingQueue:
    def test_policy_order_and_foreground_count(self):
        policy = get_policy("fifo")
        queue = PendingQueue(policy)
        early = SimpleNamespace(
            name="early", is_foreground=True, arrival_time=1.0, order=0
        )
        late = SimpleNamespace(
            name="late", is_foreground=False, arrival_time=2.0, order=1
        )
        queue.add(late, now=2.0)
        queue.add(early, now=2.0)
        assert [j.name for j in queue] == ["early", "late"]
        assert queue.foreground_waiting == 1
        queue.remove(early)
        assert queue.foreground_waiting == 0
        assert len(queue) == 1

    def test_resort_recomputes_time_varying_keys(self):
        class AgingPolicy:
            dynamic_priority = True

            def sort_key(self, job, now):
                return (job.base - now * job.aging_rate,)

        a = SimpleNamespace(name="a", is_foreground=True, base=10.0, aging_rate=0.0)
        b = SimpleNamespace(name="b", is_foreground=True, base=12.0, aging_rate=1.0)
        queue = PendingQueue(AgingPolicy())
        queue.add(a, now=0.0)
        queue.add(b, now=0.0)
        assert [j.name for j in queue] == ["a", "b"]
        queue.resort(now=5.0)  # b aged past a
        assert [j.name for j in queue] == ["b", "a"]


class TestMixedTrace:
    def test_deterministic_unique_and_sorted(self):
        first = mixed_trace(60, seed=5)
        second = mixed_trace(60, seed=5)
        assert first == second
        names = [j.name for j in first]
        assert len(set(names)) == len(names) == 60
        arrivals = [j.arrival_time for j in first]
        assert arrivals == sorted(arrivals)
        prefixes = {n.split("-", 1)[0] for n in names}
        assert prefixes == {"syn", "ali"}

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_trace(1)
        with pytest.raises(ValueError):
            mixed_trace(10, synthetic_fraction=1.0)


class TestPrewarm:
    def test_prewarm_matches_cold_metrics(self):
        trace = synthetic_trace(30, seed=9)
        cold = ClusterScheduler(16).run(trace, "collocation")

        warmed = ClusterScheduler(16)
        seeded = warmed.prewarm_plans(trace)
        assert seeded > 0
        assert len(warmed._plan_cache) == seeded
        result = warmed.run(trace, "collocation")
        assert result.metrics == cold.metrics
        assert result.events_processed == cold.events_processed
        # Replay never planned anything beyond the prewarmed set.
        assert len(warmed._plan_cache) == seeded

    def test_prewarm_is_deterministic(self):
        """Two fresh schedulers prewarm the same plans under the same keys,
        in the same order, and replay to the same metrics."""
        trace = synthetic_trace(30, seed=9)
        runs = []
        for _ in range(2):
            sched = ClusterScheduler(16)
            seeded = sched.prewarm_plans(trace)
            plans = [(key, plan.to_dict()) for key, plan in sched._plan_cache.items()]
            for _, plan in plans:
                plan.pop("search_time")  # wall time of the search
            runs.append((seeded, plans, sched.run(trace, "collocation").metrics))
        assert runs[0] == runs[1]

    def test_prewarm_is_idempotent(self):
        trace = synthetic_trace(20, seed=3)
        sched = ClusterScheduler(8)
        first = sched.prewarm_plans(trace)
        assert first > 0
        assert sched.prewarm_plans(trace) == 0  # everything already seeded


class TestSamePassPreemption:
    """A background job placed and then preempted within one scheduling pass
    must re-enter the pending queue cleanly (regression: the incremental
    queue raised 'already tracked' where the old list-based queue coped)."""

    class _PreemptingSRGS(ShortestRemainingGPUSecondsPolicy):
        name = "srgs+preempt"
        preempt_background = True

    def test_background_placed_then_preempted_in_one_pass(self):
        trace = [
            # Holds both GPUs until the interesting pass.
            TraceJob("blocker", "vgg16", 32, 0.0, iterations=500),
            # Sorts first (tiny remaining work), grabs the free GPU...
            TraceJob(
                "bg", "vgg16", 2, 0.01, iterations=1, kind=JobKind.BACKGROUND
            ),
            # ...then this one preempts it for a width-2 placement.
            TraceJob("fg2", "vgg16", 32, 0.02, iterations=500),
        ]
        result = ClusterScheduler(2).run(trace, self._PreemptingSRGS())
        assert result.record("bg").preemptions >= 1
        assert result.record("fg2").width == 2
        assert result.metrics.num_jobs == 3  # everyone completed


class TestPlanCacheIdentity:
    """Satellite bugfix: plan-cache keys carry the planner fingerprint."""

    def test_key_changes_with_planner_config(self):
        sched = ClusterScheduler(8)
        key_default = sched._plan_cache_key("vgg16", 32, 4, 2.0)
        sched.planner = BurstParallelPlanner(
            get_fabric("nvswitch"),
            sched.profiler,
            PlannerConfig(powers_of_two_only=False),
        )
        key_full_grid = sched._plan_cache_key("vgg16", 32, 4, 2.0)
        assert key_default != key_full_grid
        assert key_default[:4] == key_full_grid[:4]  # only the identity moved

    def test_swapped_planner_cannot_alias_plans(self):
        trace = synthetic_trace(12, seed=4)
        sched = ClusterScheduler(8)
        nvswitch = sched.run(trace, "collocation")
        plans_before = len(sched._plan_cache)
        # Same scheduler, radically slower fabric: cached nvswitch plans must
        # not be served for it.
        sched.planner = BurstParallelPlanner(
            get_fabric("10gbps"), sched.profiler
        )
        slow = sched.run(trace, "collocation")
        assert len(sched._plan_cache) > plans_before
        assert slow.metrics != nvswitch.metrics

    def test_profiler_identity_separates_plans(self):
        sched_a100 = ClusterScheduler(8)
        profiler = LayerProfiler(gpu=V100_32GB)
        sched_v100 = ClusterScheduler(
            8,
            profiler=profiler,
            planner=BurstParallelPlanner(get_fabric("nvswitch"), profiler),
        )
        key_a = sched_a100._plan_cache_key("vgg16", 32, 4, 2.0)
        key_v = sched_v100._plan_cache_key("vgg16", 32, 4, 2.0)
        assert key_a != key_v


XL_SMALL = {"num_gpus": 64, "num_jobs": 160, "seed": 13}


class TestSchedSimXlDeterminism:
    """Identical fingerprints cold / warm / prewarmed / planned on demand."""

    def test_cold_warm_and_unprewarmed_fingerprint_identically(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runs = {
            "no_cache": run_scenario("sched_sim_xl", overrides=XL_SMALL),
            "cold": run_scenario(
                "sched_sim_xl", overrides=dict(XL_SMALL, cache_dir=cache_dir)
            ),
            "warm": run_scenario(
                "sched_sim_xl", overrides=dict(XL_SMALL, cache_dir=cache_dir)
            ),
            "no_prewarm": run_scenario(
                "sched_sim_xl", overrides=dict(XL_SMALL, prewarm=False)
            ),
        }
        reference = runs["no_cache"]
        assert reference.ops > 0
        for label, artifact in runs.items():
            assert artifact.ops == reference.ops, label
            assert artifact.metrics == reference.metrics, label
        # The warm run really ran against a populated cache.
        assert runs["warm"].info["cache_hits"] > 0
        assert runs["warm"].info["cache_misses"] == 0

    def test_xl_exercises_cluster_dynamics(self):
        artifact = run_scenario("sched_sim_xl", overrides=XL_SMALL)
        assert artifact.metrics["jobs"] == float(XL_SMALL["num_jobs"])
        assert artifact.metrics["replans"] > 0
        assert artifact.info["prewarmed_plans"] > 0
