"""Tests for the trace-driven multi-tenant cluster scheduler (repro.sched)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobKind
from repro.sched import (
    POLICIES,
    ClusterScheduler,
    CollocationAwarePolicy,
    EventKind,
    EventQueue,
    FIFOPolicy,
    FleetMetrics,
    JobRecord,
    ShortestRemainingGPUSecondsPolicy,
    TraceJob,
    alibaba_trace,
    floor_pow2,
    get_policy,
    percentile,
    synthetic_trace,
)


# ---------------------------------------------------------------------------
# Event queue
# ---------------------------------------------------------------------------

class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.JOB_FINISH, "c")
        queue.push(1.0, EventKind.JOB_ARRIVAL, "a")
        queue.push(2.0, EventKind.JOB_ARRIVAL, "b")
        names = [queue.pop().job_name for _ in range(3)]
        assert names == ["a", "b", "c"]

    def test_simultaneous_events_keep_push_order(self):
        queue = EventQueue()
        for name in ("first", "second", "third"):
            queue.push(5.0, EventKind.JOB_ARRIVAL, name)
        names = [queue.pop().job_name for _ in range(3)]
        assert names == ["first", "second", "third"]

    def test_versions_travel_with_events(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.JOB_FINISH, "a", version=4)
        assert queue.pop().version == 4

    def test_empty_queue(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.peek_time() is None
        with pytest.raises(IndexError):
            queue.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.JOB_ARRIVAL, "a")

    def test_push_pop_counters(self):
        """The counters feed the bench harness's scheduler op counts."""
        queue = EventQueue()
        for t in (2.0, 1.0, 3.0):
            queue.push(t, EventKind.JOB_ARRIVAL, "a")
        queue.pop()
        assert queue.pushed == 3
        assert queue.popped == 1


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TestTraces:
    def test_synthetic_trace_deterministic(self):
        assert synthetic_trace(12, seed=5) == synthetic_trace(12, seed=5)
        assert synthetic_trace(12, seed=5) != synthetic_trace(12, seed=6)

    def test_synthetic_trace_sorted_and_mixed(self):
        trace = synthetic_trace(30, seed=1)
        arrivals = [j.arrival_time for j in trace]
        assert arrivals == sorted(arrivals)
        kinds = {j.kind for j in trace}
        assert kinds == {JobKind.FOREGROUND, JobKind.BACKGROUND}

    def test_alibaba_trace_deterministic_and_heavy_tailed(self):
        trace = alibaba_trace(60, seed=2)
        assert trace == alibaba_trace(60, seed=2)
        iterations = sorted(j.iterations for j in trace)
        # Log-normal sizes: the largest job dwarfs the median.
        assert iterations[-1] > 4 * iterations[len(iterations) // 2]
        # Most jobs are small best-effort jobs, as in the PAI trace.
        small = sum(1 for j in trace if not j.is_foreground)
        assert small > len(trace) / 2

    def test_trace_job_validation(self):
        with pytest.raises(ValueError):
            TraceJob("x", "vgg16", 32, arrival_time=-1.0, iterations=10)
        with pytest.raises(ValueError):
            TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=0)
        with pytest.raises(ValueError):
            TraceJob("x", "vgg16", 0, arrival_time=0.0, iterations=10)

    def test_trace_job_conversions(self):
        from repro.models import build_model

        job = TraceJob("x", "vgg16", 32, arrival_time=1.0, iterations=10)
        training = job.to_training_job(build_model("vgg16"))
        assert training.is_foreground
        assert training.amplification_limit == job.amplification_limit
        moved = job.with_arrival(9.0)
        assert moved.arrival_time == 9.0 and moved.name == job.name


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_floor_pow2(self):
        assert [floor_pow2(v) for v in (0, 1, 2, 3, 4, 7, 8, 31, 32)] == [
            0, 1, 2, 2, 4, 4, 8, 16, 32,
        ]

    def test_registry(self):
        assert set(POLICIES) == {"fifo", "srgs", "collocation"}
        assert isinstance(get_policy("fifo"), FIFOPolicy)
        assert isinstance(get_policy(CollocationAwarePolicy), CollocationAwarePolicy)
        policy = ShortestRemainingGPUSecondsPolicy()
        assert get_policy(policy) is policy
        with pytest.raises(KeyError):
            get_policy("round-robin")

    def test_fifo_demands_full_width(self):
        policy = FIFOPolicy()
        job = TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=10)
        assert policy.width_for(job, free_gpus=32, num_gpus=32) == 32
        assert policy.width_for(job, free_gpus=31, num_gpus=32) is None

    def test_backfill_shrinks_to_free_pool(self):
        policy = ShortestRemainingGPUSecondsPolicy()
        job = TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=10)
        assert policy.width_for(job, free_gpus=5, num_gpus=32) == 4
        assert policy.width_for(job, free_gpus=0, num_gpus=32) is None

    def test_collocation_divides_cluster_among_waiting_jobs(self):
        policy = CollocationAwarePolicy()
        job = TraceJob("x", "vgg16", 32, arrival_time=0.0, iterations=10)
        assert policy.width_for(job, 32, 32, pending_foreground=1) == 32
        assert policy.width_for(job, 32, 32, pending_foreground=4) == 8
        # Even a tiny share lets a job start (narrow beats waiting).
        assert policy.width_for(job, 2, 32, pending_foreground=8) == 1

    def test_width_respects_batch_and_cap(self):
        policy = ShortestRemainingGPUSecondsPolicy()
        small_batch = TraceJob("x", "vgg16", 4, arrival_time=0.0, iterations=10)
        assert policy.width_for(small_batch, 32, 32) == 4
        capped = TraceJob(
            "y", "vgg16", 32, arrival_time=0.0, iterations=10, max_gpus=8
        )
        assert policy.width_for(capped, 32, 32) == 8


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile(values, -1)

    def test_percentile_edges(self):
        # Singletons answer every quantile with the one value.
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 100) == 7.0
        # Two elements: linear interpolation between them.
        assert percentile([1.0, 3.0], 25) == pytest.approx(1.5)
        assert percentile([1.0, 3.0], 75) == pytest.approx(2.5)
        # Input order must not matter.
        assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
        assert percentile([9.0, 1.0], 100) == 9.0

    def test_fleet_metrics_compute(self):
        records = [
            JobRecord(
                name="a", model="vgg16", kind=JobKind.FOREGROUND,
                arrival_time=0.0, start_time=1.0, finish_time=5.0,
                iterations=100, global_batch=32, width=4,
                busy_gpu_seconds=10.0, allocated_gpu_seconds=16.0,
            ),
            JobRecord(
                name="b", model="vgg16", kind=JobKind.BACKGROUND,
                arrival_time=2.0, start_time=2.0, finish_time=10.0,
                iterations=50, global_batch=4, width=1,
                busy_gpu_seconds=8.0, allocated_gpu_seconds=8.0,
            ),
        ]
        metrics = FleetMetrics.compute(records, num_gpus=4, makespan=10.0)
        assert metrics.num_jobs == 2
        assert metrics.mean_jct == pytest.approx((5.0 + 8.0) / 2)
        assert metrics.max_jct == 8.0
        assert metrics.utilization == pytest.approx(18.0 / 40.0)
        assert metrics.fg_goodput == pytest.approx(3200 / 10.0)
        assert metrics.bg_goodput == pytest.approx(200 / 10.0)
        assert records[0].queue_delay == 1.0

    def test_fleet_metrics_zero_jobs(self):
        """An idle cluster is a valid measurement, not an error."""
        metrics = FleetMetrics.compute([], num_gpus=4, makespan=1.0)
        assert metrics.num_jobs == 0
        assert metrics.mean_jct == 0.0
        assert metrics.median_jct == 0.0
        assert metrics.p95_jct == 0.0
        assert metrics.max_jct == 0.0
        assert metrics.mean_queue_delay == 0.0
        assert metrics.utilization == 0.0
        assert metrics.fg_goodput == 0.0
        assert metrics.bg_goodput == 0.0
        assert metrics.preemptions == 0
        assert metrics.lost_gpu_seconds == 0.0

    def test_fleet_metrics_rejects_non_positive_gpu_count(self):
        for num_gpus in (0, -1):
            with pytest.raises(ValueError, match="num_gpus"):
                FleetMetrics.compute([], num_gpus=num_gpus, makespan=1.0)


def _record(**fields):
    row = dict(
        name="job", model="mlp-small", kind=JobKind.FOREGROUND,
        arrival_time=0.0, start_time=0.0, finish_time=1.0, iterations=10,
        global_batch=8, width=1, busy_gpu_seconds=1.0, allocated_gpu_seconds=1.0,
    )
    row.update(fields)
    return JobRecord(**row)


_TIMES = st.floats(min_value=0.0, max_value=1e6)
_COUNTS = st.integers(min_value=0, max_value=50)


@st.composite
def _records(draw):
    arrival = draw(_TIMES)
    start = arrival + draw(_TIMES)
    return _record(
        kind=draw(st.sampled_from(list(JobKind))),
        arrival_time=arrival, start_time=start, finish_time=start + draw(_TIMES),
        iterations=draw(st.integers(1, 10_000)), global_batch=draw(st.integers(1, 4096)),
        busy_gpu_seconds=draw(_TIMES), lost_gpu_seconds=draw(_TIMES),
        preemptions=draw(_COUNTS), replans=draw(_COUNTS), restarts=draw(_COUNTS),
    )


class TestFleetMetricsReduction:
    """``FleetMetrics.compute`` is pinned bit for bit: committed bench
    baselines hold its floats, and CI checks them on several Pythons."""

    @given(
        records=st.lists(_records(), min_size=1, max_size=40),
        num_gpus=st.integers(min_value=1, max_value=4096),
        makespan=st.floats(min_value=0.0, max_value=1e7),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_field_by_field_reference(self, records, num_gpus, makespan):
        # Each float field is one list reduced by built-in ``sum`` in
        # record order.
        jcts = [r.jct for r in records]
        span = max(makespan, 1e-12)
        busy = sum([r.busy_gpu_seconds for r in records])
        assert FleetMetrics.compute(records, num_gpus, makespan) == FleetMetrics(
            num_gpus=num_gpus, num_jobs=len(records), makespan=makespan,
            mean_jct=sum(jcts) / len(jcts),
            median_jct=percentile(jcts, 50.0), p95_jct=percentile(jcts, 95.0),
            max_jct=max(jcts),
            mean_queue_delay=sum([r.queue_delay for r in records]) / len(jcts),
            utilization=min(1.0, busy / (num_gpus * span)),
            fg_goodput=sum(r.samples for r in records if r.is_foreground) / span,
            bg_goodput=sum(r.samples for r in records if not r.is_foreground) / span,
            preemptions=sum(r.preemptions for r in records),
            replans=sum(r.replans for r in records),
            restarts=sum(r.restarts for r in records),
            lost_gpu_seconds=sum([r.lost_gpu_seconds for r in records]),
        )

    def test_float_fields_reduce_with_builtin_sum(self):
        # Ten 0.1s: a running ``+=`` gives 0.9999999999999999 everywhere,
        # while ``sum`` is compensated (1.0) on Python >= 3.12.
        records = [
            _record(start_time=0.1, finish_time=0.1, busy_gpu_seconds=0.1,
                    lost_gpu_seconds=0.1)
            for _ in range(10)
        ]
        metrics = FleetMetrics.compute(records, num_gpus=1, makespan=1.0)
        tenth_sum = sum([0.1] * 10)
        assert metrics.lost_gpu_seconds == metrics.utilization == tenth_sum
        assert metrics.mean_jct == metrics.mean_queue_delay == tenth_sum / 10

    def test_integer_counters_sum_exactly(self):
        records = [_record(preemptions=i, replans=2 * i, restarts=i % 3) for i in range(7)]
        metrics = FleetMetrics.compute(records, num_gpus=2, makespan=5.0)
        counts = (metrics.preemptions, metrics.replans, metrics.restarts)
        assert counts == (21, 42, 6) and all(type(c) is int for c in counts)

    @pytest.mark.parametrize("kind", list(JobKind))
    def test_goodput_goes_to_the_records_class(self, kind):
        records = [_record(kind=kind, iterations=5, global_batch=4)] * 3
        metrics = FleetMetrics.compute(records, num_gpus=1, makespan=2.0)
        goodput = {JobKind.FOREGROUND: metrics.fg_goodput, JobKind.BACKGROUND: metrics.bg_goodput}
        assert goodput.pop(kind) == metrics.total_goodput == 30.0
        assert list(goodput.values()) == [0.0]

    def test_utilization_is_capped_at_one(self):
        records = [_record(busy_gpu_seconds=100.0)] * 4
        assert FleetMetrics.compute(records, num_gpus=2, makespan=10.0).utilization == 1.0

    def test_single_record_answers_every_jct_statistic(self):
        record = _record(arrival_time=2.0, start_time=3.0, finish_time=9.5)
        metrics = FleetMetrics.compute([record], num_gpus=4, makespan=7.5)
        assert metrics.mean_jct == metrics.median_jct == metrics.p95_jct == metrics.max_jct == 7.5
        assert (metrics.num_jobs, metrics.mean_queue_delay) == (1, 1.0)

    def test_record_order_moves_no_order_statistic(self):
        records = [
            _record(arrival_time=float(i), finish_time=i + jct)
            for i, jct in enumerate((5.0, 1.0, 9.0, 3.0, 7.0))
        ]
        forward, backward = (
            FleetMetrics.compute(ordered, num_gpus=1, makespan=20.0)
            for ordered in (records, records[::-1])
        )
        for metrics in (forward, backward):
            assert (metrics.median_jct, metrics.max_jct) == (5.0, 9.0)
            assert metrics.p95_jct == percentile([1.0, 3.0, 5.0, 7.0, 9.0], 95.0)


# ---------------------------------------------------------------------------
# Scheduler end-to-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace(8, seed=3, models=("vgg16",))


@pytest.fixture(scope="module")
def scheduler():
    return ClusterScheduler(num_gpus=8)


class TestClusterScheduler:
    def test_all_jobs_complete_under_every_policy(self, scheduler, small_trace):
        for policy in POLICIES:
            result = scheduler.run(small_trace, policy)
            assert result.metrics.num_jobs == len(small_trace)
            for record in result.records:
                assert record.finish_time >= record.start_time >= record.arrival_time
                assert record.busy_gpu_seconds > 0

    def test_deterministic_under_fixed_seed(self, scheduler, small_trace):
        first = scheduler.run(small_trace, "collocation")
        second = scheduler.run(small_trace, "collocation")
        assert first.metrics == second.metrics
        assert first.records == second.records

    def test_event_ordering_simultaneous_arrivals(self, scheduler):
        # Two jobs arriving at the same instant are admitted in trace order:
        # the first takes the whole cluster, the second waits.
        trace = [
            TraceJob("first", "vgg16", 32, arrival_time=0.0, iterations=50),
            TraceJob("second", "vgg16", 32, arrival_time=0.0, iterations=50),
        ]
        result = scheduler.run(trace, "fifo")
        first, second = result.record("first"), result.record("second")
        assert first.start_time == 0.0
        assert second.start_time == pytest.approx(first.finish_time)

    def test_utilization_and_makespan_are_consistent(self, scheduler, small_trace):
        result = scheduler.run(small_trace, "srgs")
        metrics = result.metrics
        assert 0.0 < metrics.utilization <= 1.0
        span = max(r.finish_time for r in result.records) - min(
            r.arrival_time for r in result.records
        )
        assert metrics.makespan == pytest.approx(span)
        assert metrics.mean_queue_delay >= 0.0

    def test_makespan_ignores_idle_prefix_before_first_arrival(self, scheduler):
        # A trace submitted late must not dilute utilization with the idle
        # time before its first arrival.
        late = [TraceJob("solo", "vgg16", 32, 1000.0, 100)]
        early = [TraceJob("solo", "vgg16", 32, 0.0, 100)]
        late_metrics = scheduler.run(late, "srgs").metrics
        early_metrics = scheduler.run(early, "srgs").metrics
        assert late_metrics.makespan == pytest.approx(early_metrics.makespan)
        assert late_metrics.utilization == pytest.approx(early_metrics.utilization)

    def test_preemption_is_minimal(self):
        # A foreground job holds half of the 8-GPU cluster and four
        # background jobs hold the rest.  The arriving fg-b is capped at
        # width 2, so exactly two evictions lift floor_pow2(free) from 0 to
        # 2; evicting the remaining two victims would not change fg-b's
        # placement and must not happen.
        trace = [
            TraceJob("fg-a", "vgg16", 32, 0.0, 2000, max_gpus=4),
            TraceJob("bg-a", "vgg16", 4, 0.1, 4000, JobKind.BACKGROUND),
            TraceJob("bg-b", "vgg16", 4, 0.2, 4000, JobKind.BACKGROUND),
            TraceJob("bg-c", "vgg16", 4, 0.3, 4000, JobKind.BACKGROUND),
            TraceJob("bg-d", "vgg16", 4, 0.4, 4000, JobKind.BACKGROUND),
            TraceJob("fg-b", "vgg16", 32, 1.0, 100, max_gpus=2),
        ]
        result = ClusterScheduler(num_gpus=8).run(trace, "collocation")
        # fg-b wants width 2; two evictions make floor_pow2(free) jump from
        # 0 to 2, and evicting the other two would change nothing.
        assert result.metrics.preemptions == 2

    def test_background_preemption_keeps_progress(self):
        # Background jobs hold both GPUs; a foreground arrival evicts one
        # (collocation policy), and the victims still finish all iterations.
        trace = [
            TraceJob("bg-a", "vgg16", 4, 0.0, 2000, JobKind.BACKGROUND),
            TraceJob("bg-b", "vgg16", 4, 0.0, 2000, JobKind.BACKGROUND),
            TraceJob("fg-a", "vgg16", 32, 1.0, 200, JobKind.FOREGROUND),
        ]
        result = ClusterScheduler(num_gpus=2).run(trace, "collocation")
        assert result.metrics.preemptions >= 1
        assert result.record("fg-a").start_time == pytest.approx(1.0)
        preempted = [r for r in result.records if r.preemptions > 0]
        assert preempted and all(not r.is_foreground for r in preempted)

    def test_replanning_expands_onto_freed_gpus(self):
        # On a 12-GPU cluster the first job takes 8 GPUs and the second
        # starts narrow on the remaining 4; when the short job finishes, the
        # long job is re-planned onto the freed capacity.
        trace = [
            TraceJob("fg-short", "vgg16", 32, 0.0, 100, JobKind.FOREGROUND),
            TraceJob("fg-long", "vgg16", 32, 0.5, 3000, JobKind.FOREGROUND),
        ]
        result = ClusterScheduler(num_gpus=12).run(trace, "collocation")
        long_record = result.record("fg-long")
        assert long_record.replans >= 1
        assert long_record.width == 8

    def test_collocation_soaks_idle_gpu_time(self):
        # With the cluster fully owned by a foreground job, a background
        # arrival can only make progress by collocating.
        trace = [
            TraceJob("fg", "vgg16", 32, 0.0, 2000, JobKind.FOREGROUND),
            TraceJob("bg", "vgg16", 4, 1.0, 50, JobKind.BACKGROUND),
        ]
        sched = ClusterScheduler(num_gpus=4)
        col = sched.run(trace, "collocation")
        srgs = sched.run(trace, "srgs")
        # The backfilling policy must wait for the foreground job to finish;
        # the collocation-aware policy finishes the background job earlier.
        assert col.record("bg").finish_time < srgs.record("bg").finish_time
        assert col.metrics.utilization > srgs.metrics.utilization

    def test_invalid_inputs_rejected(self, scheduler):
        with pytest.raises(ValueError):
            ClusterScheduler(num_gpus=0)
        with pytest.raises(ValueError):
            scheduler.run([], "fifo")
        duplicate = [
            TraceJob("same", "vgg16", 32, 0.0, 10),
            TraceJob("same", "vgg16", 32, 1.0, 10),
        ]
        with pytest.raises(ValueError):
            scheduler.run(duplicate, "fifo")
        trace = [TraceJob("a", "vgg16", 32, 0.0, 10)]
        with pytest.raises(KeyError):
            scheduler.run(trace, "no-such-policy")

    def test_result_record_lookup(self, scheduler, small_trace):
        result = scheduler.run(small_trace, "fifo")
        name = small_trace[0].name
        assert result.record(name).name == name
        with pytest.raises(KeyError):
            result.record("missing")
