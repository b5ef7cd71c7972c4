"""Sharded epoch-parallel replay: partitioning, parity, anchors, fold.

The contract this file pins down is the one the CI ``shard`` job gates on:
:func:`~repro.sched.shard.replay_sharded` produces a
``result_fingerprint`` *byte-identical* to the single-process run at every
epoch count and worker count — homogeneous or heterogeneous fleet, with or
without injected failures, anchors cold or warm, boundaries balanced,
duplicated (empty epochs) or dropped mid-failure-window.  Alongside it:
the epoch partitioner's edge cases, the anchor store's hit/miss/write
accounting, the cross-process counter fold-back, and the columnar
:class:`~repro.sched.metrics.MetricsFold` matching ``FleetMetrics.compute``
bit for bit on both its ingestion paths.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import ArtifactCache
from repro.cluster.job import JobKind
from repro.obs.metrics import global_registry
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    JobRecord,
    TraceJob,
    inject_failures,
    partition_epochs,
    replay_sharded,
    synthetic_trace,
)
from repro.sched.metrics import FleetMetrics, MetricsFold
from repro.sched.snapshot import dump_record
from repro.serve.replay import result_fingerprint

# ---------------------------------------------------------------------------
# Workload fixtures (the snapshot suite's shapes: one homogeneous config,
# one heterogeneous fleet with an injected failure schedule).
# ---------------------------------------------------------------------------


def _mixed_fleet():
    return ClusterFleet(
        (
            GpuPoolSpec("a100", A100_40GB, 16, 4),
            GpuPoolSpec("v100", V100_32GB, 16, 4),
        )
    )


_CONFIGS = {
    "homogeneous": {
        "fleet": lambda: 32,
        "policy": "collocation",
        "num_jobs": 18,
        "seed": 11,
        "failures": 0,
    },
    "hetero-failures": {
        "fleet": _mixed_fleet,
        "policy": "collocation",
        "num_jobs": 14,
        "seed": 7,
        "failures": 3,
    },
}


def _workload(name):
    config = _CONFIGS[name]
    scheduler = ClusterScheduler(config["fleet"]())
    trace = sorted(
        synthetic_trace(config["num_jobs"], seed=config["seed"]),
        key=lambda job: job.arrival_time,
    )
    failures = (
        inject_failures(scheduler.fleet, config["failures"], seed=config["seed"])
        if config["failures"]
        else []
    )
    return scheduler, trace, config["policy"], failures


@lru_cache(maxsize=None)
def _serial(name):
    """The uninterrupted single-process run's (fingerprint, result)."""
    scheduler, trace, policy, failures = _workload(name)
    result = scheduler.run(trace, policy, failures=failures)
    return result_fingerprint(result), result


def _sharded(name, **kwargs):
    scheduler, trace, policy, failures = _workload(name)
    return replay_sharded(scheduler, trace, policy, failures=failures, **kwargs)


# ---------------------------------------------------------------------------
# Epoch partitioner
# ---------------------------------------------------------------------------


class TestPartitionEpochs:
    def _trace(self, arrivals):
        return [
            TraceJob(
                name=f"job-{index}",
                model="mlp-small",
                global_batch=32,
                arrival_time=time,
                iterations=10,
            )
            for index, time in enumerate(arrivals)
        ]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least 1"):
            partition_epochs(self._trace([1.0]), 0)
        with pytest.raises(ValueError, match="empty trace"):
            partition_epochs([], 4)

    def test_single_epoch_has_no_boundaries(self):
        assert partition_epochs(self._trace([1.0, 2.0, 3.0]), 1) == []

    def test_boundaries_are_nondecreasing_arrival_quantiles(self):
        trace = self._trace([5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0])
        cuts = partition_epochs(trace, 4)
        assert len(cuts) == 3
        assert cuts == sorted(cuts)
        arrivals = {job.arrival_time for job in trace}
        assert all(cut in arrivals for cut in cuts)

    def test_more_epochs_than_jobs_duplicates_boundaries(self):
        # A 2-job trace cut into 5 epochs must repeat boundaries — meaning
        # empty epochs, which replay as zero-step no-ops (parity test below).
        cuts = partition_epochs(self._trace([1.0, 9.0]), 5)
        assert len(cuts) == 4
        assert cuts == sorted(cuts)
        assert len(set(cuts)) < len(cuts)

    def test_bursty_trace_yields_empty_epochs(self):
        # Every job arrives at once: all boundaries collapse onto one time.
        cuts = partition_epochs(self._trace([2.0] * 6), 3)
        assert cuts == [2.0, 2.0]


# ---------------------------------------------------------------------------
# Bit-identity against the single-process run
# ---------------------------------------------------------------------------


class TestShardParity:
    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @pytest.mark.parametrize("epochs", [1, 2, 3, 5])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial_at_every_epoch_and_worker_count(
        self, name, epochs, workers
    ):
        baseline, serial = _serial(name)
        report = _sharded(name, epochs=epochs, workers=workers)
        assert report.result_fingerprint() == baseline
        # Not just the fingerprint: the stitched records and metrics are the
        # serial objects, value for value.
        assert report.result.records == serial.records
        assert report.result.metrics == serial.metrics
        assert report.result.events_processed == serial.events_processed

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @given(epochs=st.integers(min_value=1, max_value=9))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_epoch_count_property(self, name, epochs):
        baseline, _ = _serial(name)
        report = _sharded(name, epochs=epochs)
        assert report.result_fingerprint() == baseline
        assert len(report.epochs) == epochs
        assert sum(epoch.steps for epoch in report.epochs) == (
            report.result.events_processed
        )

    def test_single_epoch_degenerates_to_plain_replay(self):
        baseline, serial = _serial("homogeneous")
        report = _sharded("homogeneous", epochs=1)
        assert report.boundaries == ()
        assert len(report.epochs) == 1
        assert report.result == serial
        assert report.result_fingerprint() == baseline

    def test_explicit_duplicate_boundaries_replay_empty_epochs(self):
        baseline, _ = _serial("homogeneous")
        _, trace, _, _ = _workload("homogeneous")
        mid = trace[len(trace) // 2].arrival_time
        report = _sharded("homogeneous", boundaries=[mid, mid, mid])
        assert report.result_fingerprint() == baseline
        empty = [epoch for epoch in report.epochs if epoch.steps == 0]
        assert len(empty) == 2  # the two duplicated spans dispatch nothing

    def test_boundary_straddling_a_failure_downtime_window(self):
        # Cut inside a NODE_FAILURE/NODE_RECOVERY pair: the failure fires in
        # one epoch, the recovery in a later one, and the down-host state
        # must cross the anchor intact.
        name = "hetero-failures"
        baseline, _ = _serial(name)
        _, _, _, failures = _workload(name)
        failure = failures[0]
        cut = (failure.time + failure.recovery_time) / 2.0
        assert failure.time < cut < failure.recovery_time
        report = _sharded(name, boundaries=[cut])
        assert report.result_fingerprint() == baseline

    def test_rejects_decreasing_boundaries_and_bad_traces(self):
        scheduler, trace, policy, _ = _workload("homogeneous")
        with pytest.raises(ValueError, match="non-decreasing"):
            replay_sharded(scheduler, trace, policy, boundaries=[5.0, 1.0])
        with pytest.raises(ValueError, match="empty trace"):
            replay_sharded(scheduler, [], policy)
        with pytest.raises(ValueError, match="duplicate job names"):
            replay_sharded(scheduler, [trace[0], trace[0]], policy)


# ---------------------------------------------------------------------------
# Anchor store: content addressing, warm reuse, report accounting
# ---------------------------------------------------------------------------


class TestAnchorStore:
    def test_warm_store_skips_the_anchor_pass(self, tmp_path):
        baseline, _ = _serial("homogeneous")
        cache = ArtifactCache(tmp_path)
        cold = _sharded("homogeneous", epochs=3, anchor_cache=cache)
        assert cold.anchor_misses == 3
        assert cold.anchor_writes == 3
        assert cold.anchor_hits == 0
        assert cold.anchor_pass_s > 0.0
        warm = _sharded("homogeneous", epochs=3, anchor_cache=cache)
        assert warm.anchor_hits == 3
        assert warm.anchor_misses == 0
        assert warm.anchor_writes == 0
        assert warm.anchor_pass_s == 0.0
        assert cold.workload == warm.workload
        assert cold.result_fingerprint() == baseline
        assert warm.result_fingerprint() == baseline

    def test_warm_anchors_feed_pooled_workers(self, tmp_path):
        baseline, _ = _serial("hetero-failures")
        cache = ArtifactCache(tmp_path)
        _sharded("hetero-failures", epochs=4, anchor_cache=cache)
        warm = _sharded(
            "hetero-failures", epochs=4, workers=2, anchor_cache=cache
        )
        assert warm.anchor_hits == 4
        assert warm.workers == 2
        assert warm.result_fingerprint() == baseline

    def test_workload_identity_separates_anchor_sets(self, tmp_path):
        # A different partition of the same run must never reuse anchors.
        cache = ArtifactCache(tmp_path)
        _sharded("homogeneous", epochs=2, anchor_cache=cache)
        other = _sharded("homogeneous", epochs=3, anchor_cache=cache)
        assert other.anchor_hits == 0
        assert other.anchor_misses == 3

    def test_report_payload_is_json_safe(self, tmp_path):
        report = _sharded("homogeneous", epochs=2, anchor_cache=ArtifactCache(tmp_path))
        payload = json.loads(json.dumps(report.to_payload()))
        assert payload["workers"] == 1
        assert len(payload["epochs"]) == 2
        assert payload["result_fingerprint"] == report.result_fingerprint()
        assert 0.0 <= payload["worker_utilization"] <= 1.0


# ---------------------------------------------------------------------------
# Cross-process counter fold-back
# ---------------------------------------------------------------------------


class TestCounterFoldBack:
    def _arrival_delta(self, **kwargs):
        registry = global_registry()
        before = registry.snapshot()
        report = _sharded("homogeneous", **kwargs)
        return report, registry.delta_since(before)

    def test_pooled_worker_counters_merge_into_the_driver_registry(self):
        num_jobs = _CONFIGS["homogeneous"]["num_jobs"]
        inline_report, inline = self._arrival_delta(epochs=4, workers=1)
        pooled_report, pooled = self._arrival_delta(epochs=4, workers=2)
        assert pooled_report.result == inline_report.result
        # Arrivals dispatched in worker processes must land in this
        # registry exactly once — the same total the inline run accrues
        # directly, which by construction cannot double-count.  (The total
        # exceeds num_jobs: the cold anchor pass dispatches arrivals too.)
        assert inline["sched.events.arrival"] >= num_jobs
        assert pooled["sched.events.arrival"] == inline["sched.events.arrival"]
        assert pooled["sched.shard.epochs_replayed"] == 4
        assert pooled["sched.shard.runs"] == 1


# ---------------------------------------------------------------------------
# Columnar metrics fold == FleetMetrics.compute, bit for bit
# ---------------------------------------------------------------------------


def _record_strategy():
    time_like = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    counts = st.integers(min_value=0, max_value=50)

    @st.composite
    def record(draw):
        index = draw(st.integers(min_value=0, max_value=10_000))
        arrival = draw(time_like)
        queue_delay = draw(time_like)
        run = draw(time_like)
        return JobRecord(
            name=f"job-{index}",
            model="mlp-small",
            kind=draw(st.sampled_from(list(JobKind))),
            arrival_time=arrival,
            start_time=arrival + queue_delay,
            finish_time=arrival + queue_delay + run,
            iterations=draw(st.integers(min_value=1, max_value=10_000)),
            global_batch=draw(st.integers(min_value=1, max_value=4096)),
            width=draw(st.integers(min_value=1, max_value=64)),
            busy_gpu_seconds=draw(time_like),
            allocated_gpu_seconds=draw(time_like),
            preemptions=draw(counts),
            replans=draw(counts),
            restarts=draw(counts),
            lost_gpu_seconds=draw(time_like),
        )

    return record()


class TestMetricsFold:
    @given(
        records=st.lists(_record_strategy(), max_size=40),
        num_gpus=st.integers(min_value=1, max_value=4096),
        makespan=st.floats(
            min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_compute_on_both_ingestion_paths(
        self, records, num_gpus, makespan
    ):
        expected = FleetMetrics.compute(records, num_gpus, makespan)

        by_record = MetricsFold()
        by_record.extend(records)
        assert by_record.finalize(num_gpus, makespan) == expected

        # The serialized-row path the shard workers ship records through.
        by_row = MetricsFold()
        for record in records:
            by_row.add_row(dump_record(record))
        assert by_row.finalize(num_gpus, makespan) == expected

    def test_batched_fold_equals_one_shot_fold(self):
        _, serial = _serial("homogeneous")
        records = list(serial.records)
        one_shot = MetricsFold()
        one_shot.extend(records)
        batched = MetricsFold()
        for start in range(0, len(records), 3):
            batched.extend(records[start : start + 3])
        makespan = serial.metrics.makespan
        assert batched.finalize(serial.num_gpus, makespan) == one_shot.finalize(
            serial.num_gpus, makespan
        )
        assert one_shot.finalize(serial.num_gpus, makespan) == serial.metrics

    def test_finalize_rejects_bad_gpu_count_and_handles_empty(self):
        fold = MetricsFold()
        with pytest.raises(ValueError, match="num_gpus"):
            fold.finalize(0, 1.0)
        empty = fold.finalize(8, 5.0)
        assert empty.num_jobs == 0
        assert empty.makespan == 5.0
        assert empty.utilization == 0.0
