"""Tests for repro.serve: the online scheduler service.

Covers the replay-to-live bridge's parity proof (a bridged trace reproduces
the offline ``ClusterScheduler.run`` metrics fingerprint bit for bit, with
and without failures), the async submission API (duplicate-name rejection,
resubmission identity, handles, watch streams), multi-tenant admission
control (quota exhaustion, queue-with-backpressure ordering, cancel
accounting against the offline ``lost_gpu_seconds`` semantics), and the
property-style ledger invariants the issue pins: no quota ledger ever goes
negative under arbitrary submit/cancel interleavings, and a drained service
leaves no hold outstanding and no submission unresolved.
"""

import asyncio
import gc
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import (
    EV_CANCEL,
    EV_COMPLETION,
    EV_PLACEMENT,
    EV_SUBMIT,
    TraceRecorder,
)
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.sched import (
    CheckpointModel,
    ClusterFleet,
    ClusterScheduler,
    GpuPoolSpec,
    TraceJob,
    inject_failures,
    mixed_trace,
    synthetic_trace,
)
from repro.serve import (
    AdmissionDecision,
    QuotaAdmission,
    SchedulerService,
    TenantQuota,
    default_tenant,
    replay_trace_sync,
    result_fingerprint,
)
from repro.serve.__main__ import main as serve_main

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def _job(name, arrival=0.0, iterations=50, batch=32, **kwargs):
    return TraceJob(
        name, "vgg16", batch, arrival_time=arrival, iterations=iterations,
        **kwargs,
    )


def _service(num_gpus=4, policy="fifo", **kwargs):
    return SchedulerService(ClusterScheduler(num_gpus), policy=policy, **kwargs)


def _estimate(service, job):
    return service._estimate(job)


# ---------------------------------------------------------------------------
# Replay-to-live parity
# ---------------------------------------------------------------------------

class TestReplayParity:
    def test_bridged_replay_matches_offline(self):
        """The issue's core proof: one engine, two drivers, same fingerprint."""
        trace = synthetic_trace(60, seed=7)
        offline = ClusterScheduler(16).run(trace, "collocation")
        service = SchedulerService(ClusterScheduler(16), policy="collocation")
        report = replay_trace_sync(service, trace)
        assert report.fingerprint() == result_fingerprint(offline)
        assert report.result.events_processed == offline.events_processed
        assert report.completed == len(trace)
        assert report.rejected == 0 and report.cancelled == 0

    def test_bridged_replay_matches_offline_hetero_with_failures(self):
        def fleet():
            return ClusterFleet(
                (
                    GpuPoolSpec("a100", A100_40GB, 8, 4),
                    GpuPoolSpec("v100", V100_32GB, 8, 4),
                )
            )

        trace = mixed_trace(40, seed=5)
        failures = inject_failures(
            fleet(), 2, seed=3, window=(5.0, 60.0), mean_downtime=10.0
        )
        offline = ClusterScheduler(
            fleet(), checkpoint=CheckpointModel(30.0, 5.0)
        ).run(trace, "collocation", failures=failures)
        service = SchedulerService(
            ClusterScheduler(fleet(), checkpoint=CheckpointModel(30.0, 5.0)),
            policy="collocation",
            failures=failures,
        )
        report = replay_trace_sync(service, trace)
        assert report.fingerprint() == result_fingerprint(offline)
        assert report.result.failures_injected == 2

    def test_replay_rejects_unsorted_trace(self):
        trace = [_job("fg-b", arrival=5.0), _job("fg-a", arrival=1.0)]
        with pytest.raises(ValueError, match="sorted by arrival"):
            replay_trace_sync(_service(), trace)

    def test_replay_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            replay_trace_sync(_service(), [])

    def test_prewarm_on_admit_preserves_the_fingerprint(self):
        """Cache prewarming is a latency lever, never a result lever."""
        trace = synthetic_trace(24, seed=4)
        plain = replay_trace_sync(
            SchedulerService(ClusterScheduler(8), policy="collocation"), trace
        )
        scheduler = ClusterScheduler(8)
        warm = replay_trace_sync(
            SchedulerService(
                scheduler, policy="collocation", prewarm_on_admit=True
            ),
            trace,
        )
        assert warm.fingerprint() == plain.fingerprint()
        assert len(scheduler._plan_cache) > 0

    def test_smoke_cli_asserts_parity_and_writes_artifacts(self, tmp_path):
        rc = serve_main(
            [
                "smoke", "--trace", "synthetic", "--num-jobs", "20",
                "--num-gpus", "8", "--seed", "2", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "serve_summary.json").read_text())
        assert summary["match"] is True
        assert summary["completed"] == 20
        chrome = json.loads((tmp_path / "serve_trace.json").read_text())
        assert chrome["traceEvents"]


# ---------------------------------------------------------------------------
# Submission API
# ---------------------------------------------------------------------------

class TestSubmitAPI:
    def test_duplicate_name_rejected_at_submit(self):
        async def run():
            service = _service()
            await service.submit(_job("fg-a"))
            with pytest.raises(ValueError, match="duplicate job name"):
                await service.submit(_job("fg-a"))
            # Even a resolved (rejected/cancelled) job keeps its name.
            await service.cancel("fg-a")
            with pytest.raises(ValueError, match="resubmitted"):
                await service.submit(_job("fg-a"))

        asyncio.run(run())

    def test_cancel_then_resubmit_round_trips(self):
        async def run():
            service = _service()
            first = await service.submit(_job("fg-a", iterations=800))
            await service.advance_to(0.5)
            assert await service.cancel("fg-a")
            retry = await service.submit(first.job.resubmitted(service.clock))
            await service.drain()
            return first, retry

        first, retry = asyncio.run(run())
        assert first.status() == "cancelled"
        assert retry.status() == "done"
        assert retry.name == "fg-a#1"

    def test_resubmitted_identity(self):
        job = _job("fg-a", arrival=1.0)
        retry = job.resubmitted(7.0)
        assert retry.name == "fg-a#1" and retry.arrival_time == 7.0
        assert retry.model == job.model and retry.iterations == job.iterations
        # Renaming is idempotent over attempts: no `#1#2` pileup.
        assert retry.resubmitted(9.0, attempt=2).name == "fg-a#2"
        with pytest.raises(ValueError):
            job.resubmitted(7.0, attempt=0)

    def test_with_arrival_optionally_renames(self):
        job = _job("fg-a", arrival=1.0)
        assert job.with_arrival(9.0).name == "fg-a"
        moved = job.with_arrival(9.0, name="fg-z")
        assert moved.name == "fg-z" and moved.arrival_time == 9.0

    def test_submissions_cannot_time_travel(self):
        async def run():
            service = _service()
            await service.submit(_job("fg-a", iterations=30))
            await service.drain()
            # A stale trace arrival is clamped to the clock...
            late = await service.submit(_job("fg-b", arrival=0.0))
            assert late.job.arrival_time == 0.0
            assert service.query("fg-b").arrival_time == service.clock
            # ...but an explicit behind-clock arrival is an error.
            with pytest.raises(ValueError, match="behind the virtual clock"):
                await service.submit(_job("fg-c"), arrival_time=0.0)

        asyncio.run(run())

    def test_query_unknown_job_raises(self):
        service = _service()
        with pytest.raises(KeyError):
            service.query("nope")

    def test_closed_service_refuses_submissions(self):
        async def run():
            service = _service()
            await service.submit(_job("fg-a", iterations=30))
            await service.drain()
            await service.close()
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(_job("fg-b"))
            with pytest.raises(RuntimeError, match="closed"):
                service.watch()

        asyncio.run(run())

    def test_closed_dropped_service_is_freed_by_reference_counting(
        self, tmp_path
    ):
        """No reference cycle holds a service, so dropping it frees it.

        The engine's recorder holds the service weakly and handles read
        job state through the engine, so with the cycle collector off a
        closed, unreferenced service is gone, and the handles its caller
        kept still answer.
        """

        async def run():
            service = _service(
                admission=QuotaAdmission(
                    default=TenantQuota(gpu_seconds=40.0, max_pending=1)
                ),
                journal_dir=tmp_path / "wal",
                snapshot_every=3,
            )
            stream = service.watch()
            handles = [
                await service.submit(_job(f"fg-{index}", arrival=float(index)))
                for index in range(6)
            ]
            await service.cancel("fg-5")
            await service.drain()
            await service.close()
            events = [event async for event in stream]
            return weakref.ref(service), handles, events

        gc.collect()
        gc.disable()
        try:
            service_ref, handles, events = asyncio.run(run())
            assert service_ref() is None
        finally:
            gc.enable()
        assert events
        statuses = {handle.status() for handle in handles}
        assert {"done", "rejected", "cancelled"} <= statuses
        for handle in handles:
            info = handle.info()
            assert info.status == handle.status()
            assert info.name == handle.name
        done = [handle.info() for handle in handles if handle.status() == "done"]
        assert all(info.remaining_iterations == 0 for info in done)
        assert all(info.busy_gpu_seconds > 0 for info in done)

    def test_handle_wait_resolves_with_final_info(self):
        async def run():
            service = _service()
            handle = await service.submit(_job("fg-a", iterations=40))
            waiter = asyncio.create_task(handle.wait())
            await service.drain()
            info = await waiter
            return handle, info

        handle, info = asyncio.run(run())
        assert handle.done()
        assert info.status == "done"
        assert info.remaining_iterations == 0
        assert info.busy_gpu_seconds > 0

    def test_default_tenant_is_name_prefix(self):
        assert default_tenant(_job("ali-042")) == "ali"
        assert default_tenant(_job("solo")) == "solo"

    def test_cluster_state_reports_gauges_and_tenants(self):
        async def run():
            service = _service(
                admission=QuotaAdmission(
                    default=TenantQuota(max_pending=1)
                )
            )
            # Unique tenant: its obs counters are process-global, so a
            # reused name would inherit counts from earlier tests.
            await service.submit(_job("cst-a", iterations=40))
            await service.submit(_job("cst-b", iterations=40))  # queued
            state = service.cluster_state()
            await service.drain()
            return state

        state = asyncio.run(run())
        assert state["time"] == 0.0
        assert state["gauges"]["queued_jobs"] == 1
        ledger = state["tenants"]["cst"]
        assert ledger["queued"] == 1
        assert ledger["submitted"] == 2.0 and ledger["admitted"] == 1.0


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(gpu_seconds=0.0)
        with pytest.raises(ValueError):
            TenantQuota(max_pending=0)
        with pytest.raises(ValueError):
            QuotaAdmission(on_saturated=AdmissionDecision.ACCEPT)

    def test_oversized_job_rejected_outright(self):
        async def run():
            service = _service(
                admission=QuotaAdmission(default=TenantQuota(gpu_seconds=0.5))
            )
            handle = await service.submit(_job("fg-a", iterations=500))
            return service, handle

        service, handle = asyncio.run(run())
        assert handle.status() == "rejected"
        assert handle.done()
        account = service.account("fg")
        assert account.committed == 0.0 and account.used == 0.0

    def test_quota_exhaustion_queues_then_starves(self):
        async def run():
            service = _service()
            # Quota fits exactly one copy of the job's estimate.
            estimate = _estimate(service, _job("fg-a", iterations=100))
            service.admission = QuotaAdmission(
                default=TenantQuota(gpu_seconds=estimate * 1.5)
            )
            first = await service.submit(_job("fg-a", iterations=100))
            second = await service.submit(_job("fg-b", iterations=100))
            assert first.status() == "pending"
            assert second.status() == "queued"
            await service.drain()
            return first, second, service

        first, second, service = asyncio.run(run())
        assert first.status() == "done"
        # Settled charges never leave headroom for the second job, so the
        # drain resolves it as rejected rather than leaving it parked.
        assert second.status() == "rejected"
        assert second.done()
        assert service.account("fg").committed == 0.0

    def test_max_pending_saturation_can_hard_reject(self):
        async def run():
            service = _service(
                admission=QuotaAdmission(
                    default=TenantQuota(max_pending=1),
                    on_saturated=AdmissionDecision.REJECT,
                )
            )
            first = await service.submit(_job("fg-a", iterations=40))
            shed = await service.submit(_job("fg-b", iterations=40))
            await service.drain()
            return first, shed

        first, shed = asyncio.run(run())
        assert first.status() == "done"
        assert shed.status() == "rejected"

    def test_backpressure_readmits_fifo_per_tenant(self):
        """Freed quota admits queued submissions strictly in submit order."""

        async def run():
            service = _service()
            estimate = _estimate(service, _job("fg-x", iterations=100))
            service.admission = QuotaAdmission(
                default=TenantQuota(gpu_seconds=estimate * 3.5)
            )
            # Three holds fit, the 4th and 5th queue behind them.
            handles = [
                await service.submit(_job(f"fg-{i}", iterations=100))
                for i in range(5)
            ]
            assert [h.status() for h in handles] == [
                "pending", "pending", "pending", "queued", "queued",
            ]
            # Cancelling a never-ran job refunds its full hold; the pump
            # must admit the queue *head* (fg-3), not the later fg-4.
            await service.cancel("fg-1")
            assert handles[3].status() == "pending"
            assert handles[4].status() == "queued"
            await service.cancel("fg-2")
            assert handles[4].status() == "pending"
            await service.drain()
            return handles

        handles = asyncio.run(run())
        statuses = [h.status() for h in handles]
        assert statuses == ["done", "cancelled", "cancelled", "done", "done"]

    def test_admission_outcomes_are_deterministic(self):
        """Same trace + same quotas -> same per-job dispositions, twice."""

        def one_run():
            service = SchedulerService(
                ClusterScheduler(16),
                policy="collocation",
                admission=QuotaAdmission(
                    default=TenantQuota(gpu_seconds=800.0, max_pending=4)
                ),
            )
            report = replay_trace_sync(service, mixed_trace(60, seed=13))
            return (
                [h.status() for h in report.handles],
                report.fingerprint(),
                report.queued_at_submit,
            )

        first, second = one_run(), one_run()
        assert first == second
        assert first[2] > 0  # the quotas actually bite


# ---------------------------------------------------------------------------
# Cancellation accounting
# ---------------------------------------------------------------------------

class TestCancel:
    def test_cancel_while_pending_refunds_the_full_hold(self):
        async def run():
            service = _service()
            blocker = await service.submit(_job("fg-a", iterations=800))
            await service.advance_to(0.5)  # blocker occupies all four GPUs
            victim = await service.submit(_job("fg-b", iterations=800))
            assert victim.status() == "pending"
            account = service.account("fg")
            held = account.committed
            assert await service.cancel("fg-b")
            # The pending job never ran: charge zero, refund everything.
            assert account.used == 0.0
            assert account.committed == pytest.approx(
                held - victim.estimate_gpu_seconds
            )
            await service.drain()
            return blocker, victim

        blocker, victim = asyncio.run(run())
        assert victim.status() == "cancelled"
        assert victim.info().busy_gpu_seconds == 0.0
        assert blocker.status() == "done"

    def test_cancel_while_running_charges_actual_consumption(self):
        async def run():
            service = _service()
            handle = await service.submit(_job("fg-a", iterations=800))
            await service.advance_to(2.0)
            assert handle.status() == "running"
            assert await service.cancel("fg-a")
            account = service.account("fg")
            info = handle.info()
            # Settled at busy + lost GPU-seconds, the offline accounting.
            assert account.used == pytest.approx(
                info.busy_gpu_seconds + info.lost_gpu_seconds
            )
            assert account.used > 0.0
            assert account.committed == 0.0
            # The freed GPUs are immediately placeable again.
            follow = await service.submit(_job("fg-b", iterations=40))
            await service.drain()
            return handle, follow

        handle, follow = asyncio.run(run())
        assert handle.status() == "cancelled"
        assert follow.status() == "done"

    def test_cancel_queued_job_leaves_no_trace_in_the_engine(self):
        async def run():
            service = _service(
                admission=QuotaAdmission(default=TenantQuota(max_pending=1))
            )
            admitted = await service.submit(_job("fg-a", iterations=40))
            queued = await service.submit(_job("fg-b", iterations=40))
            assert queued.status() == "queued"
            assert await service.cancel("fg-b")
            account = service.account("fg")
            # No hold was ever taken for the queued job: only the admitted
            # job's commit remains outstanding.
            assert account.queued == 0
            assert account.committed == pytest.approx(
                admitted.estimate_gpu_seconds
            )
            await service.drain()
            assert account.committed == 0.0
            return service, queued

        service, queued = asyncio.run(run())
        assert queued.status() == "cancelled"
        assert "fg-b" not in service._engine.states

    def test_cancel_is_idempotent_and_strict(self):
        async def run():
            service = _service()
            await service.submit(_job("fg-a", iterations=30))
            assert await service.cancel("fg-a")
            assert not await service.cancel("fg-a")  # already gone
            survivor = await service.submit(_job("fg-b", iterations=30))
            # Rejected submissions are resolved, not cancellable.
            service.admission = QuotaAdmission(
                default=TenantQuota(gpu_seconds=0.1)
            )
            shed = await service.submit(_job("xx-c", iterations=500))
            assert shed.status() == "rejected"
            assert not await service.cancel(shed.name)
            with pytest.raises(KeyError):
                await service.cancel("never-submitted")
            await service.drain()
            return survivor

        survivor = asyncio.run(run())
        assert survivor.status() == "done"


# ---------------------------------------------------------------------------
# The watch() stream
# ---------------------------------------------------------------------------

class TestWatch:
    def test_watch_sees_lifecycle_in_emission_order(self):
        async def run():
            service = _service()
            events = []

            async def consume(stream):
                async for event in stream:
                    events.append(event)

            task = asyncio.create_task(consume(service.watch()))
            await service.submit(_job("fg-a", iterations=40))
            await service.drain()
            await service.close()
            await task
            return events

        events = asyncio.run(run())
        kinds = [event.kind for event in events]
        assert kinds.index(EV_SUBMIT) < kinds.index(EV_PLACEMENT)
        assert kinds.index(EV_PLACEMENT) < kinds.index(EV_COMPLETION)
        submit = events[kinds.index(EV_SUBMIT)]
        assert submit.job == "fg-a" and submit.detail == "accept:fg"

    def test_watch_kind_filter(self):
        async def run():
            service = _service()
            seen = []

            async def consume(stream):
                async for event in stream:
                    seen.append(event)

            task = asyncio.create_task(
                consume(service.watch(kinds=[EV_COMPLETION]))
            )
            for i in range(3):
                await service.submit(_job(f"fg-{i}", iterations=40))
            await service.drain()
            await service.close()
            await task
            return seen

        seen = asyncio.run(run())
        assert len(seen) == 3
        assert {event.kind for event in seen} == {EV_COMPLETION}

    def test_recorder_and_stream_share_one_emission_seam(self):
        """The obs trace and the watch stream must never disagree."""

        async def run():
            recorder = TraceRecorder()
            service = _service(recorder=recorder)
            streamed = []

            async def consume(stream):
                async for event in stream:
                    streamed.append(event)

            task = asyncio.create_task(consume(service.watch()))
            await service.submit(_job("fg-a", iterations=40))
            handle = await service.submit(_job("fg-b", iterations=800))
            await service.advance_to(1.0)
            await service.cancel(handle.name)
            await service.drain()
            await service.close()
            await task
            return recorder, streamed

        recorder, streamed = asyncio.run(run())
        recorded = recorder.events
        assert [(e.kind, e.job, e.time) for e in recorded] == [
            (e.kind, e.job, e.time) for e in streamed
        ]
        assert any(e.kind == EV_SUBMIT for e in recorded)
        assert any(e.kind == EV_CANCEL for e in recorded)


# ---------------------------------------------------------------------------
# Ledger invariants (property-based)
# ---------------------------------------------------------------------------

def _assert_ledger_sane(service):
    for tenant, account in service._accounts.items():
        assert account.committed >= 0.0, tenant
        assert account.used >= 0.0, tenant
        assert account.engine_pending >= 0, tenant
        assert account.queued == len(
            service._backpressure.get(tenant, ())
        ), tenant


class TestLedgerInvariants:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["submit", "cancel", "advance"]),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=20,
        )
    )
    def test_no_quota_ledger_goes_negative(self, ops):
        """Arbitrary submit/cancel/advance interleavings keep every
        tenant's ledger sane, and a drain settles every hold."""

        async def run():
            service = SchedulerService(
                ClusterScheduler(4),
                policy="fifo",
                admission=QuotaAdmission(
                    default=TenantQuota(gpu_seconds=400.0, max_pending=2)
                ),
            )
            handles = []
            for index, (op, arg) in enumerate(ops):
                if op == "submit":
                    job = _job(
                        f"t{arg}-j{index}",
                        arrival=service.clock,
                        iterations=20 + 10 * arg,
                        batch=8,
                    )
                    handles.append(await service.submit(job))
                elif op == "cancel" and handles:
                    await service.cancel(handles[arg % len(handles)].name)
                elif op == "advance":
                    await service.advance_to(service.clock + float(arg))
                _assert_ledger_sane(service)
            await service.drain()
            _assert_ledger_sane(service)
            return service, handles

        service, handles = asyncio.run(run())
        for account in service._accounts.values():
            assert account.committed == 0.0
        for handle in handles:
            assert handle.done()
            assert handle.status() in {"done", "rejected", "cancelled"}


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------

class TestThroughput:
    def test_committed_baseline_sustains_the_target_rate(self):
        """The sched_service baseline must record >= 10k submissions/sec."""
        data = json.loads(
            (BASELINES / "BENCH_sched_service.json").read_text()
        )
        assert data["info"]["submissions_per_sec"] >= 10_000
        # The rate is a wall-clock diagnostic: it must never leak into the
        # gated metric fingerprint.
        assert "submissions_per_sec" not in data["metrics"]

    def test_submit_path_sustains_bulk_load(self):
        """Sanity floor well under the bench target, so CI never flakes."""
        trace = synthetic_trace(300, seed=9)
        service = SchedulerService(ClusterScheduler(32), policy="collocation")
        report = replay_trace_sync(service, trace)
        assert report.completed == 300
        assert report.submissions_per_sec > 1_000
