"""Each durable record is declared once, and persists whole.

A job's engine state (``_JobState``), a tenant's quota (``TenantQuota``)
and a tenant's ledger (``TenantAccount``) each name their persisted fields
in one place, and the snapshot row and its restore are generated from
that declaration.  These tests check that:

* every ``_JobState`` slot is classified in exactly one of the
  ``PERSISTED`` / ``LINKS`` / ``DERIVED`` tuples;
* an engine with failures, restarts, preemptions and guests restores,
  through JSON at every event boundary, with every persisted field and
  link equal on every job, and the runs move every such field;
* quota and account rows round-trip, and an account row carries every
  counter;
* the last snapshot file of a scripted durable service run (quotas, a
  quota override, queued and running cancels, rejections, backpressure,
  and a recovery halfway) keeps a literal digest.  The snapshot-encoding
  tests compare files against ``durable_state()``, so only a pinned
  digest notices a row that ``durable_state()`` itself dropped or renamed.
"""

import asyncio
import hashlib
import json
from collections import Counter

import pytest

from repro.sched import ClusterScheduler, SchedulerEngine, TraceJob
from repro.sched.engine import _JobState
from repro.sched.snapshot import EngineSnapshot
from repro.serve import (
    QuotaAdmission,
    SchedulerService,
    TenantQuota,
    list_snapshots,
    recover_service,
)
from repro.serve.admission import TenantAccount
from repro.serve.recovery import write_snapshot

from test_event_primitives import _scheduler
from test_job_state import _engine as _job_state_engine
from test_snapshot import _CONFIGS, _build_engine, _load_engine

_DECLARED = ("trace",) + _JobState.PERSISTED + _JobState.LINKS + _JobState.DERIVED


class TestJobStateDeclaration:
    def test_every_slot_is_declared_exactly_once(self):
        repeated = [name for name, n in Counter(_DECLARED).items() if n > 1]
        assert repeated == []
        assert sorted(_JobState.__slots__) == sorted(_DECLARED)


def _field(state, field):
    """A field's value, with links to other jobs replaced by their names."""
    value = getattr(state, field)
    if field == "hosted":
        return {index: guest.name for index, guest in value.items()}
    if field == "guest_order":
        return value.dump()
    if field == "host":
        return value.name if value is not None else None
    return value


def _assert_restored_equal(source, target):
    assert target.states.keys() == source.states.keys()
    for name, state in source.states.items():
        restored = target.states[name]
        assert restored.trace == state.trace
        for field in _JobState.PERSISTED + _JobState.LINKS + _JobState.DERIVED:
            if field != "reach":  # rebuilt unpriced (test_expand_frontier)
                assert _field(restored, field) == _field(state, field), (name, field)


def _background_heavy_engine():
    """``tests/test_job_state.py``'s run: preemptions, guests, rollbacks."""
    sched = _scheduler()
    return _job_state_engine(sched), lambda: SchedulerEngine(sched, "collocation")


def _hetero_failures_engine():
    config = _CONFIGS["hetero-failures"]
    return _load_engine(config), lambda: _build_engine(config)


class TestJobStateRoundTrip:
    @pytest.mark.parametrize(
        "make", [_hetero_failures_engine, _background_heavy_engine]
    )
    def test_restore_equals_capture_field_by_field_at_every_cut(self, make):
        source, fresh = make()
        while source.queue:
            source.step()
            target = fresh()
            target.restore(EngineSnapshot.from_json(source.snapshot().to_json()))
            _assert_restored_equal(source, target)

    def test_the_runs_move_every_persisted_field(self):
        """Every field the round trip compares takes a non-initial value in
        the runs above, so a field restored as its initial value fails."""
        moved = set()
        for make in (_hetero_failures_engine, _background_heavy_engine):
            source, _ = make()
            while source.queue:
                source.step()
                for state in source.states.values():
                    initial = _JobState(state.trace, state.order, state.iso_iter_time)
                    moved.update(
                        field
                        for field in _JobState.PERSISTED + _JobState.LINKS
                        if _field(state, field) != _field(initial, field)
                    )
        # ``order`` and ``iso_iter_time`` are constructor arguments.
        assert moved == set(_JobState.PERSISTED + _JobState.LINKS) - {
            "order",
            "iso_iter_time",
        }


class TestTenantRows:
    @pytest.mark.parametrize(
        "quota",
        [TenantQuota(), TenantQuota(gpu_seconds=12.5, max_pending=3)],
        ids=["unlimited", "bounded"],
    )
    def test_quota_row_round_trips_through_json(self, quota):
        row = quota.dump()
        assert sorted(row) == ["gpu_seconds", "max_pending"]
        assert TenantQuota.load(json.loads(json.dumps(row))) == quota

    def test_account_row_round_trips_every_counter(self):
        account = TenantAccount("rows-a", TenantQuota(gpu_seconds=9.0, max_pending=4))
        account.committed, account.used = 1.25, 2.5
        account.engine_pending, account.queued = 2, 1
        for bump, name in enumerate(TenantAccount.COUNTERS, start=1):
            account.counters[name].add(bump)
        row = json.loads(json.dumps(account.dump()))
        assert sorted(row["counters"]) == sorted(TenantAccount.COUNTERS)

        restored = TenantAccount.load(dict(row, name="rows-b"))
        assert restored.quota == account.quota
        for field in TenantAccount.LEDGER:
            assert getattr(restored, field) == getattr(account, field), field
        for name, counter in restored.counters.items():
            assert counter.value == account.counters[name].value, name


# ---------------------------------------------------------------------------
# Scripted durable service run: its last snapshot file is pinned.
# ---------------------------------------------------------------------------

#: sha256 of the last snapshot file the script below leaves behind.
_PINNED_SERVICE_SNAPSHOT = (
    "1f4d02527bece14c77d0f53f8669995bcc9aada97899084b83b71b01f2a9268c"
)


def _job(name, arrival, iterations=300, batch=32):
    return TraceJob(name, "vgg16", batch, arrival_time=arrival, iterations=iterations)


def _service(journal_dir=None):
    return SchedulerService(
        ClusterScheduler(8),
        policy="collocation",
        admission=QuotaAdmission(
            quotas={"t2": TenantQuota(gpu_seconds=30.0)},
            default=TenantQuota(max_pending=2),
        ),
        journal_dir=journal_dir,
        snapshot_every=4 if journal_dir is not None else None,
    )


def _scripted_snapshot(directory):
    """Run the script with a recovery halfway; the last snapshot's bytes."""
    service = _service(directory)

    async def first_half():
        for index in range(9):
            # t2's 2000-iteration job can never fit its 30 GPU-second quota.
            job = _job(
                f"t{index % 3}-a{index}", float(index), 2000 if index == 5 else 300
            )
            await service.submit(job, arrival_time=float(index))
        await service.advance_to(5.0)
        await service.cancel("t0-a6")  # queued behind t0's backpressure
        await service.cancel("t1-a1")  # running
        await service.set_quota("t0", TenantQuota(gpu_seconds=40.0, max_pending=1))
        await service.advance_to(12.0)
        await service.submit(_job("t1-b0", 12.0, batch=64), arrival_time=12.0)

    asyncio.run(first_half())
    service.journal.close()  # crash: the process goes without a last snapshot

    service, report = recover_service(_service, directory, snapshot_every=4)
    assert report.snapshot_seq > 0 and report.replayed_records > 0

    async def second_half():
        await service.set_quota("t2", TenantQuota(gpu_seconds=80.0, max_pending=2))
        for index in range(5):
            at = 20.0 + index
            await service.submit(_job(f"t{index % 3}-c{index}", at), arrival_time=at)
        await service.cancel("t2-c2")
        await service.drain()

    asyncio.run(second_half())
    write_snapshot(service)
    asyncio.run(service.close())
    return list_snapshots(directory)[-1].read_bytes()


class TestServiceSnapshotBytes:
    def test_script_exercises_every_row_kind(self, tmp_path):
        payload = json.loads(_scripted_snapshot(tmp_path))["payload"]
        tenants = {row["name"]: row for row in payload["tenants"]}
        assert sorted(tenants) == ["t0", "t1", "t2"]
        assert sorted(payload["quota_overrides"]) == ["t0", "t2"]
        counters = Counter()
        for row in tenants.values():
            counters.update(row["counters"])
        for name in ("rejected", "queued", "cancelled", "completed"):
            assert counters[name] > 0, name
        statuses = {row["service_status"] for row in payload["jobs"]}
        assert {"rejected", "cancelled"} <= statuses
        assert all(row["finished"] for row in payload["jobs"])

    def test_last_snapshot_file_is_pinned(self, tmp_path):
        data = _scripted_snapshot(tmp_path)
        assert hashlib.sha256(data).hexdigest() == _PINNED_SERVICE_SNAPSHOT
