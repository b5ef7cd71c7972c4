"""Snapshot encoding: one canonical encoding for the digest and the file.

``write_snapshot`` encodes the service payload once, as byte pieces that
reuse the bytes of rows which can no longer change (the service's
:class:`~repro.serve.recovery.SnapshotEncoder`), hashes those pieces for
the fingerprint and streams them into the file; ``load_snapshot`` checks
the payload bytes between the canonical head and tail as read.
``dump_record`` builds completion-record rows flat from
:data:`RECORD_FIELDS`.  Each is checked here against the straightforward
reference it replaces: every snapshot file a service writes must equal
``canonical_json`` of the whole document with the fingerprint from
:func:`snapshot_fingerprint`, and a row must equal the ``asdict`` row with
``kind`` by value.
"""

import asyncio
import contextlib
import functools
import json
import math
import shutil
import tempfile
from dataclasses import asdict, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import (
    canonical_json,
    fingerprint,
    snapshot_digest,
    snapshot_fingerprint,
)
from repro.cluster.job import JobKind
from repro.sched import ClusterScheduler, TraceJob
from repro.sched.metrics import JobRecord
from repro.sched.snapshot import RECORD_FIELDS, dump_record, load_record
from repro.serve import (
    QuotaAdmission,
    SchedulerService,
    TenantQuota,
    list_snapshots,
    load_snapshot,
    recover_service,
    write_snapshot,
)
from repro.serve import recovery
from repro.serve.recovery import SERVICE_SNAPSHOT_SCHEMA


def _reference_file(payload):
    """The snapshot file as the two-encoding writer produced it."""
    return canonical_json(
        {
            "schema": SERVICE_SNAPSHOT_SCHEMA,
            "fingerprint": snapshot_fingerprint(payload),
            "payload": payload,
        }
    ).encode("utf-8")


def _mid_run_service(directory):
    """A durable service part-way through a run: jobs running, finished
    (completion records) and queued behind a quota, a tenant and job names
    with non-ASCII characters, and unlimited quotas (``"inf"``)."""
    service = SchedulerService(
        ClusterScheduler(8),
        policy="collocation",
        admission=QuotaAdmission(default=TenantQuota(max_pending=2)),
        journal_dir=directory,
    )

    async def run():
        for index in range(10):
            tenant = "tenant-é" if index % 2 else "租户"
            job = TraceJob(
                f"job-ü{index:02d}",
                "vgg16",
                32,
                arrival_time=float(index),
                iterations=20 + 10 * index,
                kind=JobKind.BACKGROUND if index % 3 == 2 else JobKind.FOREGROUND,
            )
            await service.submit(job, tenant=tenant)
        await service.advance_to(60.0)

    asyncio.run(run())
    return service


class TestSnapshotFile:
    def test_file_bytes_equal_the_reference_document(self, tmp_path):
        service = _mid_run_service(tmp_path)
        path = write_snapshot(service)
        payload = service.durable_state()
        # The capture must exercise what the encoding has to get right.
        assert payload["engine"]["records"], "no completion record yet"
        assert any(t["quota"]["gpu_seconds"] == "inf" for t in payload["tenants"])
        assert {t["name"] for t in payload["tenants"]} == {"tenant-é", "租户"}
        assert payload["backpressure"], "no submission queued behind a quota"
        assert path.read_bytes() == _reference_file(payload)
        assert load_snapshot(path) == payload
        asyncio.run(service.close())

    def test_payload_byte_flip_is_rejected(self, tmp_path):
        service = _mid_run_service(tmp_path)
        path = write_snapshot(service)
        asyncio.run(service.close())
        data = bytearray(path.read_bytes())
        # Flip one digit of the anchor sequence: still valid JSON, so only
        # the fingerprint can catch it.
        at = data.index(b'"journal_seq":') + len(b'"journal_seq":')
        assert data.index(b'"payload":') < at
        data[at] = ord("9") if data[at] != ord("9") else ord("8")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_snapshot(path)

    def test_digest_matches_the_generic_fingerprint(self):
        payload = {"clock": 1.5, "name": "ü", "rows": [1, "inf", None]}
        encoded = canonical_json(payload).encode("utf-8")
        expected = fingerprint("engine-snapshot", payload)
        assert snapshot_digest(encoded) == expected
        assert snapshot_fingerprint(payload) == expected


# ---------------------------------------------------------------------------
# Every snapshot a service writes, across the rows' whole lifetimes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _scheduler():
    """One 8-GPU scheduler shared by the driven services: a service runs
    its own engine and shares only the scheduler's plan caches."""
    return ClusterScheduler(8)


def _iso():
    return _scheduler()._iso_iter_time("vgg16", 32)


def _durable_service(directory, **kwargs):
    return SchedulerService(
        _scheduler(),
        policy="collocation",
        admission=QuotaAdmission(
            default=TenantQuota(gpu_seconds=150 * _iso(), max_pending=2)
        ),
        journal_dir=directory,
        **kwargs,
    )


@contextlib.contextmanager
def _audited_snapshots():
    """While open, check every snapshot file written against the reference
    document of the payload it captured; yields the paths checked."""
    checked = []
    original = recovery.write_snapshot

    def checked_write(service):
        path = original(service)
        assert path.read_bytes() == _reference_file(service.durable_state())
        checked.append(path)
        return path

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "write_snapshot", checked_write)
        yield checked


def _drive(service, ops):
    """Apply ``ops`` to a durable service; returns what the run exercised."""
    seen = set()

    async def run():
        for op in ops:
            kind = op[0]
            names = list(service._jobs)
            if kind == "submit":
                _, tenant, iterations, background, arrive_in = op
                job = TraceJob(
                    f"j{len(names):02d}",
                    "vgg16",
                    32,
                    arrival_time=service.clock + arrive_in,
                    iterations=iterations,
                    kind=JobKind.BACKGROUND if background else JobKind.FOREGROUND,
                )
                handle = await service.submit(job, tenant=f"t{tenant}")
                seen.add(f"submit-{handle.status()}")
            elif kind == "cancel" and names:
                name = names[op[1] % len(names)]
                status = service.query(name).status
                if await service.cancel(name):
                    seen.add(f"cancel-{status}")
            elif kind == "quota":
                _, tenant, max_pending, unlimited = op
                gpu_seconds = math.inf if unlimited else 150 * _iso()
                await service.set_quota(
                    f"t{tenant}", TenantQuota(gpu_seconds, max_pending)
                )
                seen.add("quota")
            elif kind == "advance":
                await service.advance_to(service.clock + op[1])
            elif kind == "drain":
                await service.drain()
                seen.add("drain")

    asyncio.run(run())
    return seen


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 2),
            st.integers(10, 200),
            st.booleans(),
            st.sampled_from([0.0, 0.5, 3.0]),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(
            st.just("quota"), st.integers(0, 2), st.integers(1, 3), st.booleans()
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 40.0)),
        st.just(("drain",)),
    ),
    min_size=1,
    max_size=30,
)

#: One run that exercises every case the memo has to get right: jobs
#: running across snapshots and finishing later, completion records
#: growing, a queued and a running cancel, a quota change that admits
#: parked jobs, an outright rejection, and submissions after a drain.
_SCRIPT = [
    ("submit", 0, 60, False, 0.0),
    ("submit", 0, 80, True, 0.0),
    ("submit", 0, 40, False, 0.0),
    ("submit", 1, 120, False, 0.0),
    ("submit", 1, 30, True, 0.5),
    ("advance", 2.0),
    ("submit", 1, 50, False, 0.0),
    ("cancel", 2),
    ("cancel", 1),
    ("advance", 10.0),
    ("submit", 2, 190, False, 0.0),
    ("quota", 1, 3, True),
    ("submit", 0, 25, False, 0.0),
    ("advance", 25.0),
    ("submit", 2, 35, True, 0.0),
    ("drain",),
    ("submit", 0, 45, False, 3.0),
    ("submit", 1, 15, True, 0.0),
    ("advance", 4.0),
    ("drain",),
    ("quota", 1, 1, False),
]


class TestEverySnapshot:
    def test_script_exercises_every_case(self):
        with tempfile.TemporaryDirectory() as directory:
            service = _durable_service(directory, snapshot_every=1)
            with _audited_snapshots() as checked:
                seen = _drive(service, _SCRIPT)
            asyncio.run(service.close())
        assert {
            "submit-pending",
            "submit-queued",
            "submit-rejected",
            "cancel-queued",
            "cancel-running",
            "quota",
            "drain",
        } <= seen, seen
        # One snapshot per journaled intent; advances and drains are none.
        intents = [op for op in _SCRIPT if op[0] not in ("advance", "drain")]
        assert len(checked) == len(intents)

    @settings(max_examples=150, deadline=None)
    @given(_ops, st.integers(1, 3))
    @example(_SCRIPT, 1)
    def test_every_snapshot_equals_the_reference(self, ops, every):
        with tempfile.TemporaryDirectory() as directory:
            service = _durable_service(
                directory, snapshot_every=every, snapshot_keep=1
            )
            with _audited_snapshots():
                _drive(service, ops)
            asyncio.run(service.close())

    def test_two_services_keep_their_own_rows(self, tmp_path):
        # Same job names, different runs: a memo shared between the two
        # services would write one service's finished rows into the
        # other's snapshot.
        short = [("submit", 0, 20, False, 0.0), ("drain",)] * 3
        long = [("submit", 0, 90, False, 0.0), ("drain",)] * 3
        first = _durable_service(tmp_path / "a", snapshot_every=1)
        second = _durable_service(tmp_path / "b", snapshot_every=1)
        with _audited_snapshots() as checked:
            for a_op, b_op in zip(short, long):
                _drive(first, [a_op])
                _drive(second, [b_op])
        assert len(checked) == 6
        for service in (first, second):
            asyncio.run(service.close())

    def test_recovered_service_snapshots_equal_the_reference(self, tmp_path):
        service = _durable_service(tmp_path, snapshot_every=4)
        _drive(service, _SCRIPT[:14])
        asyncio.run(service.close())
        with _audited_snapshots() as checked:
            recovered, report = recover_service(
                lambda: _durable_service(None), tmp_path, snapshot_every=1
            )
            assert report.clean and report.snapshot_seq > 0
            assert len(checked) == 1  # the anchor recovery writes itself
            _drive(recovered, _SCRIPT[14:])
        assert len(checked) > 1
        asyncio.run(recovered.close())


class TestFraming:
    def test_pretty_printed_snapshot_is_corrupt_and_skipped(self, tmp_path):
        wal, intact = tmp_path / "wal", tmp_path / "intact"
        service = _durable_service(wal, snapshot_every=4)
        _drive(service, _SCRIPT)
        asyncio.run(service.close())
        shutil.copytree(wal, intact)
        older, newest = list_snapshots(wal)
        document = json.loads(newest.read_bytes())
        # Same JSON value, same fingerprint, different bytes.
        newest.write_text(json.dumps(document, indent=2, sort_keys=True))
        with pytest.raises(ValueError, match="not a canonical"):
            load_snapshot(newest)

        def recovered_state(directory):
            recovered, report = recover_service(
                lambda: _durable_service(None), directory
            )
            asyncio.run(recovered.close())
            return recovered.durable_state(), report

        expected, _ = recovered_state(intact)
        state, report = recovered_state(wal)
        assert len(report.corrupt_snapshots) == 1
        assert report.snapshot_path == str(older)
        assert report.replayed_records == state["journal_seq"] - report.snapshot_seq
        assert report.snapshot_seq < document["payload"]["journal_seq"]
        assert state == expected

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: data.replace(b',"schema":1}', b',"schema":2}'),
            lambda data: data + b"\n",
            lambda data: b" " + data,
            lambda data: data[:-1],
        ],
        ids=["other-schema", "trailing-newline", "leading-space", "truncated"],
    )
    def test_misframed_snapshot_is_corrupt(self, tmp_path, mangle):
        service = _durable_service(tmp_path)
        _drive(service, _SCRIPT[:6])
        path = write_snapshot(service)
        asyncio.run(service.close())
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(ValueError, match="not a canonical"):
            load_snapshot(path)


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_count = st.integers(min_value=0, max_value=10**6)
_records = st.builds(
    JobRecord,
    name=st.text(max_size=12),
    model=st.text(max_size=12),
    kind=st.sampled_from(list(JobKind)),
    arrival_time=_finite,
    start_time=_finite,
    finish_time=_finite,
    iterations=_count,
    global_batch=_count,
    width=_count,
    busy_gpu_seconds=_finite,
    allocated_gpu_seconds=_finite,
    preemptions=_count,
    replans=_count,
    gpu_pool=st.text(max_size=8),
    restarts=_count,
    lost_gpu_seconds=_finite,
)


class TestRecordRows:
    def test_field_tuple_covers_every_field_in_order(self):
        assert list(RECORD_FIELDS) == [f.name for f in fields(JobRecord)]

    @settings(max_examples=200, deadline=None)
    @given(_records)
    def test_row_equals_the_asdict_row(self, record):
        reference = asdict(record)
        reference["kind"] = record.kind.value
        row = dump_record(record)
        assert row == reference
        assert list(row) == list(reference)
        assert type(row["kind"]) is str
        assert canonical_json(row) == canonical_json(reference)
        assert load_record(row) == record
