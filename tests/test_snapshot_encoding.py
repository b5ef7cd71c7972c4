"""Snapshot encoding: one canonical encoding for the digest and the file.

``write_snapshot`` encodes the service payload once, hashes those bytes
for the fingerprint and writes the file around them; ``dump_record``
builds completion-record rows flat from :data:`RECORD_FIELDS`.  Both are
checked here against the straightforward references they replace: the
file must equal ``canonical_json`` of the whole document with the
fingerprint from :func:`snapshot_fingerprint`, and a row must equal the
``asdict`` row with ``kind`` by value.
"""

import asyncio
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
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
    load_snapshot,
    write_snapshot,
)
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
