"""Crash safety for repro.serve: journal, recovery ladder, chaos harness.

Covers the write-ahead :class:`~repro.serve.journal.IntentJournal` (framing,
CRCs, torn tails, rotation, compaction, sequence gaps), the service's
durable-state capture/restore, the recovery ladder in
:mod:`repro.serve.recovery` (snapshot + suffix replay, corrupt-snapshot
fallback, quantified loss + journal reset), and the seeded crash-fault
harness in :mod:`repro.serve.chaos` — including one real SIGKILL cycle
through the ``python -m repro.serve smoke --crash`` entry point.
"""

import asyncio
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs import EV_RECOVERY, EV_SNAPSHOT, TraceRecorder
from repro.sched import ClusterScheduler, TraceJob
from repro.serve import (
    CrashPlan,
    CrashPoint,
    IntentJournal,
    QuotaAdmission,
    SchedulerService,
    TenantQuota,
    list_snapshots,
    recover_service,
    result_fingerprint,
    scan_journal,
)
from repro.serve.chaos import default_spec, run_chaos_worker

# ---------------------------------------------------------------------------
# Scripted workload: every intent kind (submit / cancel / set_quota), with
# backpressure in play, ending drained.  Deterministic, so two services fed
# the same script are fingerprint-comparable.
# ---------------------------------------------------------------------------


def _job(name, arrival=0.0, iterations=30, batch=32):
    return TraceJob(
        name, "vgg16", batch, arrival_time=arrival, iterations=iterations
    )


def _make_service(journal_dir=None, **kwargs):
    return SchedulerService(
        ClusterScheduler(8),
        policy="collocation",
        admission=QuotaAdmission(default=TenantQuota(max_pending=3)),
        journal_dir=journal_dir,
        **kwargs,
    )


#: Journal records the script produces: 12 submits + 1 cancel + 1 set_quota.
_SCRIPT_RECORDS = 14


def _run_script(service):
    async def run():
        for index in range(12):
            job = _job(f"t{index % 2}-j{index:02d}", arrival=float(index))
            await service.submit(job, arrival_time=float(index))
        await service.cancel("t0-j08")
        await service.set_quota("t1", TenantQuota(max_pending=64))
        await service.drain()

    asyncio.run(run())
    return result_fingerprint(service.result())


def _baseline_fingerprint():
    return _run_script(_make_service())


def _journaled_run(directory, **kwargs):
    service = _make_service(journal_dir=directory, **kwargs)
    fingerprint = _run_script(service)
    asyncio.run(service.close())
    return fingerprint


def _recovered_fingerprint(directory, **kwargs):
    # Recovery lands on the last acknowledged intent; the drain the crashed
    # process was doing is not an intent, so the caller re-drives it — the
    # deterministic engine makes the re-drain converge to the same end state.
    service, report = recover_service(_make_service, directory, **kwargs)
    asyncio.run(service.drain())
    fingerprint = result_fingerprint(service.result())
    asyncio.run(service.close())
    return fingerprint, report


# ---------------------------------------------------------------------------
# Journal unit tests
# ---------------------------------------------------------------------------


class TestIntentJournal:
    def _fill(self, directory, count, segment_records=4096):
        with IntentJournal(directory, segment_records=segment_records) as journal:
            for index in range(count):
                seq = journal.append({"op": "noop", "index": index})
                assert seq == index + 1

    def test_append_scan_roundtrip(self, tmp_path):
        self._fill(tmp_path, 5)
        scan = scan_journal(tmp_path)
        assert not scan.error
        assert scan.torn_tail_bytes == 0
        assert [r.seq for r in scan.records] == [1, 2, 3, 4, 5]
        assert [r.intent["index"] for r in scan.records] == list(range(5))
        assert scan.last_seq == 5

    def test_reopen_resumes_numbering(self, tmp_path):
        self._fill(tmp_path, 3)
        with IntentJournal(tmp_path) as journal:
            assert journal.next_seq == 4
            assert journal.append({"op": "noop"}) == 4
        assert scan_journal(tmp_path).last_seq == 4

    def test_rotation_splits_segments(self, tmp_path):
        self._fill(tmp_path, 10, segment_records=3)
        scan = scan_journal(tmp_path)
        assert len(scan.segments) == 4
        assert [r.seq for r in scan.records] == list(range(1, 11))
        assert scan.segments[0].name == "wal-000000000001.log"
        assert scan.segments[-1].name == "wal-000000000010.log"

    def test_compaction_drops_covered_segments_only(self, tmp_path):
        self._fill(tmp_path, 10, segment_records=3)
        with IntentJournal(tmp_path, segment_records=3) as journal:
            removed = journal.compact(7)
        # Segments 1-3 and 4-6 are wholly <= 7; segment 7-9 still holds 8, 9.
        assert [p.name for p in removed] == [
            "wal-000000000001.log",
            "wal-000000000004.log",
        ]
        scan = scan_journal(tmp_path)
        assert not scan.error, scan.error
        # The compacted journal legitimately starts mid-sequence.
        assert [r.seq for r in scan.records] == list(range(7, 11))

    def test_compaction_never_removes_the_only_segment(self, tmp_path):
        self._fill(tmp_path, 4)
        with IntentJournal(tmp_path) as journal:
            assert journal.compact(10_000) == []
        assert scan_journal(tmp_path).last_seq == 4

    def test_torn_tail_is_dropped_and_truncated_on_reopen(self, tmp_path):
        self._fill(tmp_path, 3)
        segment = scan_journal(tmp_path).segments[-1]
        clean_size = segment.stat().st_size
        with segment.open("ab") as fh:
            fh.write(b'J1 4 27 00000000 {"op":"half')  # no terminator
        scan = scan_journal(tmp_path)
        assert not scan.error
        assert scan.torn_tail_bytes > 0
        assert scan.lost_records == 0 and scan.lost_bytes == 0
        assert scan.last_seq == 3
        # Reopening truncates the torn bytes in place and resumes at seq 4.
        with IntentJournal(tmp_path) as journal:
            assert segment.stat().st_size == clean_size
            assert journal.append({"op": "noop"}) == 4
        assert [r.seq for r in scan_journal(tmp_path).records] == [1, 2, 3, 4]

    def test_midstream_corruption_quantifies_loss(self, tmp_path):
        self._fill(tmp_path, 6)
        segment = scan_journal(tmp_path).segments[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        # Flip one payload byte of record 3; length stays right, CRC breaks.
        lines[2] = lines[2].replace(b'"noop"', b'"n0op"')
        segment.write_bytes(b"".join(lines))
        scan = scan_journal(tmp_path)
        assert "corrupt record" in scan.error
        assert [r.seq for r in scan.records] == [1, 2]
        # Records 4-6 decode fine but sit past the break: counted, not kept.
        assert scan.lost_records == 3
        assert scan.lost_bytes > 0
        with pytest.raises(ValueError, match="recover it explicitly"):
            IntentJournal(tmp_path)

    def test_missing_segment_is_a_sequence_gap(self, tmp_path):
        self._fill(tmp_path, 9, segment_records=3)
        scan_journal(tmp_path).segments[1].unlink()  # records 4-6
        scan = scan_journal(tmp_path)
        assert "sequence gap" in scan.error
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert scan.lost_records == 3

    def test_first_seq_floors_an_empty_directory(self, tmp_path):
        with IntentJournal(tmp_path, first_seq=41) as journal:
            assert journal.append({"op": "noop"}) == 41
        scan = scan_journal(tmp_path)
        assert not scan.error
        assert [r.seq for r in scan.records] == [41]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="segment_records"):
            IntentJournal(tmp_path, segment_records=0)
        with pytest.raises(ValueError, match="first_seq"):
            IntentJournal(tmp_path, first_seq=0)


# ---------------------------------------------------------------------------
# Service durability: journaled intents, durable state, reopen guard
# ---------------------------------------------------------------------------


class TestServiceDurability:
    def test_journaling_is_fingerprint_neutral(self, tmp_path):
        assert _journaled_run(tmp_path / "wal") == _baseline_fingerprint()

    def test_every_intent_is_journaled_in_order(self, tmp_path):
        _journaled_run(tmp_path / "wal")
        scan = scan_journal(tmp_path / "wal")
        assert not scan.error
        ops = [record.intent["op"] for record in scan.records]
        assert len(ops) == _SCRIPT_RECORDS
        assert ops == ["submit"] * 12 + ["cancel", "set_quota"]
        clocks = [record.intent["clock"] for record in scan.records]
        assert clocks == sorted(clocks)

    def test_durable_state_roundtrip_preserves_the_run(self, tmp_path):
        baseline = _baseline_fingerprint()
        source = _make_service(journal_dir=tmp_path / "wal")

        async def half():
            for index in range(12):
                job = _job(f"t{index % 2}-j{index:02d}", arrival=float(index))
                await source.submit(job, arrival_time=float(index))
            await source.cancel("t0-j08")

        asyncio.run(half())
        payload = source.durable_state()

        target = _make_service()
        target.restore_durable_state(payload)
        assert target.clock == source.clock
        assert target._applied_seq == source._applied_seq
        asyncio.run(source.close())

        async def finish():
            await target.set_quota("t1", TenantQuota(max_pending=64))
            await target.drain()

        asyncio.run(finish())
        assert result_fingerprint(target.result()) == baseline

    def test_reopening_durable_state_requires_recovery(self, tmp_path):
        _journaled_run(tmp_path / "wal")
        with pytest.raises(RuntimeError, match="recover_service"):
            _make_service(journal_dir=tmp_path / "wal")

    def test_snapshot_every_requires_a_journal(self):
        with pytest.raises(ValueError, match="journal_dir"):
            _make_service(snapshot_every=4)
        with pytest.raises(ValueError, match="snapshot_every"):
            _make_service()._attach_journal(None, 0, 2)

    def test_periodic_snapshots_are_written_and_pruned(self, tmp_path):
        _journaled_run(tmp_path / "wal", snapshot_every=5, snapshot_keep=2)
        snaps = list_snapshots(tmp_path / "wal")
        # 14 intents with snapshot_every=5 anchor at 5 and 10; keep=2.
        assert [int(p.name[len("state-") : -len(".json")]) for p in snaps] == [
            5,
            10,
        ]


# ---------------------------------------------------------------------------
# Directory fsyncs: a created or renamed file's name is durable too
# ---------------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync``, in call order, as ``"dir"`` or ``"file"``."""
    calls = []
    real = os.fsync

    def record(fd):
        calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real(fd)

    monkeypatch.setattr(os, "fsync", record)
    return calls


class TestDirectoryFsync:
    def test_new_segment_fsyncs_the_directory_before_its_records(
        self, tmp_path, fsyncs
    ):
        with IntentJournal(tmp_path, segment_records=2) as journal:
            for index in range(5):
                journal.append({"op": "noop", "index": index})
        assert fsyncs == ["dir", "file", "file"] * 2 + ["dir", "file"]

    def test_reopened_segment_is_not_a_new_entry(self, tmp_path, fsyncs):
        with IntentJournal(tmp_path) as journal:
            journal.append({"op": "noop"})
        fsyncs.clear()
        with IntentJournal(tmp_path) as journal:
            journal.append({"op": "noop"})
        assert fsyncs == ["file"]

    def test_unsynced_journal_syncs_no_directory(self, tmp_path, fsyncs):
        with IntentJournal(tmp_path, segment_records=2, fsync=False) as journal:
            for index in range(5):
                journal.append({"op": "noop", "index": index})
        assert fsyncs == []

    def test_snapshot_rename_fsyncs_the_directory(self, tmp_path, fsyncs):
        _journaled_run(tmp_path / "wal", snapshot_every=5)
        # One segment, 14 appends, snapshots after intents 5 and 10: each
        # snapshot file is fsynced, then the directory holding its new name.
        snapshot = ["file", "dir"]
        assert fsyncs == (
            ["dir"] + ["file"] * 5 + snapshot + ["file"] * 5 + snapshot
            + ["file"] * 4
        )

    def test_unsynced_service_still_fsyncs_snapshot_files_only(
        self, tmp_path, fsyncs
    ):
        _journaled_run(tmp_path / "wal", snapshot_every=5, journal_fsync=False)
        assert fsyncs == ["file", "file"]


# ---------------------------------------------------------------------------
# The recovery ladder
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_cold_replay_of_the_full_journal(self, tmp_path):
        baseline = _journaled_run(tmp_path / "wal")
        fingerprint, report = _recovered_fingerprint(tmp_path / "wal")
        assert fingerprint == baseline
        assert report.clean
        assert report.snapshot_seq == 0 and report.snapshot_path is None
        assert report.replayed_records == _SCRIPT_RECORDS
        assert report.final_seq == _SCRIPT_RECORDS
        assert not report.journal_reset

    def test_recovery_anchors_on_the_newest_snapshot(self, tmp_path):
        baseline = _journaled_run(tmp_path / "wal", snapshot_every=5)
        fingerprint, report = _recovered_fingerprint(
            tmp_path / "wal", snapshot_every=5
        )
        assert fingerprint == baseline
        assert report.clean
        assert report.snapshot_seq == 10
        assert report.replayed_records == _SCRIPT_RECORDS - 10
        # Passing snapshot_every re-anchors recovery itself.
        assert list_snapshots(tmp_path / "wal")[-1].name.endswith(
            f"{_SCRIPT_RECORDS:012d}.json"
        )

    def test_corrupt_snapshot_falls_back_to_an_older_one(self, tmp_path):
        baseline = _journaled_run(tmp_path / "wal", snapshot_every=5)
        newest = list_snapshots(tmp_path / "wal")[-1]
        newest.write_text(newest.read_text()[:-40])  # truncate: bad JSON
        fingerprint, report = _recovered_fingerprint(tmp_path / "wal")
        assert fingerprint == baseline
        assert len(report.corrupt_snapshots) == 1
        assert report.snapshot_seq == 5
        assert report.replayed_records == _SCRIPT_RECORDS - 5
        assert report.lost_records == 0 and not report.journal_reset

    def test_torn_tail_recovers_losslessly(self, tmp_path):
        baseline = _journaled_run(tmp_path / "wal")
        segment = scan_journal(tmp_path / "wal").segments[-1]
        with segment.open("ab") as fh:
            fh.write(b'J1 15 39 00000000 {"op":"submit","to')
        fingerprint, report = _recovered_fingerprint(tmp_path / "wal")
        assert fingerprint == baseline
        assert report.torn_tail_bytes > 0
        assert report.clean  # torn != lost: it was never acknowledged
        assert not report.journal_reset

    def test_midstream_corruption_is_quantified_and_resets(self, tmp_path):
        _journaled_run(tmp_path / "wal")
        segment = scan_journal(tmp_path / "wal").segments[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        broken_at = 9  # corrupt record 10 of 14: 5 acknowledged records lost
        lines[broken_at] = lines[broken_at].replace(b'"op":', b'"0p":', 1)
        segment.write_bytes(b"".join(lines))

        service, report = recover_service(_make_service, tmp_path / "wal")
        assert report.final_seq == broken_at
        assert report.replayed_records == broken_at
        # The corrupted record itself is bytes-only loss (it no longer
        # decodes as a record); the 4 intact records past it are countable.
        assert report.lost_records == _SCRIPT_RECORDS - broken_at - 1
        assert report.lost_bytes > 0
        assert report.journal_error
        assert report.journal_reset
        # The damaged history is gone: a fresh anchor snapshot covers the
        # recovered state and the journal resumes numbering after it.
        snaps = list_snapshots(tmp_path / "wal")
        assert [int(p.name[len("state-") : -len(".json")]) for p in snaps] == [
            broken_at
        ]
        assert service.journal.next_seq == broken_at + 1

        async def resume():
            await service.submit(_job("t9-extra", arrival=50.0))
            await service.drain()

        asyncio.run(resume())
        scan = scan_journal(tmp_path / "wal")
        assert not scan.error
        assert scan.last_seq == broken_at + 1
        asyncio.run(service.close())

    def test_recovery_emits_obs_events(self, tmp_path):
        _journaled_run(tmp_path / "wal")
        recorder = TraceRecorder()
        service, _ = recover_service(
            lambda: _make_service(recorder=recorder),
            tmp_path / "wal",
            snapshot_every=8,
        )
        recovery_events = recorder.events_of(EV_RECOVERY)
        assert len(recovery_events) == 1
        assert (
            recovery_events[0].detail
            == f"anchor=0;replayed={_SCRIPT_RECORDS};lost=0"
        )
        assert len(recorder.events_of(EV_SNAPSHOT)) == 1
        asyncio.run(service.close())

    def test_factory_must_not_attach_its_own_journal(self, tmp_path):
        _journaled_run(tmp_path / "wal")
        with pytest.raises(ValueError, match="without journal_dir"):
            recover_service(
                lambda: _make_service(journal_dir=tmp_path / "other"),
                tmp_path / "wal",
            )


# ---------------------------------------------------------------------------
# Crash-fault harness
# ---------------------------------------------------------------------------


class TestChaosHarness:
    def test_crash_point_validation(self):
        with pytest.raises(ValueError, match="kind"):
            CrashPoint("fork", 3)
        with pytest.raises(ValueError, match=">= 0"):
            CrashPoint("step", -1)
        assert CrashPoint("append", 4, torn_bytes=17).torn_bytes == 17

    def test_seeded_plans_are_deterministic(self):
        first = CrashPlan.seeded(99, 6)
        assert first == CrashPlan.seeded(99, 6)
        assert len(first.points) == 6
        assert first != CrashPlan.seeded(100, 6)

    def test_worker_baseline_and_journaled_runs_agree(self, tmp_path):
        spec = default_spec(num_jobs=24, num_gpus=16)
        baseline = run_chaos_worker(spec, None)
        durable = run_chaos_worker(spec, tmp_path / "wal")
        assert baseline["fingerprint"] == durable["fingerprint"]
        assert baseline["tenants"] == durable["tenants"]
        # A second run over the surviving directory recovers, resumes the
        # remaining intents, and converges to the same end state.
        resumed = run_chaos_worker(spec, tmp_path / "wal")
        assert resumed["fingerprint"] == baseline["fingerprint"]
        assert resumed["recovery"] is not None

    def test_smoke_cli_survives_a_real_sigkill(self, tmp_path, monkeypatch):
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        monkeypatch.setenv("PYTHONPATH", src_dir)
        out = tmp_path / "artifacts"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "smoke",
                "--num-jobs",
                "40",
                "--num-gpus",
                "32",
                "--crash",
                "1",
                "--crash-seed",
                "5",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = json.loads((out / "chaos_summary.json").read_text())
        assert summary["ok"] is True
        assert summary["baseline_fingerprint"] == summary["final_fingerprint"]
        assert (out / "chaos_recovery_trace.json").exists()
