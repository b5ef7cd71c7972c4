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
import contextlib
import json
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, replace
from hashlib import sha256
from pathlib import Path

import pytest

import repro
from repro.cache.fingerprint import canonical_json
from repro.obs import EV_RECOVERY, EV_SNAPSHOT, TraceRecorder
from repro.sched import ClusterScheduler, TraceJob
from repro.serve import (
    CrashPlan,
    CrashPoint,
    IntentJournal,
    QuotaAdmission,
    RecoveryReport,
    SchedulerService,
    TenantQuota,
    list_snapshots,
    recover_service,
    result_fingerprint,
    scan_journal,
)
from repro.serve import recovery
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


def _journaled_run(directory, segment_records=None, **kwargs):
    service = _make_service(journal_dir=directory, **kwargs)
    if segment_records is not None:
        service.journal._segment_records = segment_records
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


def _fill_journal(directory, count, segment_records=4096):
    with IntentJournal(directory, segment_records=segment_records) as journal:
        for index in range(count):
            seq = journal.append({"op": "noop", "index": index})
            assert seq == index + 1


def _ten_records(directory):
    _fill_journal(directory, 10, segment_records=3)


def _torn_journal(directory):
    _ten_records(directory)
    with scan_journal(directory).segments[-1].open("ab") as fh:
        fh.write(b'J1 11 27 00000000 {"op":"half')  # no terminator


def _corrupt_journal(directory):
    _ten_records(directory)
    segment = scan_journal(directory).segments[1]  # records 4-6
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"noop"', b'"n0op"')  # record 5: CRC breaks
    segment.write_bytes(b"".join(lines))


def _gapped_journal(directory):
    _ten_records(directory)
    scan_journal(directory).segments[1].unlink()  # records 4-6


def _compacted_journal(directory):
    _ten_records(directory)
    with IntentJournal(directory, segment_records=3) as journal:
        journal.compact(7)  # the journal now starts at record 7


#: Ten noop records in segments of three, then one kind of damage each.
_JOURNAL_SCENARIOS = {
    "clean": _ten_records,
    "torn-tail": _torn_journal,
    "corrupt-record": _corrupt_journal,
    "sequence-gap": _gapped_journal,
    "compacted-head": _compacted_journal,
}


class TestIntentJournal:
    def test_append_scan_roundtrip(self, tmp_path):
        _fill_journal(tmp_path, 5)
        scan = scan_journal(tmp_path)
        assert not scan.error
        assert scan.torn_tail_bytes == 0
        assert [r.seq for r in scan.records] == [1, 2, 3, 4, 5]
        assert [r.intent["index"] for r in scan.records] == list(range(5))
        assert scan.last_seq == 5

    def test_reopen_resumes_numbering(self, tmp_path):
        _fill_journal(tmp_path, 3)
        with IntentJournal(tmp_path) as journal:
            assert journal.next_seq == 4
            assert journal.append({"op": "noop"}) == 4
        assert scan_journal(tmp_path).last_seq == 4

    def test_rotation_splits_segments(self, tmp_path):
        _fill_journal(tmp_path, 10, segment_records=3)
        scan = scan_journal(tmp_path)
        assert len(scan.segments) == 4
        assert [r.seq for r in scan.records] == list(range(1, 11))
        assert scan.segments[0].name == "wal-000000000001.log"
        assert scan.segments[-1].name == "wal-000000000010.log"

    def test_compaction_drops_covered_segments_only(self, tmp_path):
        _fill_journal(tmp_path, 10, segment_records=3)
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
        _fill_journal(tmp_path, 4)
        with IntentJournal(tmp_path) as journal:
            assert journal.compact(10_000) == []
        assert scan_journal(tmp_path).last_seq == 4

    def test_torn_tail_is_dropped_and_truncated_on_reopen(self, tmp_path):
        _fill_journal(tmp_path, 3)
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
        _fill_journal(tmp_path, 6)
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
        _fill_journal(tmp_path, 9, segment_records=3)
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

    @pytest.mark.parametrize("scenario", sorted(_JOURNAL_SCENARIOS))
    def test_suffix_scan_equals_the_full_scan_past_every_cut(
        self, tmp_path, scenario
    ):
        """``after_seq=k`` keeps the full scan's records past ``k`` only.

        Every other field (torn tail, loss, error, segments, ``last_seq``)
        must not depend on the cut, including cuts at or past the last
        record, where nothing is kept.
        """
        _JOURNAL_SCENARIOS[scenario](tmp_path)
        full = scan_journal(tmp_path)
        assert full.last_seq == (full.records[-1].seq if full.records else 0)
        for cut in range(0, full.last_seq + 3):
            suffix = scan_journal(tmp_path, after_seq=cut)
            expected = replace(
                full, records=[r for r in full.records if r.seq > cut]
            )
            assert suffix == expected, cut

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

    def test_recovery_deletes_orphaned_snapshot_temp_files(self, tmp_path):
        wal = tmp_path / "wal"
        baseline = _journaled_run(wal, snapshot_every=5)
        # A crash between write_snapshot's mkstemp and its rename leaves
        # a partial temp file behind.
        orphan = wal / ".state-crashed.tmp"
        orphan.write_bytes(b'{"fingerprint":"')
        # Only write_snapshot's temp files, and only in the journal
        # directory, are removed.
        kept = [
            wal / "notes.tmp",
            wal / ".state-notes.json",
            tmp_path / ".state-x.tmp",
        ]
        for path in kept:
            path.write_bytes(b"keep")
        fingerprint, report = _recovered_fingerprint(wal)
        assert fingerprint == baseline
        assert report.clean
        assert report.snapshot_seq == 10
        assert not orphan.exists()
        assert all(path.read_bytes() == b"keep" for path in kept)

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

    def test_crash_during_journal_reset_keeps_every_replayed_intent(
        self, tmp_path, monkeypatch
    ):
        """A reset writes its anchor snapshot before it deletes history.

        The first recovery of the corrupted journal above is crashed at
        each step of its reset: at every segment unlink (the anchor is
        already written) and at the reopening of the journal (every
        segment is gone).  A second recovery must still land on intent 9
        and hold the same state as an uninterrupted recovery.
        """
        source = tmp_path / "source"
        _journaled_run(source)
        segments = scan_journal(source).segments
        lines = segments[0].read_bytes().splitlines(keepends=True)
        broken_at = 9
        lines[broken_at] = lines[broken_at].replace(b'"op":', b'"0p":', 1)
        segments[0].write_bytes(b"".join(lines))

        reference, _ = recover_service(
            _make_service, shutil.copytree(source, tmp_path / "ref")
        )
        expected = canonical_json(reference.durable_state())
        asyncio.run(reference.close())

        class _Crash(Exception):
            pass

        real_unlink, real_journal = Path.unlink, recovery.IntentJournal
        for step in range(len(segments) + 1):
            wal = shutil.copytree(source, tmp_path / f"crash-{step}")
            calls = []

            def crash_point():
                calls.append(None)
                if len(calls) > step:
                    raise _Crash

            def unlink(path, *args, **kwargs):
                if path.parent == wal:
                    crash_point()
                return real_unlink(path, *args, **kwargs)

            def journal(*args, **kwargs):
                crash_point()
                return real_journal(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(Path, "unlink", unlink)
                patch.setattr(recovery, "IntentJournal", journal)
                with pytest.raises(_Crash):
                    recover_service(_make_service, wal)

            service, report = recover_service(_make_service, wal)
            assert report.final_seq == broken_at, step
            assert canonical_json(service.durable_state()) == expected, step
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
# One journal scan per recovery
# ---------------------------------------------------------------------------


def _durable_run(directory, snapshot_every=5):
    """The scripted run, in journal segments of four records."""
    _journaled_run(directory, segment_records=4, snapshot_every=snapshot_every)


def _torn_run(directory):
    _durable_run(directory)
    with scan_journal(directory).segments[-1].open("ab") as fh:
        fh.write(b'J1 15 39 00000000 {"op":"submit","to')


def _corrupt_snapshot_run(directory):
    _durable_run(directory)
    newest = list_snapshots(directory)[-1]
    newest.write_text(newest.read_text()[:-40])


def _corrupt_journal_run(directory):
    _durable_run(directory)
    segment = scan_journal(directory).segments[1]  # records 9-12
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"op":', b'"0p":', 1)  # record 12
    segment.write_bytes(b"".join(lines))


#: Durable directories of the scripted run: snapshots at intents 5 and 10
#: (the journal compacted behind 5) unless cold, then one kind of damage.
_RECOVERY_SCENARIOS = {
    "cold": lambda directory: _durable_run(directory, snapshot_every=None),
    "clean": _durable_run,
    "torn-tail": _torn_run,
    "corrupt-snapshot": _corrupt_snapshot_run,
    "journal-reset": _corrupt_journal_run,
}

#: The durable state after all 14 intents, however recovery got there.
_ALL_INTENTS = "127f137bd0ae4caf69919ac0d1de6450766b6bef328c895327368dfaef882457"


def _report(snapshot_path=None, snapshot_seq=0, **fields):
    return asdict(
        RecoveryReport(
            snapshot_path=snapshot_path, snapshot_seq=snapshot_seq, **fields
        )
    )


#: Each scenario's RecoveryReport (snapshot_path as a file name) and the
#: sha256 of the recovered service's canonical durable_state().  Literals:
#: how recovery reads the journal must not change what it recovers.
_RECOVERED = {
    "cold": (
        _report(replayed_records=14, final_seq=14),
        _ALL_INTENTS,
    ),
    "clean": (
        _report("state-000000000010.json", 10, replayed_records=4, final_seq=14),
        _ALL_INTENTS,
    ),
    "torn-tail": (
        _report(
            "state-000000000010.json", 10, replayed_records=4, final_seq=14,
            torn_tail_bytes=36,
        ),
        _ALL_INTENTS,
    ),
    "corrupt-snapshot": (
        _report(
            "state-000000000005.json", 5, replayed_records=9, final_seq=14,
            corrupt_snapshots=[
                "snapshot state-000000000010.json: not a canonical "
                "schema-1 snapshot document"
            ],
        ),
        _ALL_INTENTS,
    ),
    "journal-reset": (
        _report(
            "state-000000000010.json", 10, replayed_records=1, final_seq=11,
            lost_records=2, lost_bytes=393,
            journal_error="corrupt record in wal-000000000009.log",
            journal_reset=True,
        ),
        "0557c46005f1432e68972491bfbcb35af77ffcbe2865b7a217303f3334cdafa4",
    ),
}


@contextlib.contextmanager
def _counting_reads(monkeypatch, wal):
    """While open, count reads of each journal segment under ``wal`` and
    keep every scan recovery makes; yields ``(reads, scans)``."""
    reads = Counter()
    scans = []
    real_read, real_scan = Path.read_bytes, recovery.scan_journal

    def read_bytes(path):
        if path.parent == wal and path.name.startswith("wal-"):
            reads[path.name] += 1
        return real_read(path)

    def scan(*args, **kwargs):
        scans.append(real_scan(*args, **kwargs))
        return scans[-1]

    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_bytes", read_bytes)
        patch.setattr(recovery, "scan_journal", scan)
        yield reads, scans


class TestRecoveryScan:
    @pytest.mark.parametrize("scenario", sorted(_RECOVERY_SCENARIOS))
    def test_recovery_reads_each_segment_once(
        self, tmp_path, monkeypatch, scenario
    ):
        """One scan per recovery, holding only the records it replays."""
        wal = tmp_path / "wal"
        _RECOVERY_SCENARIOS[scenario](wal)
        segments = scan_journal(wal).segments
        with _counting_reads(monkeypatch, wal) as (reads, scans):
            service, report = recover_service(_make_service, wal)
        state = canonical_json(service.durable_state())
        asyncio.run(service.close())

        assert reads == Counter(segment.name for segment in segments)
        assert len(scans) == 1
        assert len(scans[0].records) == report.replayed_records
        fields = asdict(report)
        if report.snapshot_path is not None:
            fields["snapshot_path"] = Path(report.snapshot_path).name
        digest = sha256(state.encode()).hexdigest()
        assert (fields, digest) == _RECOVERED[scenario]

    def test_chaos_recovery_cycle_reads_each_segment_once(
        self, tmp_path, monkeypatch
    ):
        """A chaos worker decides to recover from the directory listing, so
        its cycle reads each segment once: in recovery's one scan."""
        spec = default_spec(num_jobs=24, num_gpus=16)
        wal = tmp_path / "wal"

        class Killed(Exception):
            pass

        def kill(pid, sig):
            raise Killed

        # The step crash point kills the worker mid-run; raising in place
        # of the SIGKILL leaves the directory as the kill would.
        with monkeypatch.context() as patch:
            patch.setattr(os, "kill", kill)
            with pytest.raises(Killed):
                run_chaos_worker(spec, wal, CrashPoint("step", 40))
        segments = scan_journal(wal).segments
        assert segments and list_snapshots(wal)
        with _counting_reads(monkeypatch, wal) as (reads, scans):
            resumed = run_chaos_worker(spec, wal)

        assert reads == Counter(segment.name for segment in segments)
        assert len(scans) == 1
        assert resumed["recovery"]["replayed_records"] == len(scans[0].records)
        baseline = run_chaos_worker(spec, None)
        assert resumed["fingerprint"] == baseline["fingerprint"]


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
