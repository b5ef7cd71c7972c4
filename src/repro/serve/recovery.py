"""Crash recovery for the online scheduler service.

Durable state lives in one directory: the write-ahead segments of the
:class:`~repro.serve.journal.IntentJournal` plus ``state-<seq>.json``
snapshot files, each a fingerprinted canonical-JSON capture of
:meth:`~repro.serve.service.SchedulerService.durable_state` anchored at the
journal sequence it reflects.  Recovery is

    newest valid snapshot  +  replay of the journal suffix past its anchor

and degrades gracefully instead of failing hard:

* a **corrupt snapshot** (bad JSON, wrong schema, fingerprint mismatch) is
  skipped in favour of the next older one — the price is a longer journal
  replay, never wrong state;
* with **no usable snapshot** the full journal replays from a cold service;
* **journal corruption past the last snapshot** cannot be replayed across
  (the sequence gap would diverge from acknowledged history), so recovery
  stops there and *quantifies* the loss — ``lost_records``/``lost_bytes``
  in the :class:`RecoveryReport` — then resets the journal and anchors a
  fresh snapshot so the damaged history is never needed again;
* a **torn tail** (crash mid-append) is dropped silently: the write-ahead
  ordering guarantees it was never applied nor acknowledged.

Determinism does the heavy lifting.  Each journal record carries the
virtual clock it was applied at, so replay advances the engine to that
clock (re-processing every event through the same emission and accounting
seams) before re-applying the intent — the recovered service is
fingerprint-identical to the uninterrupted one, which the crash harness in
:mod:`repro.serve.chaos` asserts for every seeded crash point.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..cache.fingerprint import (
    canonical_json,
    snapshot_digest,
    snapshot_fingerprint,
)
from ..obs.trace import EV_RECOVERY, EV_SNAPSHOT
from .journal import IntentJournal, JournalRecord, fsync_directory, scan_journal

__all__ = [
    "SERVICE_SNAPSHOT_SCHEMA",
    "RecoveryReport",
    "list_snapshots",
    "load_snapshot",
    "recover_service",
    "write_snapshot",
]

#: Bumped whenever the service snapshot layout changes.
SERVICE_SNAPSHOT_SCHEMA = 1

_SNAP_PREFIX = "state-"
_SNAP_SUFFIX = ".json"


@dataclass
class RecoveryReport:
    """What one recovery did, and what (if anything) it could not save.

    ``lost_records``/``lost_bytes`` quantify acknowledged intents that
    could not be replayed (journal corruption past the last usable
    snapshot).  ``torn_tail_bytes`` is *not* loss — a torn append was never
    acknowledged.  ``journal_reset`` records that the damaged journal was
    discarded and re-anchored on a fresh snapshot.
    """

    snapshot_path: Optional[str] = None
    #: Journal sequence the chosen snapshot anchored (0 = cold start).
    snapshot_seq: int = 0
    corrupt_snapshots: List[str] = field(default_factory=list)
    replayed_records: int = 0
    #: Last intent sequence the recovered service reflects.
    final_seq: int = 0
    torn_tail_bytes: int = 0
    lost_records: int = 0
    lost_bytes: int = 0
    journal_error: str = ""
    journal_reset: bool = False

    @property
    def clean(self) -> bool:
        """True when recovery lost nothing and skipped no snapshot."""
        return (
            self.lost_records == 0
            and self.lost_bytes == 0
            and not self.corrupt_snapshots
        )


def _snapshot_seq(path: Path) -> int:
    return int(path.name[len(_SNAP_PREFIX) : -len(_SNAP_SUFFIX)])


def list_snapshots(directory: Union[str, Path]) -> List[Path]:
    """Snapshot files under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for path in directory.iterdir():
        if path.name.startswith(_SNAP_PREFIX) and path.name.endswith(
            _SNAP_SUFFIX
        ):
            try:
                _snapshot_seq(path)
            except ValueError:
                continue
            out.append(path)
    return sorted(out)


def write_snapshot(service) -> Path:
    """Persist the service's durable state, atomically, and compact.

    The document is ``canonical_json({"schema", "fingerprint", "payload"})``.
    The payload is encoded once: the fingerprint is the digest of those
    bytes, and the file is those bytes between the document's other keys
    in sorted order.  It goes through a same-directory temp file and
    ``os.replace`` so a crash mid-write can never leave a half-written
    ``state-*.json`` where recovery would find it; with journal fsync on,
    the directory is fsynced after the rename so the new name survives a
    power cut.  After the rename, snapshots beyond ``snapshot_keep`` are
    pruned and the journal is compacted behind the oldest one retained.
    """
    journal = service._journal
    if journal is None:
        raise ValueError("service has no journal attached")
    payload = service.durable_state()
    encoded = canonical_json(payload).encode("utf-8")
    head = f'{{"fingerprint":"{snapshot_digest(encoded)}","payload":'.encode()
    tail = f',"schema":{SERVICE_SNAPSHOT_SCHEMA}}}'.encode()
    directory = journal.directory
    seq = payload["journal_seq"]
    path = directory / f"{_SNAP_PREFIX}{seq:012d}{_SNAP_SUFFIX}"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".state-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            fh.write(encoded)
            fh.write(tail)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if journal.fsync:
        fsync_directory(directory)
    service._emitter.emit(service.clock, EV_SNAPSHOT, detail=f"seq={seq}")
    snaps = list_snapshots(directory)
    keep = service._snapshot_keep
    for old in snaps[:-keep]:
        old.unlink()
    snaps = snaps[-keep:]
    if snaps:
        journal.compact(_snapshot_seq(snaps[0]))
    return path


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one snapshot back, verifying schema and content fingerprint.

    Raises ``ValueError`` on any corruption — recovery treats that as
    "try the next older snapshot", never as fatal.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"snapshot {path.name}: unreadable ({exc})")
    if not isinstance(doc, dict) or doc.get("schema") != SERVICE_SNAPSHOT_SCHEMA:
        raise ValueError(f"snapshot {path.name}: unsupported schema")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot {path.name}: malformed payload")
    if snapshot_fingerprint(payload) != doc.get("fingerprint"):
        raise ValueError(f"snapshot {path.name}: fingerprint mismatch")
    return payload


def recover_service(
    factory: Callable[[], Any],
    journal_dir: Union[str, Path],
    snapshot_every: Optional[int] = None,
    snapshot_keep: int = 2,
    journal_fsync: bool = True,
) -> Tuple[Any, RecoveryReport]:
    """Rebuild a crashed service from its durable directory.

    ``factory`` must construct a *fresh* service exactly as the crashed one
    was configured (same scheduler fleet, policy, admission policy, failure
    schedule, planner/profiler config) but **without** ``journal_dir`` —
    recovery restores state, replays the journal suffix, then attaches the
    journal itself and re-anchors a snapshot when needed.  Returns the
    recovered service and a :class:`RecoveryReport`.
    """
    directory = Path(journal_dir)
    scan = scan_journal(directory)
    report = RecoveryReport(
        torn_tail_bytes=scan.torn_tail_bytes,
        lost_records=scan.lost_records,
        lost_bytes=scan.lost_bytes,
        journal_error=scan.error,
    )

    chosen_payload: Optional[Dict[str, Any]] = None
    for path in reversed(list_snapshots(directory)):
        try:
            chosen_payload = load_snapshot(path)
        except ValueError as exc:
            report.corrupt_snapshots.append(str(exc))
            continue
        report.snapshot_path = str(path)
        break

    service = factory()
    if service._journal is not None:
        raise ValueError(
            "recovery factory must build the service without journal_dir; "
            "recover_service attaches the journal itself"
        )
    anchor = 0
    if chosen_payload is not None:
        service.restore_durable_state(chosen_payload)
        anchor = chosen_payload["journal_seq"]
    report.snapshot_seq = anchor

    # Replay the contiguous suffix past the anchor.  scan.records is itself
    # contiguous, so a first record beyond anchor+1 means the whole suffix
    # is unreachable (compaction outran every usable snapshot) — counted as
    # loss, never replayed across.
    expected = anchor + 1
    suffix: List[JournalRecord] = []
    for record in scan.records:
        if record.seq <= anchor:
            continue
        if record.seq != expected:
            report.lost_records += 1
            continue
        suffix.append(record)
        expected += 1
    for record in suffix:
        service.apply_intent(record)
    applied = anchor + len(suffix)
    report.replayed_records = len(suffix)
    report.final_seq = applied

    # A journal whose history diverges from the recovered state (corruption,
    # or records the snapshot/suffix could not account for) is discarded:
    # numbering continues from the last applied intent and a fresh snapshot
    # below re-anchors recovery so the damaged history is never needed.
    reset = bool(scan.error) or applied < scan.last_seq
    if reset:
        for segment in scan.segments:
            if segment.exists():
                segment.unlink()
    report.journal_reset = reset

    journal = IntentJournal(directory, fsync=journal_fsync, first_seq=applied + 1)
    service._attach_journal(journal, snapshot_every, snapshot_keep)
    service._applied_seq = applied
    service._emitter.emit(
        service.clock,
        EV_RECOVERY,
        detail=(
            f"anchor={anchor};replayed={len(suffix)};"
            f"lost={report.lost_records}"
        ),
    )
    if reset or snapshot_every:
        write_snapshot(service)
    return service, report
