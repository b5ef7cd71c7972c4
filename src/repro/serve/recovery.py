"""Crash recovery for the online scheduler service.

Durable state lives in one directory: the write-ahead segments of the
:class:`~repro.serve.journal.IntentJournal` plus ``state-<seq>.json``
snapshot files, each a fingerprinted canonical-JSON capture of
:meth:`~repro.serve.service.SchedulerService.durable_state` anchored at the
journal sequence it reflects.  Recovery is

    newest valid snapshot  +  replay of the journal suffix past its anchor

and degrades gracefully instead of failing hard:

* a **corrupt snapshot** (framing other than the canonical head and tail,
  a different schema, bad JSON, fingerprint mismatch) is skipped in
  favour of the next older one — the price is a longer journal replay,
  never wrong state;
* an orphaned **snapshot temp file** (a crash between writing it and
  renaming it into place) is deleted;
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

from ..cache.fingerprint import canonical_json, snapshot_digest
from ..obs.trace import EV_RECOVERY, EV_SNAPSHOT
from ..sched.engine import _CANCELLED, _DONE
from .journal import IntentJournal, fsync_directory, scan_journal

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
#: ``write_snapshot``'s temp files; one left behind marks a crash mid-write.
_TMP_PREFIX = ".state-"
_TMP_SUFFIX = ".tmp"

# A snapshot file is ``canonical_json({"schema", "fingerprint", "payload"})``,
# so the payload's bytes sit between a fixed-length head and a fixed tail.
_HEAD_OPEN = b'{"fingerprint":"'
_HEAD_CLOSE = b'","payload":'
_DIGEST_HEX = 64
_HEAD_LEN = len(_HEAD_OPEN) + _DIGEST_HEX + len(_HEAD_CLOSE)
_TAIL = f',"schema":{SERVICE_SNAPSHOT_SCHEMA}}}'.encode()


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


def _encode(value: Any) -> bytes:
    return canonical_json(value).encode("utf-8")


def _put_object(
    out: List[bytes], obj: Dict[str, Any], special: Dict[str, Callable]
) -> None:
    """Append ``canonical_json(obj)`` to ``out`` as pieces.

    Keys go in sorted order with ``","``/``":"`` separators, exactly as
    :func:`canonical_json` lays them out.  The value of a key in
    ``special`` is appended by its handler; every other value is encoded
    whole.
    """
    sep = b"{"
    for key in sorted(obj):
        out.append(sep + _encode(key) + b":")
        sep = b","
        handler = special.get(key)
        if handler is None:
            out.append(_encode(obj[key]))
        else:
            handler(out, obj[key])
    out.append(b"}" if obj else b"{}")


def _put_array(out: List[bytes], items: List[bytes]) -> None:
    """Append the JSON array of already-encoded ``items`` to ``out``."""
    sep = b"["
    for item in items:
        out.append(sep)
        out.append(item)
        sep = b","
    out.append(b"]" if items else b"[]")


def _put_rows(
    out: List[bytes],
    rows: List[Any],
    memo: Dict[str, bytes],
    frozen_name: Callable[[Dict[str, Any]], Optional[str]],
) -> None:
    """Append the array of ``rows``.  A row that is already ``bytes`` (a
    memo entry the capture put in) goes in as is; a dict row is encoded,
    and ``memo`` keeps its bytes when ``frozen_name`` names it (a row that
    can no longer change)."""
    items = []
    for row in rows:
        if not isinstance(row, bytes):
            encoded = _encode(row)
            name = frozen_name(row)
            if name is not None:
                memo[name] = encoded
            row = encoded
        items.append(row)
    _put_array(out, items)


def _frozen_engine_job(row: Dict[str, Any]) -> Optional[str]:
    return row["trace"]["name"] if row["status"] in (_DONE, _CANCELLED) else None


def _frozen_service_job(row: Dict[str, Any]) -> Optional[str]:
    return row["job"]["name"] if row["finished"] else None


class SnapshotEncoder:
    """Canonical encoding of one service's payloads, as byte pieces.

    Rows that can no longer change are encoded once and their bytes
    reused by every later snapshot: engine ``jobs`` rows whose status is
    ``done`` or ``cancelled`` (``engine_jobs``, by job name), every engine
    ``records`` row (``records``; that list only grows within one
    service), and service ``jobs`` rows with ``finished`` set
    (``service_jobs``, by job name).  Only bytes are kept, never the row
    dicts.  The snapshot writer hands this encoder to
    :meth:`~repro.serve.service.SchedulerService.durable_state`, which
    puts those bytes in the payload in place of the rows, so a frozen row
    is built and encoded once per service.  Each
    :class:`~repro.serve.service.SchedulerService` owns one encoder, so a
    service restored by recovery starts with an empty memo.
    """

    __slots__ = ("engine_jobs", "records", "service_jobs")

    def __init__(self) -> None:
        self.engine_jobs: Dict[str, bytes] = {}
        self.records: List[bytes] = []
        self.service_jobs: Dict[str, bytes] = {}

    def encode(self, payload: Dict[str, Any]) -> List[bytes]:
        """``canonical_json(payload).encode()`` split into pieces, in order.

        A row of ``payload`` may already be its canonical ``bytes`` (as
        :meth:`~repro.serve.service.SchedulerService.durable_state` puts
        this encoder's memo entries); the pieces are the encoding of the
        payload with each such row decoded.
        """
        out: List[bytes] = []
        _put_object(
            out,
            payload,
            {"engine": self._put_engine, "jobs": self._put_service_jobs},
        )
        return out

    def _put_engine(self, out: List[bytes], engine: Dict[str, Any]) -> None:
        _put_object(
            out,
            engine,
            {"jobs": self._put_engine_jobs, "records": self._put_records},
        )

    def _put_engine_jobs(self, out: List[bytes], rows: List[Any]) -> None:
        _put_rows(out, rows, self.engine_jobs, _frozen_engine_job)

    def _put_records(self, out: List[bytes], rows: List[Any]) -> None:
        memo = self.records
        memo.extend(_encode(row) for row in rows[len(memo):])
        _put_array(out, memo)

    def _put_service_jobs(self, out: List[bytes], rows: List[Any]) -> None:
        _put_rows(out, rows, self.service_jobs, _frozen_service_job)


def write_snapshot(service) -> Path:
    """Persist the service's durable state, atomically, and compact.

    The file is written by :func:`_write_snapshot_file`; after it, the
    snapshot is announced, snapshots beyond ``snapshot_keep`` are pruned
    and the journal is compacted behind the oldest one retained
    (:func:`_retire_snapshots`).
    """
    journal = service._journal
    if journal is None:
        raise ValueError("service has no journal attached")
    path = _write_snapshot_file(service, journal.directory, journal.fsync)
    _retire_snapshots(service, path)
    return path


def _write_snapshot_file(service, directory: Path, fsync_dir: bool) -> Path:
    """Write the service's durable state to ``state-<seq>.json``, durably.

    The document is ``canonical_json({"schema", "fingerprint", "payload"})``.
    The payload is captured by
    :meth:`~repro.serve.service.SchedulerService.durable_state` with the
    service's :class:`SnapshotEncoder`, so rows that can no longer change
    and were encoded by an earlier snapshot come as their bytes, never
    built again.  It is encoded once, as byte pieces by that encoder, so a
    snapshot builds and encodes only the rows changed since the service's
    earlier ones.  The fingerprint is the digest of those pieces,
    and the file is the pieces, streamed with ``writelines``, between the
    document's other keys in sorted order; the document is never joined
    into one string.  It goes through a same-directory temp file and
    ``os.replace`` so a crash mid-write can never leave a half-written
    ``state-*.json`` where recovery would find it (recovery deletes the
    orphaned temp file); with ``fsync_dir``, the directory is fsynced
    after the rename so the new name survives a power cut.
    """
    encoder = service._snapshot_encoder
    payload = service.durable_state(encoder=encoder)
    pieces = encoder.encode(payload)
    head = _HEAD_OPEN + snapshot_digest(*pieces).encode() + _HEAD_CLOSE
    path = directory / f"{_SNAP_PREFIX}{payload['journal_seq']:012d}{_SNAP_SUFFIX}"
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=_TMP_PREFIX, suffix=_TMP_SUFFIX
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            fh.writelines(pieces)
            fh.write(_TAIL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync_dir:
        fsync_directory(directory)
    return path


def _retire_snapshots(service, path: Path) -> None:
    """Announce the snapshot at ``path``, prune and compact behind it."""
    journal = service._journal
    service._emitter.emit(
        service.clock, EV_SNAPSHOT, detail=f"seq={_snapshot_seq(path)}"
    )
    snaps = list_snapshots(journal.directory)
    keep = service._snapshot_keep
    for old in snaps[:-keep]:
        old.unlink()
    snaps = snaps[-keep:]
    if snaps:
        journal.compact(_snapshot_seq(snaps[0]))


def _payload_text(path: Path) -> str:
    """The payload of one snapshot file as text, framing and digest checked.

    Only the file's bytes and the returned text are ever held: the payload
    is hashed and decoded through a view, never copied out as bytes.
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValueError(f"snapshot {path.name}: unreadable ({exc})")
    if (
        len(data) < _HEAD_LEN + len(_TAIL)
        or not data.startswith(_HEAD_OPEN)
        or data[_HEAD_LEN - len(_HEAD_CLOSE) : _HEAD_LEN] != _HEAD_CLOSE
        or not data.endswith(_TAIL)
    ):
        raise ValueError(
            f"snapshot {path.name}: not a canonical schema-"
            f"{SERVICE_SNAPSHOT_SCHEMA} snapshot document"
        )
    encoded = memoryview(data)[_HEAD_LEN : len(data) - len(_TAIL)]
    recorded = data[len(_HEAD_OPEN) : len(_HEAD_OPEN) + _DIGEST_HEX]
    if snapshot_digest(encoded).encode() != recorded:
        raise ValueError(f"snapshot {path.name}: fingerprint mismatch")
    try:
        return str(encoded, "utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"snapshot {path.name}: unreadable ({exc})")


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one snapshot back, verifying framing, schema and fingerprint.

    The writer frames the payload canonically, so its bytes are exactly
    those between the head ``{"fingerprint":"<fp>","payload":`` and the
    tail ``,"schema":1}``.  The fingerprint is checked by hashing those
    bytes as read (:func:`~repro.cache.fingerprint.snapshot_digest`), not
    by re-encoding the parsed payload; a file whose framing does not match
    (a different schema, a re-formatted or truncated document) is corrupt.

    Raises ``ValueError`` on any corruption — recovery treats that as
    "try the next older snapshot", never as fatal.
    """
    path = Path(path)
    text = _payload_text(path)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"snapshot {path.name}: unreadable ({exc})")
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot {path.name}: malformed payload")
    return payload


def _restore_newest_snapshot(
    service, directory: Path, report: RecoveryReport
) -> int:
    """Restore the newest valid snapshot into ``service``; return its anchor.

    Corrupt snapshots are noted in ``report`` and skipped.  The parsed
    payload lives only until this returns.  0 means no snapshot was usable.
    """
    for path in reversed(list_snapshots(directory)):
        try:
            payload = load_snapshot(path)
        except ValueError as exc:
            report.corrupt_snapshots.append(str(exc))
            continue
        service.restore_durable_state(payload)
        report.snapshot_path = str(path)
        return payload["journal_seq"]
    return 0


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

    Recovery holds only what it replays.  The newest valid snapshot is
    restored first, and its parsed payload is dropped.  Then one
    :func:`~repro.serve.journal.scan_journal` reads each segment once and
    keeps only the records past the snapshot's anchor.  The resumed
    :class:`~repro.serve.journal.IntentJournal` opens from that scan, not
    from a second read; after a journal reset it opens on the emptied
    directory.
    """
    directory = Path(journal_dir)
    # A crash between write_snapshot's mkstemp and its rename leaves the
    # temp file behind; nothing else would ever remove it.
    for orphan in directory.glob(f"{_TMP_PREFIX}*{_TMP_SUFFIX}"):
        orphan.unlink()
    service = factory()
    if service._journal is not None:
        raise ValueError(
            "recovery factory must build the service without journal_dir; "
            "recover_service attaches the journal itself"
        )
    report = RecoveryReport()
    anchor = _restore_newest_snapshot(service, directory, report)
    report.snapshot_seq = anchor

    scan = scan_journal(directory, after_seq=anchor)
    report.torn_tail_bytes = scan.torn_tail_bytes
    report.lost_records = scan.lost_records
    report.lost_bytes = scan.lost_bytes
    report.journal_error = scan.error
    # Replay the contiguous suffix past the anchor.  scan.records is itself
    # contiguous, so a first record beyond anchor+1 means the whole suffix
    # is unreachable (compaction outran every usable snapshot) — counted as
    # loss, never replayed across.
    suffix = scan.records
    if suffix and suffix[0].seq != anchor + 1:
        report.lost_records += len(suffix)
        suffix = []
    for record in suffix:
        service.apply_intent(record)
    applied = anchor + len(suffix)
    report.replayed_records = len(suffix)
    report.final_seq = applied

    # A journal whose history diverges from the recovered state (corruption,
    # or records the snapshot/suffix could not account for) is discarded:
    # numbering continues from the last applied intent.  A fresh snapshot
    # re-anchors recovery first, so the damaged history is never needed
    # again, even if this recovery crashes while deleting it.
    reset = bool(scan.error) or applied < scan.last_seq
    if reset:
        anchor_path = _write_snapshot_file(service, directory, journal_fsync)
        for segment in scan.segments:
            if segment.exists():
                segment.unlink()
    report.journal_reset = reset

    journal = IntentJournal(
        directory,
        fsync=journal_fsync,
        first_seq=applied + 1,
        scan=None if reset else scan,
    )
    service._attach_journal(journal, snapshot_every, snapshot_keep)
    service._applied_seq = applied
    service._emitter.emit(
        service.clock,
        EV_RECOVERY,
        detail=(
            f"anchor={anchor};replayed={report.replayed_records};"
            f"lost={report.lost_records}"
        ),
    )
    if reset:
        _retire_snapshots(service, anchor_path)
    elif snapshot_every:
        write_snapshot(service)
    return service, report
