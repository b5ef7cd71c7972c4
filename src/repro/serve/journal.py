"""Write-ahead journal of service intents (submit / cancel / quota changes).

The online :class:`~repro.serve.service.SchedulerService` is deterministic:
its entire state is a pure function of the *intent sequence* it was fed
(each submit/cancel/set-quota, stamped with the virtual clock it was applied
at).  That makes crash safety a logging problem — persist every intent
*before* applying it, and recovery is "replay the intents".  This module is
that log:

* **Record framing** — one ASCII line per record:
  ``J1 <seq> <length> <crc32> <canonical-json>\\n``.  The payload is
  canonical JSON (no embedded newlines), the CRC covers ``seq`` plus the
  payload, and the declared length must match — so truncation, bit flips
  and splices are all detected before a single intent is replayed.
* **Atomic appends** — each record is a single ``os.write`` of the full
  line, fsync'd by default.  A crash mid-append leaves a *torn tail*: a
  final line without its terminator (payload bytes cannot contain ``\\n``).
  A torn record was never acknowledged to the caller — the write-ahead
  discipline appends before applying — so scanning truncates it silently
  and safely.
* **Segment rotation** — the journal is a directory of
  ``wal-<first_seq>.log`` segments, rotated every ``segment_records``
  appends, so compaction can drop whole files.  With fsync on, the
  directory is fsynced after a segment is created, so its name is as
  durable as the records it will hold.
* **Snapshot-anchored compaction** — :meth:`IntentJournal.compact` deletes
  segments wholly covered by a persisted snapshot's ``journal_seq``
  (see :mod:`repro.serve.recovery`); replay after recovery only walks the
  suffix.

Corruption *before* the tail (a flipped bit mid-segment, a missing segment)
is different from a torn tail: the records after it may be intact but can
no longer be applied — replaying across a sequence gap would diverge from
the acknowledged history.  :func:`scan_journal` therefore stops at the
first invalid record and **quantifies** everything after it
(``lost_records`` / ``lost_bytes``) instead of silently accepting a
corrupted prefix; :mod:`repro.serve.recovery` surfaces those numbers in its
:class:`~repro.serve.recovery.RecoveryReport`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..cache.fingerprint import canonical_json

__all__ = [
    "IntentJournal",
    "JournalRecord",
    "JournalScan",
    "fsync_directory",
    "scan_journal",
]

_MAGIC = "J1"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


@dataclass(frozen=True)
class JournalRecord:
    """One durable intent: its sequence number and payload."""

    seq: int
    intent: Dict[str, Any]


@dataclass
class JournalScan:
    """Outcome of reading a journal directory back.

    ``records`` is the replayable run (contiguous sequence numbers), or
    only its part past ``after_seq`` when :func:`scan_journal` was given
    one.  ``last_seq`` names the last valid record either way, kept or
    not.  ``torn_tail_bytes`` counts bytes of an unterminated final record
    — an append the crash interrupted before acknowledgement, dropped
    safely.  ``lost_records``/``lost_bytes`` quantify *acknowledged*
    intents that can no longer be replayed (mid-stream corruption or a
    sequence gap); any non-zero value here is reportable data loss, never
    silent.
    """

    records: List[JournalRecord] = field(default_factory=list)
    segments: List[Path] = field(default_factory=list)
    torn_tail_bytes: int = 0
    lost_records: int = 0
    lost_bytes: int = 0
    #: First error encountered (empty when the journal read back clean).
    error: str = ""
    #: Sequence number of the last replayable record (0 when none).
    last_seq: int = 0


def _encode(seq: int, intent: Dict[str, Any]) -> bytes:
    body = canonical_json(intent)
    if "\n" in body:  # canonical JSON never contains newlines; belt & braces
        raise ValueError("journal intents must serialize without newlines")
    payload = body.encode("utf-8")
    crc = zlib.crc32(f"{seq}:".encode("ascii") + payload) & 0xFFFFFFFF
    head = f"{_MAGIC} {seq} {len(payload)} {crc:08x} ".encode("ascii")
    return head + payload + b"\n"


def _decode(line: bytes) -> Optional[JournalRecord]:
    """Parse one terminated line; ``None`` when framing or CRC fails."""
    try:
        head, _, payload = line.rstrip(b"\n").partition(b" {")
        if not payload:
            return None
        payload = b"{" + payload
        magic, seq_s, len_s, crc_s = head.decode("ascii").split(" ")
        if magic != _MAGIC:
            return None
        seq = int(seq_s)
        if int(len_s) != len(payload):
            return None
        crc = zlib.crc32(f"{seq}:".encode("ascii") + payload) & 0xFFFFFFFF
        if crc != int(crc_s, 16):
            return None
        intent = json.loads(payload.decode("utf-8"))
        if not isinstance(intent, dict):
            return None
        return JournalRecord(seq=seq, intent=intent)
    except (ValueError, UnicodeDecodeError):
        return None


def _segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


def _list_segments(directory: Path) -> List[Path]:
    if not directory.is_dir():
        return []
    out = [
        path
        for path in directory.iterdir()
        if path.name.startswith(_SEGMENT_PREFIX)
        and path.name.endswith(_SEGMENT_SUFFIX)
    ]
    return sorted(out)


def fsync_directory(directory: Path) -> None:
    """Persist the entries of ``directory`` (files created or renamed in it).

    ``fsync`` on a file makes its data durable, not the directory entry
    that names it: after a power cut a freshly created file can vanish
    even though its contents were synced.
    """
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def scan_journal(
    directory: Union[str, Path], *, after_seq: int = 0
) -> JournalScan:
    """Read every segment back, validating framing, CRCs and seq continuity.

    The replayable run starts at the first decodable record's sequence
    number (compaction legitimately drops the journal's head) and ends at
    the first invalid record or discontinuity; a torn final record of the
    *last* segment is dropped as unacknowledged, anything else unreadable
    is counted as loss.

    Each segment is read once, and every record is decoded and checked
    whatever ``after_seq`` is, so the loss figures, ``error`` and
    ``last_seq`` do not depend on it.  Only records with ``seq >
    after_seq`` are kept: recovery passes its snapshot's anchor and holds
    just the suffix it replays.
    """
    directory = Path(directory)
    scan = JournalScan(segments=_list_segments(directory))
    expected: Optional[int] = None
    broken = False
    for index, segment in enumerate(scan.segments):
        data = segment.read_bytes()
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                tail = len(data) - offset
                if index == len(scan.segments) - 1 and not broken:
                    # Unterminated final record: a crash mid-append.  The
                    # write-ahead discipline means it was never applied nor
                    # acknowledged — dropping it is lossless.
                    scan.torn_tail_bytes = tail
                else:
                    scan.lost_bytes += tail
                    if not scan.error:
                        scan.error = f"unterminated record inside {segment.name}"
                    broken = True
                break
            line = data[offset : newline + 1]
            offset = newline + 1
            if broken:
                # Past the first corruption every record is unreachable —
                # replaying across the gap would diverge from the
                # acknowledged history.  Count, don't apply.
                scan.lost_bytes += len(line)
                if _decode(line) is not None:
                    scan.lost_records += 1
                continue
            record = _decode(line)
            if record is None:
                broken = True
                scan.lost_bytes += len(line)
                if not scan.error:
                    scan.error = f"corrupt record in {segment.name}"
                continue
            if expected is None and record.seq >= 1:
                # The journal's head may have been compacted away; the run
                # starts wherever the first surviving record says it does.
                expected = record.seq
            if record.seq != expected:
                broken = True
                scan.lost_bytes += len(line)
                scan.lost_records += 1
                if not scan.error:
                    scan.error = (
                        f"sequence gap in {segment.name}: expected "
                        f"{expected}, found {record.seq}"
                    )
                continue
            if record.seq > after_seq:
                scan.records.append(record)
            scan.last_seq = record.seq
            expected += 1
    return scan


class IntentJournal:
    """Append-only intent log over a directory of rotated segments.

    Opening an existing directory resumes numbering after the last valid
    record and truncates a torn tail in place, so a recovered service keeps
    journaling into the same directory.  ``fsync=False`` trades durability
    for speed in tests that kill processes anyway (the torn-write chaos
    harness injects its own partial writes deterministically).

    ``scan`` lets recovery open the journal from the :func:`scan_journal`
    it already made of ``directory``, so the segments are not read and
    decoded a second time.  It must describe the directory as it is now.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_records: int = 4096,
        fsync: bool = True,
        first_seq: int = 1,
        *,
        scan: Optional[JournalScan] = None,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        if first_seq < 1:
            raise ValueError("first_seq must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_records = segment_records
        self._fsync = fsync
        self._fd: Optional[int] = None
        if scan is None:
            scan = scan_journal(self.directory)
        if scan.error:
            raise ValueError(
                f"journal at {self.directory} is corrupt ({scan.error}); "
                "recover it explicitly before appending"
            )
        # ``first_seq`` floors the numbering of an *empty* directory, so a
        # recovery that had to discard a corrupt journal can keep counting
        # from the last applied intent instead of restarting at 1.
        self._next_seq = max(scan.last_seq + 1, first_seq)
        self._segment_count = 0
        if scan.segments:
            last = scan.segments[-1]
            if scan.torn_tail_bytes:
                os.truncate(last, last.stat().st_size - scan.torn_tail_bytes)
            # Count the records already in the newest segment so rotation
            # keeps its bound across restarts.
            first_of_last = int(
                last.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            )
            self._segment_count = self._next_seq - first_of_last
            self._open_segment(last)

    # ------------------------------------------------------------------ state
    @property
    def next_seq(self) -> int:
        """Sequence number the next append will carry."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the last durable record (0 when empty)."""
        return self._next_seq - 1

    @property
    def fsync(self) -> bool:
        """Whether each append and each new directory entry is fsynced."""
        return self._fsync

    def _open_segment(self, path: Path) -> None:
        self._close_fd()
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def _close_fd(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # ----------------------------------------------------------------- append
    def append(self, intent: Dict[str, Any]) -> int:
        """Durably append one intent; returns its sequence number.

        The full record goes down in a single ``os.write`` (followed by an
        ``fsync`` unless disabled), *before* the caller applies the intent —
        the write-ahead ordering every recovery guarantee rests on.
        """
        if self._fd is None or self._segment_count >= self._segment_records:
            self._open_segment(_segment_path(self.directory, self._next_seq))
            if self._fsync:
                # The new segment's name must be durable before any record
                # in it is acknowledged.
                fsync_directory(self.directory)
            self._segment_count = 0
        seq = self._next_seq
        record = _encode(seq, intent)
        self._write_bytes(record)
        self._next_seq += 1
        self._segment_count += 1
        return seq

    def _write_bytes(self, record: bytes) -> None:
        """Single seam for record IO — the torn-write chaos hook overrides it."""
        assert self._fd is not None
        os.write(self._fd, record)
        if self._fsync:
            os.fsync(self._fd)

    # ------------------------------------------------------------- compaction
    def compact(self, upto_seq: int) -> List[Path]:
        """Delete segments wholly covered by records ``<= upto_seq``.

        A segment is removable only when a *newer* segment exists (so the
        journal never loses its numbering anchor) and every record it holds
        is at or below ``upto_seq`` — the sequence a durable snapshot
        already captures.  Returns the deleted paths.
        """
        segments = _list_segments(self.directory)
        removed: List[Path] = []
        for current, following in zip(segments, segments[1:]):
            last_in_current = (
                int(following.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]) - 1
            )
            if last_in_current <= upto_seq:
                current.unlink()
                removed.append(current)
            else:
                break
        return removed

    def close(self) -> None:
        self._close_fd()

    def __enter__(self) -> "IntentJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
