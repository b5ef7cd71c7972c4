"""Crash-fault injection harness for the durable scheduler service.

The harness runs one deterministic multi-tenant workload three ways —
uninterrupted (the baseline), through a sequence of seeded SIGKILLs with
recovery between them, and to completion after the last recovery — and
asserts the end states are *identical*: same
:func:`~repro.serve.replay.result_fingerprint`, same per-tenant ledger
settlements, byte for byte.  Crashes are real: each cycle runs the
workload in a subprocess (``python -m repro.serve chaos-worker``) that
``SIGKILL``\\ s itself at a planned point, either

* **between engine steps** (``kind="step"``) — the service dies with
  intents journaled but simulation progress unsaved, exercising
  snapshot + journal-suffix replay; or
* **mid-append** (``kind="append"``) — the journal record is torn after
  ``torn_bytes`` bytes before the kill, exercising torn-tail detection
  (a torn intent was never acknowledged, so losing it is correct).

The drive loop is *resumable by construction*: every action is keyed on
recovered state (job-handle membership for submits, ``handle.done()`` for
cancels, quota-override membership for quota changes), so re-driving the
same trace after recovery re-issues exactly the intents that did not
survive the crash — at the same virtual clocks, because the recovered
clock is pinned to the last applied intent.  Determinism closes the loop:
if recovery rebuilt the true state, the continuation cannot diverge.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..sched.scheduler import ClusterScheduler
from ..sched.traces import alibaba_trace, mixed_trace, synthetic_trace
from .admission import QuotaAdmission, TenantQuota
from .journal import list_segments
from .recovery import list_snapshots, recover_service
from .replay import result_fingerprint
from .service import SchedulerService, default_tenant

__all__ = [
    "ChaosReport",
    "CrashPlan",
    "CrashPoint",
    "default_spec",
    "run_crash_plan",
]

_GENERATORS = {
    "synthetic": synthetic_trace,
    "alibaba": alibaba_trace,
    "mixed": mixed_trace,
}


@dataclass(frozen=True)
class CrashPoint:
    """One planned kill: where in the run, and how dirty.

    ``kind="step"`` kills the process just before engine step ``at`` of
    that worker run; ``kind="append"`` kills it during journal append
    ``at``, leaving ``torn_bytes`` bytes of the record on disk (0 = a
    clean boundary, the crash landing between the append's write and its
    acknowledgement).
    """

    kind: str
    at: int
    torn_bytes: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("step", "append"):
            raise ValueError("CrashPoint.kind must be 'step' or 'append'")
        if self.at < 0 or self.torn_bytes < 0:
            raise ValueError("CrashPoint.at/torn_bytes must be >= 0")


@dataclass(frozen=True)
class CrashPlan:
    """A seeded sequence of crash points, applied one per kill/recover cycle."""

    points: tuple

    @classmethod
    def seeded(
        cls,
        seed: int,
        crashes: int,
        max_step: int = 600,
        max_append: int = 40,
        max_torn: int = 96,
    ) -> "CrashPlan":
        """Derive ``crashes`` pseudo-random crash points from ``seed``."""
        rng = random.Random(seed)
        points = []
        for _ in range(crashes):
            if rng.random() < 0.5:
                points.append(CrashPoint("step", rng.randrange(1, max_step)))
            else:
                points.append(
                    CrashPoint(
                        "append",
                        rng.randrange(0, max_append),
                        torn_bytes=rng.randrange(0, max_torn),
                    )
                )
        return cls(points=tuple(points))


@dataclass
class ChaosReport:
    """Outcome of one crash plan: parity verdict plus per-cycle recoveries."""

    baseline_fingerprint: str = ""
    final_fingerprint: str = ""
    tenants_match: bool = False
    #: Kill cycles that actually fired (SIGKILL observed).
    crashes: int = 0
    #: Planned points the run finished before reaching.
    unreached: int = 0
    #: RecoveryReport dicts, one per worker run that recovered.
    recoveries: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Recovered run ended byte-identical to the uninterrupted one."""
        return (
            bool(self.baseline_fingerprint)
            and self.final_fingerprint == self.baseline_fingerprint
            and self.tenants_match
        )


def default_spec(
    num_jobs: int = 120,
    num_gpus: int = 64,
    seed: int = 11,
    policy: str = "collocation",
    generator: str = "synthetic",
    fabric: str = "nvswitch",
) -> Dict[str, Any]:
    """The harness workload: a multi-tenant trace with cancels and a quota op.

    ``max_pending=4`` forces backpressure queueing (and end-of-run
    starvation rejections), every 5th job is cancelled right after
    submission, and one tenant's quota is raised mid-trace — so the journal
    carries all three intent kinds and the ledgers settle non-trivially.
    """
    return {
        "generator": generator,
        "num_jobs": num_jobs,
        "num_gpus": num_gpus,
        "seed": seed,
        "policy": policy,
        "fabric": fabric,
        "cancel_every": 5,
        "quota_at": num_jobs // 2,
        "max_pending": 4,
        "snapshot_every": 8,
        "snapshot_keep": 2,
        "segment_records": 16,
    }


def _trace_for(spec: Dict[str, Any]) -> List[Any]:
    trace = _GENERATORS[spec["generator"]](spec["num_jobs"], seed=spec["seed"])
    return sorted(trace, key=lambda job: job.arrival_time)


def _build_service(
    spec: Dict[str, Any],
    journal_dir: Optional[Path],
    recorder=None,
) -> SchedulerService:
    scheduler = ClusterScheduler(spec["num_gpus"], fabric=spec["fabric"])
    admission = QuotaAdmission(
        default=TenantQuota(max_pending=spec["max_pending"])
    )
    kwargs: Dict[str, Any] = {}
    if journal_dir is not None:
        kwargs = {
            "journal_dir": journal_dir,
            "snapshot_every": spec["snapshot_every"],
            "snapshot_keep": spec["snapshot_keep"],
        }
    service = SchedulerService(
        scheduler,
        policy=spec["policy"],
        admission=admission,
        recorder=recorder,
        **kwargs,
    )
    if journal_dir is not None and spec.get("segment_records"):
        # Small segments so rotation and compaction are exercised even by
        # short smoke runs.
        service.journal._segment_records = spec["segment_records"]
    return service


async def _drive(service: SchedulerService, spec: Dict[str, Any]) -> None:
    """Drive (or resume) the workload; every action is recovery-idempotent."""
    trace = _trace_for(spec)
    quota_at = spec["quota_at"]
    boost_tenant = default_tenant(trace[quota_at]) if trace else ""
    for index, job in enumerate(trace):
        if job.name not in service._jobs:
            await service.advance_to(job.arrival_time)
            await service.submit(job)
        if spec["cancel_every"] and index % spec["cancel_every"] == 2:
            # No-op when already cancelled pre-crash: the handle resolved.
            await service.cancel(job.name)
        if index == quota_at and boost_tenant not in service._quota_overrides:
            await service.set_quota(
                boost_tenant, TenantQuota(max_pending=512)
            )
    await service.drain()


def _final_state(service: SchedulerService) -> Dict[str, Any]:
    result = service.result(require_complete=False)
    return {
        "fingerprint": result_fingerprint(result),
        "tenants": service.cluster_state()["tenants"],
    }


def _arm_step_crash(service: SchedulerService, at: int) -> None:
    engine = service._engine
    original = engine.step
    count = 0

    def step():
        nonlocal count
        if count >= at:
            os.kill(os.getpid(), signal.SIGKILL)
        count += 1
        return original()

    engine.step = step  # shadows the bound method for this instance


def _arm_append_crash(
    service: SchedulerService, at: int, torn_bytes: int
) -> None:
    journal = service.journal
    if journal is None:
        raise ValueError("append crash requires a journal")
    original = journal._write_bytes
    count = 0

    def write(record: bytes) -> None:
        nonlocal count
        if count == at:
            # Tear the record: some prefix lands on disk, never the whole
            # line, then die before acknowledging.
            keep = min(torn_bytes, len(record) - 1)
            if keep > 0:
                os.write(journal._fd, record[:keep])
                os.fsync(journal._fd)
            os.kill(os.getpid(), signal.SIGKILL)
        count += 1
        original(record)

    journal._write_bytes = write


def run_chaos_worker(
    spec: Dict[str, Any],
    journal_dir: Optional[Union[str, Path]],
    crash: Optional[CrashPoint] = None,
    trace_out: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """One worker run: build or recover the service, arm the crash, drive.

    Returns the final state (never returns when the crash point fires —
    the process SIGKILLs itself).  ``journal_dir=None`` is the baseline
    mode: no durability, no crash, just the uninterrupted run.
    ``trace_out`` writes the run's obs stream — recovery and snapshot
    markers included — as a Chrome trace.
    """
    import asyncio

    from ..obs.trace import TraceRecorder

    recorder = TraceRecorder() if trace_out is not None else None
    recovery: Optional[Dict[str, Any]] = None
    if journal_dir is None:
        service = _build_service(spec, None, recorder)
    else:
        directory = Path(journal_dir)
        # The listing alone decides: recovery's one scan reads the segments.
        if list_segments(directory) or list_snapshots(directory):
            service, report = recover_service(
                lambda: _build_service(spec, None, recorder),
                directory,
                snapshot_every=spec["snapshot_every"],
                snapshot_keep=spec["snapshot_keep"],
            )
            service.journal._segment_records = spec["segment_records"]
            recovery = {
                "snapshot_seq": report.snapshot_seq,
                "replayed_records": report.replayed_records,
                "final_seq": report.final_seq,
                "torn_tail_bytes": report.torn_tail_bytes,
                "lost_records": report.lost_records,
                "lost_bytes": report.lost_bytes,
                "journal_reset": report.journal_reset,
                "corrupt_snapshots": len(report.corrupt_snapshots),
            }
        else:
            service = _build_service(spec, directory, recorder)
    if crash is not None:
        if crash.kind == "step":
            _arm_step_crash(service, crash.at)
        else:
            _arm_append_crash(service, crash.at, crash.torn_bytes)
    asyncio.run(_drive(service, spec))
    state = _final_state(service)
    state["recovery"] = recovery
    if recorder is not None and trace_out is not None:
        recorder.write_chrome_trace(Path(trace_out))
    return state


def _spawn_worker(
    spec: Dict[str, Any],
    journal_dir: Path,
    crash: Optional[CrashPoint],
    python: str,
    trace_out: Optional[Path] = None,
) -> subprocess.CompletedProcess:
    cmd = [
        python,
        "-m",
        "repro.serve",
        "chaos-worker",
        "--dir",
        str(journal_dir),
        "--spec",
        json.dumps(spec),
    ]
    if crash is not None:
        cmd += ["--crash-kind", crash.kind, "--crash-at", str(crash.at)]
        if crash.kind == "append":
            cmd += ["--torn-bytes", str(crash.torn_bytes)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_crash_plan(
    plan: CrashPlan,
    spec: Dict[str, Any],
    workdir: Union[str, Path],
    python: str = sys.executable,
    trace_out: Optional[Union[str, Path]] = None,
) -> ChaosReport:
    """Execute a crash plan end to end and report the parity verdict.

    Baseline first (in this process, no journal), then one subprocess per
    crash point — each must die by SIGKILL — then a final subprocess that
    recovers and completes.  A crash point the run finishes before reaching
    is counted ``unreached`` and ends the killing early (the run is already
    complete, so parity is checked directly).
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_dir = workdir / "wal"

    baseline = run_chaos_worker(spec, None)
    report = ChaosReport(baseline_fingerprint=baseline["fingerprint"])

    # Every worker gets the trace path; only the run that completes (crashed
    # ones never return from SIGKILL) actually writes it.
    trace_path = Path(trace_out) if trace_out is not None else None
    final: Optional[Dict[str, Any]] = None
    for point in plan.points:
        proc = _spawn_worker(spec, journal_dir, point, python, trace_out=trace_path)
        if proc.returncode == -signal.SIGKILL:
            report.crashes += 1
            continue
        if proc.returncode == 0:
            # The workload completed before the crash point fired.
            report.unreached += 1
            final = json.loads(proc.stdout.splitlines()[-1])
            break
        raise RuntimeError(
            f"chaos worker failed unexpectedly (rc={proc.returncode}):\n"
            f"{proc.stderr}"
        )
    if final is None:
        proc = _spawn_worker(spec, journal_dir, None, python, trace_out=trace_path)
        if proc.returncode != 0:
            raise RuntimeError(
                f"final recovery worker failed (rc={proc.returncode}):\n"
                f"{proc.stderr}"
            )
        final = json.loads(proc.stdout.splitlines()[-1])

    if final.get("recovery"):
        report.recoveries.append(final["recovery"])
    report.final_fingerprint = final["fingerprint"]
    # Plain sorted dumps (not canonical_json): tenant ledgers legitimately
    # hold infinite quotas, which round-trip as ``Infinity`` literals.
    report.tenants_match = json.dumps(
        final["tenants"], sort_keys=True
    ) == json.dumps(baseline["tenants"], sort_keys=True)
    return report
