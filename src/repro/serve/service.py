"""The online scheduler service: asyncio API over the shared engine.

:class:`SchedulerService` wraps one :class:`~repro.sched.scheduler.ClusterScheduler`
with a virtual-clock event loop and an in-process async API::

    service = SchedulerService(ClusterScheduler(64), policy="collocation")
    handle = await service.submit(job)          # admission decided here
    await service.advance_to(120.0)             # simulated time moves
    info = service.query(handle.name)
    await service.cancel(handle.name)
    await service.drain()                       # run to quiescence
    result = service.result()                   # same shape as offline run()

Everything that mutates the engine happens synchronously inside the calling
task — the event loop is *virtual* (simulated seconds, not wall-clock), so a
fixed submission log always produces the same event sequence, and a bridged
trace replay (:mod:`repro.serve.replay`) reproduces the offline
``ClusterScheduler.run`` metrics bit for bit.

One emission seam feeds everything: the service builds its engine with a
recorder-shaped :class:`_ServiceEmitter` as that run's recorder, so the
engine's existing `repro.obs` emission sites simultaneously drive (a) an
optional inner :class:`~repro.obs.trace.TraceRecorder`, (b) the async
``watch()`` streams, and (c) tenant accounting — the trace recorder and the
service stream can never disagree about what happened.  The recorder binds
to the service's engine only: the scheduler itself is left untouched, so
offline ``run()`` calls (or other services) on the same scheduler never
reach this service's streams or ledgers.
"""

from __future__ import annotations

import asyncio
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from collections import deque

from ..obs.metrics import global_registry
from ..obs.trace import (
    EV_CANCEL,
    EV_COLLOCATE,
    EV_COMPLETION,
    EV_DETACH,
    EV_KILL,
    EV_PLACEMENT,
    EV_PREEMPTION,
    EV_SUBMIT,
    ObsEvent,
    TraceRecorder,
)
from ..sched.engine import _CANCELLED, ScheduleResult, SchedulerEngine
from ..sched.failures import NodeFailure
from ..sched.policies import SchedulingPolicy
from ..sched.snapshot import EngineSnapshot, dump_trace_job, load_trace_job
from ..sched.traces import TraceJob
from .admission import (
    AcceptAll,
    AdmissionDecision,
    AdmissionPolicy,
    TenantAccount,
    TenantQuota,
)
from .journal import IntentJournal, JournalRecord
from .recovery import SnapshotEncoder

__all__ = ["SchedulerService", "JobHandle", "JobInfo", "default_tenant"]

_SUBMIT_TIMER = global_registry().timer("serve.submit")
_SUBMISSIONS = global_registry().counter("serve.submissions")
_WATCH_EVENTS = global_registry().counter("serve.watch.events")
_PREWARMED_PLANS = global_registry().counter("serve.prewarmed_plans")

#: Sentinel closing every watch() stream.
_WATCH_CLOSED = object()

# Service-level handle statuses (engine statuses pass through otherwise).
_ST_QUEUED = "queued"
_ST_REJECTED = "rejected"
_ST_CANCELLED = _CANCELLED


def default_tenant(job: TraceJob) -> str:
    """Tenant id of a job: the first dash-separated token of its name.

    The repo's trace generators prefix names by population (``fg-``/``bg-``,
    ``small-``/``large-``, ``syn-``/``ali-``), so the default carves a trace
    into the tenants those prefixes describe.  Pass ``tenant=`` at submit
    (or ``tenant_of=`` at construction) to override.
    """
    head, _, _ = job.name.partition("-")
    return head or "default"


@dataclass(frozen=True)
class JobInfo:
    """Point-in-time snapshot of one submission (returned by ``query``)."""

    name: str
    tenant: str
    status: str
    arrival_time: float
    iterations: int
    remaining_iterations: float
    width: int
    gpu_pool: str
    busy_gpu_seconds: float
    lost_gpu_seconds: float
    preemptions: int
    replans: int
    restarts: int
    estimate_gpu_seconds: float


class JobHandle:
    """Live view of one submission; resolves when the job leaves the system.

    A handle reads job state from the service's engine, not the service, so
    it holds no reference back to the service and keeps answering after
    the service is closed and dropped.
    """

    def __init__(
        self, engine: SchedulerEngine, job: TraceJob, tenant: str,
        estimate: float,
    ) -> None:
        self._engine = engine
        self.job = job
        self.tenant = tenant
        self.estimate_gpu_seconds = estimate
        #: Service-level status override; ``None`` delegates to the engine.
        self._service_status: Optional[str] = None
        self._finished = False
        self._event: Optional[asyncio.Event] = None

    @property
    def name(self) -> str:
        return self.job.name

    def status(self) -> str:
        """``queued``/``rejected`` (service) or the engine's job status."""
        if self._service_status is not None:
            return self._service_status
        state = self._engine.states.get(self.name)
        if state is None:  # accepted handles always have engine state
            return _ST_QUEUED
        return state.status

    def done(self) -> bool:
        """True once the job completed, was rejected, or was cancelled."""
        return self._finished

    async def wait(self) -> JobInfo:
        """Block until the job leaves the system; returns the final info.

        Simulated time does not move by itself — some task must be driving
        :meth:`SchedulerService.advance_to` / :meth:`~SchedulerService.drain`
        (the replay bridge, for instance) for this to resolve.
        """
        if not self._finished:
            if self._event is None:
                self._event = asyncio.Event()
            await self._event.wait()
        return self.info()

    def info(self) -> JobInfo:
        state = self._engine.states.get(self.name)
        if state is None:
            return JobInfo(
                name=self.name,
                tenant=self.tenant,
                status=self.status(),
                arrival_time=self.job.arrival_time,
                iterations=self.job.iterations,
                remaining_iterations=float(self.job.iterations),
                width=0,
                gpu_pool="",
                busy_gpu_seconds=0.0,
                lost_gpu_seconds=0.0,
                preemptions=0,
                replans=0,
                restarts=0,
                estimate_gpu_seconds=self.estimate_gpu_seconds,
            )
        return JobInfo(
            name=self.name,
            tenant=self.tenant,
            status=self.status(),
            arrival_time=state.arrival_time,
            iterations=state.trace.iterations,
            remaining_iterations=state.remaining,
            width=state.width,
            gpu_pool=state.gpu_type or "",
            busy_gpu_seconds=state.busy_gpu_seconds,
            lost_gpu_seconds=state.lost_gpu_seconds,
            preemptions=state.preemptions,
            replans=state.replans,
            restarts=state.restarts,
            estimate_gpu_seconds=self.estimate_gpu_seconds,
        )

    def _resolve(self) -> None:
        self._finished = True
        if self._event is not None:
            self._event.set()


class _ServiceEmitter:
    """Recorder-shaped fanout: one emission seam drives trace + service.

    Implements the :class:`~repro.obs.trace.TraceRecorder` surface the
    scheduler's emission sites call (``begin_run``/``emit``), forwards
    verbatim to the optional inner recorder, broadcasts to the service's
    ``watch()`` streams and does the service's tenant accounting.  Each
    event is paid for by its readers only: the frozen
    :class:`~repro.obs.trace.ObsEvent` is built when a ``watch()`` stream
    is open, and the accounting reads the emission's arguments directly.
    Watchers get each event before its accounting runs, so an emission
    the accounting triggers (a completion re-admitting a queued job)
    reaches them after it, in the inner recorder's order.  It is the
    engine's recorder, so it holds the service weakly: the service is then
    in no reference cycle and is freed as soon as the caller drops it.
    """

    def __init__(
        self, service: "SchedulerService", recorder: Optional[TraceRecorder]
    ) -> None:
        self._service = weakref.ref(service)
        self._recorder = recorder

    def begin_run(self, fleet, policy: str) -> None:
        if self._recorder is not None:
            self._recorder.begin_run(fleet, policy)

    def emit(
        self,
        time: float,
        kind: str,
        job: str = "",
        pool: str = "",
        host: int = -1,
        gpus: Sequence[int] = (),
        width: int = 0,
        free_gpus: int = -1,
        detail: str = "",
    ) -> None:
        if self._recorder is not None:
            self._recorder.emit(
                time, kind, job=job, pool=pool, host=host, gpus=gpus,
                width=width, free_gpus=free_gpus, detail=detail,
            )
        service = self._service()
        if service._watchers:
            service._broadcast(
                ObsEvent(
                    time=time, kind=kind, job=job, pool=pool, host=host,
                    gpus=tuple(gpus), width=width, free_gpus=free_gpus,
                    detail=detail,
                )
            )
        if job:
            service._on_event(time, kind, job, detail)


class SchedulerService:
    """Single-process asyncio scheduler service over one engine run.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.sched.scheduler.ClusterScheduler` to drive.  The
        service runs one engine on it and shares only its caches.
    policy:
        Scheduling policy (name or instance), as for ``run()``.
    admission:
        :class:`~repro.serve.admission.AdmissionPolicy`; defaults to
        :class:`~repro.serve.admission.AcceptAll` (the replay-parity mode).
    failures:
        Optional node-failure schedule, injected up front as in ``run()``.
    recorder:
        Optional :class:`~repro.obs.trace.TraceRecorder` receiving the full
        event stream (engine + service events) for export.
    tenant_of:
        Maps a job to its tenant id; defaults to :func:`default_tenant`.
    prewarm_on_admit:
        Plan every (pool, width) a job could use at admission time
        (:meth:`~repro.sched.scheduler.ClusterScheduler.prewarm_job`), so
        its placements never stall on a planner search mid-run.
    journal_dir:
        Directory for the write-ahead intent journal
        (:class:`~repro.serve.journal.IntentJournal`).  Every submit,
        cancel and quota change is persisted *before* it is applied, making
        the service crash-recoverable via
        :func:`~repro.serve.recovery.recover_service`.  The directory must
        not already hold durable state — recovery owns that path.
    snapshot_every:
        Write a durable service snapshot every N journaled intents (and
        compact the journal behind the oldest retained snapshot).  Requires
        ``journal_dir``.
    snapshot_keep:
        How many snapshot generations to retain (older ones bound the
        journal suffix a recovery may have to replay).
    journal_fsync:
        Fsync every journal append (default).  Disable only in tests that
        inject their own crash points.
    """

    def __init__(
        self,
        scheduler,
        policy: Union[str, SchedulingPolicy] = "collocation",
        admission: Optional[AdmissionPolicy] = None,
        failures: Sequence[NodeFailure] = (),
        recorder: Optional[TraceRecorder] = None,
        tenant_of: Optional[Callable[[TraceJob], str]] = None,
        prewarm_on_admit: bool = False,
        journal_dir: Optional[Union[str, Path]] = None,
        snapshot_every: Optional[int] = None,
        snapshot_keep: int = 2,
        journal_fsync: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.admission = admission if admission is not None else AcceptAll()
        self.prewarm_on_admit = prewarm_on_admit
        self._tenant_of = tenant_of if tenant_of is not None else default_tenant
        self._jobs: Dict[str, JobHandle] = {}
        self._accounts: Dict[str, TenantAccount] = {}
        self._backpressure: Dict[str, Deque[JobHandle]] = {}
        self._watchers: List[Tuple[asyncio.Queue, Optional[frozenset]]] = []
        self._closed = False
        self._replaying = False
        self._journal: Optional[IntentJournal] = None
        self._snapshot_every: Optional[int] = None
        self._snapshot_keep = snapshot_keep
        self._applied_seq = 0
        self._quota_overrides: Dict[str, TenantQuota] = {}
        #: Encoded bytes of the snapshot rows that can no longer change.
        self._snapshot_encoder = SnapshotEncoder()
        self._emitter = _ServiceEmitter(self, recorder)
        self._engine = SchedulerEngine(scheduler, policy, recorder=self._emitter)
        self._engine.add_failures(failures)
        if journal_dir is not None:
            from .recovery import list_snapshots

            journal = IntentJournal(journal_dir, fsync=journal_fsync)
            if journal.last_seq > 0 or list_snapshots(journal.directory):
                journal.close()
                raise RuntimeError(
                    f"durable state already exists under {journal_dir}; "
                    "open it with repro.serve.recovery.recover_service instead"
                )
            self._attach_journal(journal, snapshot_every, snapshot_keep)
        elif snapshot_every is not None:
            raise ValueError("snapshot_every requires journal_dir")

    # -------------------------------------------------------------- properties
    @property
    def clock(self) -> float:
        """Current virtual time in simulated seconds."""
        return self._engine.clock

    @property
    def policy(self) -> SchedulingPolicy:
        return self._engine.policy

    def account(self, tenant: str) -> TenantAccount:
        """The tenant's live account (created at first submission)."""
        acct = self._accounts.get(tenant)
        if acct is None:
            acct = TenantAccount(tenant, self.admission.quota_for(tenant))
            self._accounts[tenant] = acct
        return acct

    # ------------------------------------------------------------------ submit
    async def submit(
        self,
        job: TraceJob,
        tenant: Optional[str] = None,
        arrival_time: Optional[float] = None,
    ) -> JobHandle:
        """Submit one job; admission is decided before this returns.

        The job's queue position is ``max(job.arrival_time, clock)`` (or
        ``arrival_time`` if given) — submissions cannot time-travel behind
        the virtual clock.  Duplicate names are rejected with ``ValueError``
        (use :meth:`TraceJob.resubmitted` for cancel-then-resubmit flows).
        """
        with _SUBMIT_TIMER.time():
            return self._submit(job, tenant, arrival_time)

    def _submit(
        self,
        job: TraceJob,
        tenant: Optional[str],
        arrival_time: Optional[float],
    ) -> JobHandle:
        if self._closed:
            raise RuntimeError("service is closed")
        name = job.name
        if name in self._jobs:
            raise ValueError(
                f"duplicate job name {name!r}: already submitted to this "
                "service (cancelled jobs keep their name; resubmit with "
                "TraceJob.resubmitted)"
            )
        arrival = (
            arrival_time if arrival_time is not None
            else max(job.arrival_time, self._engine.clock)
        )
        if arrival < self._engine.clock:
            raise ValueError(
                f"job {name!r}: arrival_time {arrival} is behind the "
                f"virtual clock {self._engine.clock}"
            )
        tenant_id = tenant if tenant is not None else self._tenant_of(job)
        # Write-ahead: the intent is durable before any state mutates, so a
        # crash anywhere past this line replays it; a crash before (or mid-
        # append) loses only a submission that was never acknowledged.
        self._journal_op(
            {
                "op": "submit",
                "clock": self._engine.clock,
                "arrival": arrival,
                "tenant": tenant_id,
                "job": dump_trace_job(job),
            }
        )
        account = self.account(tenant_id)
        estimate = self._estimate(job)
        handle = JobHandle(self._engine, job, tenant_id, estimate)
        decision = self.admission.decide(account, job, estimate)
        self._jobs[name] = handle
        _SUBMISSIONS.add(1)
        account.counters["submitted"].add(1)
        if decision is AdmissionDecision.REJECT:
            handle._service_status = _ST_REJECTED
            account.counters["rejected"].add(1)
            handle._resolve()
            self._emitter.emit(
                arrival, EV_SUBMIT, job=name, detail=f"reject:{tenant_id}"
            )
        elif decision is AdmissionDecision.QUEUE:
            handle._service_status = _ST_QUEUED
            account.queued += 1
            account.counters["queued"].add(1)
            self._backpressure.setdefault(tenant_id, deque()).append(handle)
            self._emitter.emit(
                arrival, EV_SUBMIT, job=name, detail=f"queue:{tenant_id}"
            )
        else:
            self._admit(handle, arrival)
        self._maybe_snapshot()
        return handle

    def _estimate(self, job: TraceJob) -> float:
        """Admission-time GPU-second estimate: the policy work figure.

        ``iterations × iso_iter_time`` on the fleet's reference pool —
        exactly the ``remaining_gpu_seconds`` scheduling policies sort by,
        served from the scheduler's iso-time cache.
        """
        return job.iterations * self.scheduler._iso_iter_time(
            job.model, job.global_batch
        )

    def _admit(self, handle: JobHandle, arrival: float) -> None:
        """Commit the quota hold and hand the job to the engine."""
        account = self._accounts[handle.tenant]
        job = handle.job
        if job.arrival_time != arrival:
            # Re-stamp only when the time actually moved, so a bridged
            # replay submits the caller's TraceJob objects unmodified.
            job = job.with_arrival(arrival)
        account.admit(handle.estimate_gpu_seconds)
        account.engine_pending += 1
        account.counters["admitted"].add(1)
        handle._service_status = None  # engine owns the status now
        if self.prewarm_on_admit:
            _PREWARMED_PLANS.add(self.scheduler.prewarm_job(job))
        self._engine.add_job(job)
        self._emitter.emit(
            arrival, EV_SUBMIT, job=job.name, detail=f"accept:{handle.tenant}"
        )

    # ------------------------------------------------------------------ cancel
    async def cancel(self, job_id: str) -> bool:
        """Cancel one submission at the current virtual time.

        Queued jobs leave the backpressure queue with a full refund (no
        hold was taken).  Engine jobs settle their quota hold against
        actual consumption (``busy + lost`` GPU-seconds — zero for a job
        cancelled while pending that never ran, matching the offline
        ``lost_gpu_seconds`` semantics).  Returns ``False`` when the job
        already left the system.
        """
        handle = self._jobs[job_id]
        if handle._finished:
            return False
        self._journal_op(
            {"op": "cancel", "clock": self._engine.clock, "job": job_id}
        )
        ok = self._cancel_sync(job_id)
        self._maybe_snapshot()
        return ok

    def _cancel_sync(self, job_id: str) -> bool:
        handle = self._jobs[job_id]
        account = self._accounts[handle.tenant]
        now = self._engine.clock
        if handle._service_status == _ST_QUEUED:
            self._backpressure[handle.tenant].remove(handle)
            account.queued -= 1
            handle._service_status = _ST_CANCELLED
            account.counters["cancelled"].add(1)
            handle._resolve()
            self._emitter.emit(
                now, EV_CANCEL, job=job_id, detail=f"queued:{handle.tenant}"
            )
            return True
        if handle._service_status == _ST_REJECTED:
            return False
        state = self._engine.states[job_id]
        if not self._engine.cancel(job_id, now):
            return False
        account.settle(
            handle.estimate_gpu_seconds,
            state.busy_gpu_seconds + state.lost_gpu_seconds,
        )
        account.counters["cancelled"].add(1)
        handle._resolve()
        self._pump(now)
        return True

    # ------------------------------------------------------------------ quotas
    async def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Replace one tenant's quota at the current virtual time.

        The change is journaled like any other intent, pushed into the
        admission policy (when it supports per-tenant quotas, e.g.
        :meth:`~repro.serve.admission.QuotaAdmission.set_quota`) and onto
        the tenant's live account, then the backpressure queues are pumped
        — a raised quota can admit parked submissions immediately.
        """
        self._journal_op(
            {
                "op": "set_quota",
                "clock": self._engine.clock,
                "tenant": tenant,
                **quota.dump(),
            }
        )
        self._set_quota_sync(tenant, quota)
        self._maybe_snapshot()

    def _set_quota_sync(self, tenant: str, quota: TenantQuota) -> None:
        self._quota_overrides[tenant] = quota
        setter = getattr(self.admission, "set_quota", None)
        if setter is not None:
            setter(tenant, quota)
        account = self._accounts.get(tenant)
        if account is not None:
            account.quota = quota
        self._pump(self._engine.clock)

    # -------------------------------------------------------------- durability
    @property
    def journal(self) -> Optional[IntentJournal]:
        """The attached write-ahead journal (``None`` when not durable)."""
        return self._journal

    def _attach_journal(
        self,
        journal: IntentJournal,
        snapshot_every: Optional[int],
        snapshot_keep: int,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if snapshot_keep < 1:
            raise ValueError("snapshot_keep must be >= 1")
        self._journal = journal
        self._snapshot_every = snapshot_every
        self._snapshot_keep = snapshot_keep
        self._applied_seq = journal.last_seq

    def _journal_op(self, intent: Dict[str, Any]) -> None:
        """Write-ahead: persist the intent before the caller applies it."""
        if self._journal is None or self._replaying:
            return
        self._applied_seq = self._journal.append(intent)

    def _maybe_snapshot(self) -> None:
        if (
            self._journal is None
            or self._replaying
            or not self._snapshot_every
            or self._applied_seq == 0
            or self._applied_seq % self._snapshot_every != 0
        ):
            return
        from .recovery import write_snapshot

        write_snapshot(self)

    def apply_intent(self, record: JournalRecord) -> None:
        """Re-apply one journaled intent during recovery.

        The engine is first advanced to the virtual clock the intent was
        originally applied at — every event before it replays through the
        same emission and accounting seams it used live — then the intent
        itself runs with journaling suppressed (its record already exists).
        """
        intent = record.intent
        self._replaying = True
        try:
            self._engine.advance_to(intent["clock"])
            op = intent["op"]
            if op == "submit":
                self._submit(
                    load_trace_job(intent["job"]),
                    intent["tenant"],
                    intent["arrival"],
                )
            elif op == "cancel":
                handle = self._jobs.get(intent["job"])
                if handle is not None and not handle._finished:
                    self._cancel_sync(intent["job"])
            elif op == "set_quota":
                self._set_quota_sync(intent["tenant"], TenantQuota.load(intent))
            else:
                raise ValueError(f"unknown journal op {op!r}")
        finally:
            self._replaying = False
        self._applied_seq = record.seq

    def durable_state(
        self, *, encoder: Optional[SnapshotEncoder] = None
    ) -> Dict[str, Any]:
        """Everything recovery needs, as one canonical-JSON-able payload.

        Captures the engine (via
        :class:`~repro.sched.snapshot.EngineSnapshot`), every tenant
        ledger, every job handle, the backpressure queues and the quota
        overrides, anchored to the journal sequence it reflects
        (``journal_seq``) so recovery knows exactly which suffix to replay.

        ``encoder`` is the snapshot writer's: the service's own
        :class:`~repro.serve.recovery.SnapshotEncoder`.  Every row whose
        canonical bytes it already holds (a finished job, a ``done`` or
        ``cancelled`` engine job, a completion record) is then put in the
        payload as those ``bytes`` and never built as a dict.  Without it,
        as every other caller uses it, the payload is all plain values.
        """
        if encoder is None:
            encoded: Dict[str, bytes] = {}
            engine = EngineSnapshot.capture(self._engine)
        else:
            encoded = encoder.service_jobs
            engine = EngineSnapshot.capture(
                self._engine, encoder.engine_jobs, encoder.records
            )
        jobs = [
            encoded.get(name) or {
                "job": dump_trace_job(handle.job),
                "tenant": handle.tenant,
                "estimate": handle.estimate_gpu_seconds,
                "service_status": handle._service_status,
                "finished": handle._finished,
            }
            for name, handle in self._jobs.items()
        ]
        return {
            "journal_seq": self._applied_seq,
            "clock": self._engine.clock,
            "engine": engine.payload,
            "tenants": [
                self._accounts[name].dump() for name in sorted(self._accounts)
            ],
            "jobs": jobs,
            "backpressure": {
                tenant: [handle.name for handle in queue]
                for tenant, queue in sorted(self._backpressure.items())
                if queue
            },
            "quota_overrides": {
                tenant: quota.dump()
                for tenant, quota in sorted(self._quota_overrides.items())
            },
        }

    def restore_durable_state(self, payload: Dict[str, Any]) -> None:
        """Load a :meth:`durable_state` payload into this fresh service."""
        if self._jobs or self._engine.states or self._engine.queue.popped:
            raise ValueError(
                "durable state must be restored into a fresh service"
            )
        self._engine.restore(EngineSnapshot(payload["engine"]))
        for tenant, row in payload["quota_overrides"].items():
            quota = TenantQuota.load(row)
            self._quota_overrides[tenant] = quota
            setter = getattr(self.admission, "set_quota", None)
            if setter is not None:
                setter(tenant, quota)
        for row in payload["tenants"]:
            self._accounts[row["name"]] = TenantAccount.load(row)
        for row in payload["jobs"]:
            job = load_trace_job(row["job"])
            handle = JobHandle(self._engine, job, row["tenant"], row["estimate"])
            handle._service_status = row["service_status"]
            handle._finished = row["finished"]
            self._jobs[job.name] = handle
        for tenant, names in payload["backpressure"].items():
            self._backpressure[tenant] = deque(
                self._jobs[name] for name in names
            )
        self._applied_seq = payload["journal_seq"]

    # ----------------------------------------------------------------- queries
    def query(self, job_id: str) -> JobInfo:
        """Snapshot of one submission (raises ``KeyError`` for unknown ids)."""
        return self._jobs[job_id].info()

    def cluster_state(self) -> Dict[str, object]:
        """Cluster gauges plus per-tenant ledgers at the current clock."""
        engine = self._engine
        gauges = engine.gauges()
        gauges["queued_jobs"] = sum(
            len(dq) for dq in self._backpressure.values()
        )
        return {
            "time": engine.clock,
            "gauges": gauges,
            "tenants": {
                name: self._accounts[name].snapshot()
                for name in sorted(self._accounts)
            },
        }

    def result(self, require_complete: bool = True) -> ScheduleResult:
        """The run folded to a :class:`ScheduleResult` (as offline ``run``)."""
        return self._engine.result(require_complete=require_complete)

    # ------------------------------------------------------------------- watch
    def watch(
        self, kinds: Optional[Iterable[str]] = None
    ) -> AsyncIterator[ObsEvent]:
        """Async iterator over the service's event stream.

        Yields every :class:`~repro.obs.trace.ObsEvent` the engine and the
        service emit from subscription on (optionally filtered to ``kinds``)
        until :meth:`close`.  Events are delivered in emission order; the
        stream is fed synchronously at emission time, so a consumer task
        interleaved with ``advance_to`` sees a consistent prefix.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        queue: asyncio.Queue = asyncio.Queue()
        entry = (queue, frozenset(kinds) if kinds is not None else None)
        self._watchers.append(entry)

        async def _stream() -> AsyncIterator[ObsEvent]:
            try:
                while True:
                    event = await queue.get()
                    if event is _WATCH_CLOSED:
                        break
                    yield event
            finally:
                try:
                    self._watchers.remove(entry)
                except ValueError:
                    pass

        return _stream()

    def _broadcast(self, event: ObsEvent) -> None:
        """Hand one event to every ``watch()`` stream subscribed to its kind."""
        kind = event.kind
        for queue, kinds in self._watchers:
            if kinds is None or kind in kinds:
                queue.put_nowait(event)
                _WATCH_EVENTS.add(1)

    def _on_event(self, time: float, kind: str, job: str, detail: str) -> None:
        """Tenant accounting for one emission that names a job."""
        handle = self._jobs.get(job)
        if handle is None:
            return
        account = self._accounts[handle.tenant]
        if kind in (EV_PLACEMENT, EV_COLLOCATE):
            account.engine_pending -= 1
        elif kind in (EV_PREEMPTION, EV_DETACH, EV_KILL):
            account.engine_pending += 1
        elif kind == EV_CANCEL and detail == "pending":
            account.engine_pending -= 1
        elif kind == EV_COMPLETION:
            self._on_completion(handle, account, time)

    def _on_completion(
        self, handle: JobHandle, account: TenantAccount, time: float
    ) -> None:
        state = self._engine.states[handle.name]
        account.settle(
            handle.estimate_gpu_seconds,
            state.busy_gpu_seconds + state.lost_gpu_seconds,
        )
        account.counters["completed"].add(1)
        handle._resolve()
        # Freed quota may unblock backpressured submissions; re-admission
        # happens at the completion's simulated time, deterministically.
        self._pump(time)

    # ------------------------------------------------------------ backpressure
    def _pump(self, now: float) -> None:
        """Admit queued submissions that now fit, FIFO per tenant.

        Tenants are visited in sorted-name order and each tenant's queue is
        strictly head-blocking (a blocked head shields later jobs — that is
        the backpressure ordering guarantee), so re-admission order is a
        pure function of the event history.
        """
        for tenant in sorted(self._backpressure):
            queue = self._backpressure[tenant]
            account = self._accounts[tenant]
            while queue:
                handle = queue[0]
                decision = self.admission.decide(
                    account, handle.job, handle.estimate_gpu_seconds
                )
                if decision is AdmissionDecision.ACCEPT:
                    queue.popleft()
                    account.queued -= 1
                    self._admit(handle, max(handle.job.arrival_time, now))
                elif decision is AdmissionDecision.REJECT:
                    queue.popleft()
                    account.queued -= 1
                    handle._service_status = _ST_REJECTED
                    account.counters["rejected"].add(1)
                    handle._resolve()
                    self._emitter.emit(
                        now, EV_SUBMIT, job=handle.name,
                        detail=f"reject:{tenant}",
                    )
                else:
                    break

    # -------------------------------------------------------------------- time
    @staticmethod
    async def _paced(steps: Iterator, yield_every: int) -> int:
        """Exhaust an engine step iterator, yielding every ``yield_every`` steps."""
        count = 0
        for count, _ in enumerate(steps, 1):
            if yield_every and count % yield_every == 0:
                await asyncio.sleep(0)
        return count

    async def advance_to(self, time: float, yield_every: int = 256) -> int:
        """Process every event strictly before ``time``; returns the count.

        Yields to the event loop every ``yield_every`` engine steps so
        ``watch()`` consumers and ``wait()``-ers interleave with a long
        advance.
        """
        steps = await self._paced(self._engine.iter_steps(time), yield_every)
        if steps:
            await asyncio.sleep(0)
        return steps

    async def drain(self, yield_every: int = 256) -> int:
        """Run the engine to quiescence; returns the number of steps.

        Backpressured submissions that still cannot be admitted when the
        cluster has gone idle (their tenant's quota is permanently
        exhausted) are resolved as rejected — a drained service leaves no
        submission unresolved.
        """
        steps = await self._paced(self._drain_steps(), yield_every)
        self._starve_queued(self._engine.clock)
        await asyncio.sleep(0)
        return steps

    def _drain_steps(self) -> Iterator:
        engine = self._engine
        while True:
            yield from engine.iter_steps()
            # Completions pump the queues as they happen; one more pump at
            # quiescence catches holds released by trailing cancellations.
            self._pump(engine.clock)
            if not engine.queue:
                return

    def _starve_queued(self, now: float) -> None:
        for tenant in sorted(self._backpressure):
            queue = self._backpressure[tenant]
            account = self._accounts[tenant]
            while queue:
                handle = queue.popleft()
                account.queued -= 1
                handle._service_status = _ST_REJECTED
                account.counters["rejected"].add(1)
                handle._resolve()
                self._emitter.emit(
                    now, EV_SUBMIT, job=handle.name,
                    detail=f"starved:{tenant}",
                )

    async def close(self) -> None:
        """Close every ``watch()`` stream and refuse further submissions."""
        self._closed = True
        if self._journal is not None:
            self._journal.close()
        for queue, _ in self._watchers:
            queue.put_nowait(_WATCH_CLOSED)
        await asyncio.sleep(0)
