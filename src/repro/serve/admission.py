"""Multi-tenant admission control for the online scheduler service.

Every submission is priced *before* it reaches the engine: the service
estimates the job's single-GPU compute (``iterations × iso_iter_time`` on
the fleet's reference pool — exactly the ``remaining_gpu_seconds`` figure
scheduling policies sort by) and asks the :class:`AdmissionPolicy` to
accept, queue, or reject it against the tenant's :class:`TenantAccount`.

Accounting follows a commit/settle discipline:

* **admit** — the estimate is *committed* against the tenant's GPU-second
  quota (held, not yet spent);
* **settle** — at completion or cancellation the hold is released and the
  job's *actual* consumption is charged: ``busy_gpu_seconds +
  lost_gpu_seconds``, the same accounting the offline scheduler reports in
  its :class:`~repro.sched.metrics.JobRecord`.  A job cancelled while still
  pending consumed nothing, so settling it refunds the full hold.

Actual consumption can exceed the estimate (collocation slowdowns and
failure rollbacks are not foreseen at admit time); quotas bound *intent* at
admission and charge *truth* at settlement.  Every settle pairs exactly one
admit, so committed holds can never go negative — a property the test suite
checks under arbitrary submit/cancel interleavings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Mapping, Optional

from ..obs.metrics import global_registry
from ..sched.snapshot import dec_float, enc_float
from ..sched.traces import TraceJob

__all__ = [
    "AdmissionDecision",
    "TenantQuota",
    "TenantAccount",
    "AdmissionPolicy",
    "AcceptAll",
    "QuotaAdmission",
]


class AdmissionDecision(str, Enum):
    """What the service does with one submission."""

    ACCEPT = "accept"
    QUEUE = "queue"
    REJECT = "reject"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource bounds.

    Attributes
    ----------
    gpu_seconds:
        Total GPU-second budget (committed holds + settled charges may
        never exceed it).  Defaults to unlimited.
    max_pending:
        Cap on the tenant's not-yet-running submissions (engine-pending
        plus service-queued).  ``None`` means uncapped.
    """

    gpu_seconds: float = math.inf
    max_pending: Optional[int] = None

    def __post_init__(self) -> None:
        if self.gpu_seconds <= 0:
            raise ValueError("gpu_seconds quota must be positive")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")

    def dump(self) -> Dict[str, Any]:
        """The quota as a canonical-JSON row (journal intents, snapshots)."""
        return {
            "gpu_seconds": enc_float(self.gpu_seconds),
            "max_pending": self.max_pending,
        }

    @classmethod
    def load(cls, row: Mapping[str, Any]) -> "TenantQuota":
        """Inverse of :meth:`dump`; other keys of ``row`` are ignored."""
        return cls(
            gpu_seconds=dec_float(row["gpu_seconds"]),
            max_pending=row["max_pending"],
        )


class TenantAccount:
    """Live accounting for one tenant (created lazily at first submission).

    ``committed``/``used`` are the GPU-second ledger described in the module
    docstring; the job counters double as :mod:`repro.obs` registry counters
    (``serve.tenant.<name>.*``) so service runs show up in the same metrics
    snapshots as everything else.  A snapshot row (:meth:`dump` /
    :meth:`load`) carries the quota, the :attr:`LEDGER` fields and the
    :attr:`COUNTERS`, each named once here.
    """

    #: Ledger fields a snapshot row carries as they are.
    LEDGER = ("committed", "used", "engine_pending", "queued")
    #: Job counters, ``serve.tenant.<name>.<counter>`` in the registry.
    COUNTERS = ("submitted", "admitted", "queued", "rejected", "completed", "cancelled")

    def __init__(self, name: str, quota: TenantQuota) -> None:
        self.name = name
        self.quota = quota
        #: GPU-second holds for admitted-but-unsettled jobs.
        self.committed = 0.0
        #: GPU-seconds actually consumed by settled jobs.
        self.used = 0.0
        #: Jobs admitted to the engine but not yet placed.
        self.engine_pending = 0
        #: Jobs held in the service's backpressure queue.
        self.queued = 0
        registry = global_registry()
        # Scoped (per-account) counters rolling up into the registered
        # ``serve.tenant.<name>.*`` aggregates: a recovered service restores
        # its own ledger exactly without re-counting another instance's
        # traffic, while process-wide totals still accumulate.
        self.counters = {
            counter: registry.scoped_counter(f"serve.tenant.{name}.{counter}")
            for counter in self.COUNTERS
        }

    @property
    def available(self) -> float:
        """GPU-seconds the tenant can still commit."""
        return self.quota.gpu_seconds - self.used - self.committed

    @property
    def pending_total(self) -> int:
        """Submissions not yet running (engine-pending + service-queued)."""
        return self.engine_pending + self.queued

    def admit(self, estimate: float) -> None:
        """Hold ``estimate`` GPU-seconds against the quota."""
        self.committed += estimate

    def settle(self, estimate: float, charge: float) -> None:
        """Release one admit's hold and charge actual consumption.

        The hold is subtracted exactly as it was added; a sub-epsilon
        float residue from summation order is clamped so ``committed``
        is zero whenever no holds are outstanding.
        """
        self.committed -= estimate
        if self.committed < 0.0:
            self.committed = 0.0
        self.used += charge

    def snapshot(self) -> Dict[str, float]:
        """One tenant's ledger as a plain dict (for ``cluster_state()``).

        ``queued`` is the live backpressure count, not the counter.
        """
        row = {
            "quota_gpu_seconds": self.quota.gpu_seconds,
            "committed_gpu_seconds": self.committed,
            "used_gpu_seconds": self.used,
            "available_gpu_seconds": self.available,
            "engine_pending": self.engine_pending,
            "queued": self.queued,
        }
        for name, counter in self.counters.items():
            row.setdefault(name, counter.value)
        return row

    def dump(self) -> Dict[str, Any]:
        """The account as a canonical-JSON snapshot row."""
        row = {field: getattr(self, field) for field in self.LEDGER}
        row["name"] = self.name
        row["quota"] = self.quota.dump()
        row["counters"] = {
            name: counter.value for name, counter in self.counters.items()
        }
        return row

    @classmethod
    def load(cls, row: Mapping[str, Any]) -> "TenantAccount":
        """Inverse of :meth:`dump` (crash recovery only).

        Counters are scoped to this account, so setting them exactly cannot
        perturb another service instance; the parent aggregates absorb the
        restored totals as ordinary increments.
        """
        account = cls(row["name"], TenantQuota.load(row["quota"]))
        for field in cls.LEDGER:
            setattr(account, field, row[field])
        counts = row["counters"]
        for name, counter in account.counters.items():
            counter.add(counts[name] - counter.value)
        return account


class AdmissionPolicy:
    """Decides what happens to one submission (accept / queue / reject)."""

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota a new account for ``tenant`` starts with."""
        return TenantQuota()

    def decide(
        self, account: TenantAccount, job: TraceJob, estimate: float
    ) -> AdmissionDecision:
        raise NotImplementedError


class AcceptAll(AdmissionPolicy):
    """No admission control — every submission is admitted immediately.

    This is the replay-parity configuration: a bridged trace must reach the
    engine unfiltered to reproduce the offline run.
    """

    def decide(
        self, account: TenantAccount, job: TraceJob, estimate: float
    ) -> AdmissionDecision:
        return AdmissionDecision.ACCEPT


class QuotaAdmission(AdmissionPolicy):
    """Quota-bounded admission with queue-with-backpressure or hard reject.

    A submission whose estimate exceeds the tenant's *total* quota can never
    be admitted and is rejected outright.  One that merely does not fit
    *right now* (quota headroom exhausted by holds, or ``max_pending``
    saturated) gets the ``on_saturated`` decision — ``QUEUE`` (default)
    parks it in the service's per-tenant FIFO until settlements free
    headroom; ``REJECT`` sheds it immediately.
    """

    def __init__(
        self,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default: Optional[TenantQuota] = None,
        on_saturated: AdmissionDecision = AdmissionDecision.QUEUE,
    ) -> None:
        if on_saturated not in (AdmissionDecision.QUEUE, AdmissionDecision.REJECT):
            raise ValueError("on_saturated must be QUEUE or REJECT")
        self.quotas = dict(quotas) if quotas else {}
        self.default = default if default is not None else TenantQuota()
        self.on_saturated = on_saturated

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Replace one tenant's quota (new accounts pick it up immediately).

        Live accounts are re-pointed by
        :meth:`~repro.serve.service.SchedulerService.set_quota`, which
        journals the change so recovery reconstructs the same bounds.
        """
        self.quotas[tenant] = quota

    def decide(
        self, account: TenantAccount, job: TraceJob, estimate: float
    ) -> AdmissionDecision:
        quota = account.quota
        if estimate > quota.gpu_seconds:
            return AdmissionDecision.REJECT  # can never fit, even alone
        if (
            quota.max_pending is not None
            and account.pending_total >= quota.max_pending
        ):
            return self.on_saturated
        if estimate > account.available:
            return self.on_saturated
        return AdmissionDecision.ACCEPT
