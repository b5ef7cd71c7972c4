"""Scheduling policies for the multi-tenant cluster scheduler.

A policy answers three questions at every scheduling point (a job arrival or
completion): in what order should pending jobs be considered, how many GPUs
should a foreground job get out of the free pool, and which mechanisms
(background collocation, background preemption, re-planning of running jobs)
are enabled.  Three policies are provided:

* :class:`FIFOPolicy` — strict arrival order with head-of-line blocking and
  full-width placements: the classic baseline cluster queue.
* :class:`ShortestRemainingGPUSecondsPolicy` — shortest remaining
  GPU-seconds first with backfilling: jobs shrink to the free-GPU budget so
  short work is never stuck behind wide work.
* :class:`CollocationAwarePolicy` — the DeepPool-style policy: backfilled
  burst-parallel foreground placements, background jobs packed onto the idle
  gaps of foreground GPUs via the collocation profile, background preemption
  when a foreground job needs dedicated GPUs, and re-planning of running
  foreground jobs onto freed capacity.

Policies see the scheduler's job states duck-typed (``is_foreground``,
``arrival_time``, ``order``, ``global_batch``, ``max_gpus``,
``remaining_gpu_seconds``) and never mutate them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple, Type

__all__ = [
    "floor_pow2",
    "width_cap",
    "SchedulingPolicy",
    "FIFOPolicy",
    "ShortestRemainingGPUSecondsPolicy",
    "CollocationAwarePolicy",
    "POLICIES",
    "get_policy",
]


def floor_pow2(value: int) -> int:
    """Largest power of two that is <= ``value`` (0 for values below 1)."""
    if value < 1:
        return 0
    return 1 << (value.bit_length() - 1)


def width_cap(job, num_gpus: int) -> int:
    """Hard cap on a job's GPU width within a pool of ``num_gpus``.

    The pool size, the job's batch (a layer cannot split below one sample
    per GPU), and the job's own ``max_gpus``.  Policies derive placement
    widths from it, and the scheduler's prewarm/re-plan/migration paths
    share it so the prewarmed plan set always covers exactly the widths
    the scheduler can request.
    """
    return min(
        num_gpus,
        job.global_batch,
        job.max_gpus if job.max_gpus is not None else num_gpus,
    )


class SchedulingPolicy(ABC):
    """Strategy interface consulted by the scheduler's event loop."""

    #: Registry key and display name.
    name: str = "base"
    #: Consider pending jobs strictly in order and stop at the first that
    #: does not fit (head-of-line blocking) instead of backfilling past it.
    strict_order: bool = False
    #: Pack background jobs onto foreground GPUs instead of dedicating GPUs.
    collocate_background: bool = False
    #: Evict dedicated background jobs when a foreground job needs GPUs.
    preempt_background: bool = False
    #: Re-plan running foreground jobs onto freed GPUs when the queue drains.
    replan_running: bool = False
    #: When re-planning, also consider migrating a running foreground job to
    #: a *different* (typically faster) GPU pool if that strictly improves
    #: its iteration time.  Meaningless on homogeneous fleets.
    replan_across_types: bool = False
    #: Whether ``sort_key`` depends on ``now`` (aging, deadlines...).  The
    #: scheduler keeps the pending queue sorted incrementally under keys
    #: computed at insertion; a policy whose keys drift with time must set
    #: this so the queue is re-keyed before every placement pass.
    dynamic_priority: bool = False

    @abstractmethod
    def sort_key(self, job, now: float) -> Tuple:
        """Ordering key for the pending queue (smaller schedules first).

        For jobs *waiting* in the queue the key must be stable over time
        unless :attr:`dynamic_priority` is set: the scheduler computes it
        once when the job enters the pending queue.
        """

    def pool_preference(self, job, fleet) -> Tuple[str, ...]:
        """Order in which the fleet's GPU pools are tried for ``job``.

        Foreground jobs prefer the fastest pools (their iteration time is
        the cluster's product) and fall back to slower pools on contention;
        background jobs fill from the slowest pool up, keeping fast GPUs
        available for foreground work.  On a homogeneous fleet both orders
        collapse to the single pool, reproducing the pre-fleet behaviour.
        """
        if job.is_foreground:
            return fleet.speed_order
        return fleet.slowest_first

    def desired_width(self, job, num_gpus: int) -> int:
        """Power-of-two GPU width the job would use on an empty cluster."""
        return max(1, floor_pow2(width_cap(job, num_gpus)))

    def width_for(
        self, job, free_gpus: int, num_gpus: int, pending_foreground: int = 1
    ) -> Optional[int]:
        """GPU width to start ``job`` at given the free pool, or ``None`` to wait.

        ``pending_foreground`` counts the foreground jobs waiting (including
        this one); policies may use it to divide the cluster instead of
        letting the head of the queue monopolize it.  The default behaviour
        backfills greedily: the job takes the largest power-of-two width
        that fits the free pool.
        """
        del pending_foreground
        desired = self.desired_width(job, num_gpus)
        width = min(desired, floor_pow2(free_gpus))
        return width if width >= 1 else None


class FIFOPolicy(SchedulingPolicy):
    """First-in-first-out with full-width placements and no backfilling."""

    name = "fifo"
    strict_order = True

    def sort_key(self, job, now: float) -> Tuple:
        return (job.arrival_time, job.order)

    def width_for(
        self, job, free_gpus: int, num_gpus: int, pending_foreground: int = 1
    ) -> Optional[int]:
        # FIFO insists on the job's full requested width: nothing starts
        # until the head of the queue can be placed at that width.
        del pending_foreground
        desired = self.desired_width(job, num_gpus)
        return desired if free_gpus >= desired else None


class ShortestRemainingGPUSecondsPolicy(SchedulingPolicy):
    """Shortest remaining GPU-seconds first, with backfilling."""

    name = "srgs"

    def sort_key(self, job, now: float) -> Tuple:
        return (job.remaining_gpu_seconds, job.arrival_time, job.order)


class CollocationAwarePolicy(ShortestRemainingGPUSecondsPolicy):
    """DeepPool-style policy: burst-parallel foregrounds, collocated backgrounds.

    Inherits the shortest-remaining-GPU-seconds ordering but schedules
    foreground jobs ahead of background jobs (background work rides the
    foreground jobs' idle gaps, so it should never delay them), packs
    background jobs onto foreground GPUs, preempts dedicated background jobs
    when foreground work arrives, and re-plans running foreground jobs onto
    capacity freed by completions.
    """

    name = "collocation"
    collocate_background = True
    preempt_background = True
    replan_running = True
    replan_across_types = True
    #: Collocate a background job only when the slot's expected efficiency
    #: (fraction of its isolated throughput) is at least this much; below it,
    #: waiting for a dedicated GPU beats crawling beside a busy foreground.
    min_collocation_efficiency: float = 0.5

    def sort_key(self, job, now: float) -> Tuple:
        return (not job.is_foreground,) + super().sort_key(job, now)

    def width_for(
        self, job, free_gpus: int, num_gpus: int, pending_foreground: int = 1
    ) -> Optional[int]:
        # Space-share: burst-parallel speedup is sublinear in width, so when
        # several foreground jobs are waiting, running them side by side at
        # smaller widths beats serial full-width runs.  Freed capacity is
        # reclaimed later by re-planning (and, meanwhile, by collocation).
        desired = self.desired_width(job, num_gpus)
        share = free_gpus // max(1, pending_foreground)
        width = min(desired, floor_pow2(max(share, 1)), floor_pow2(free_gpus))
        return width if width >= 1 else None


#: Registry of the built-in policies, keyed by :attr:`SchedulingPolicy.name`.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    policy.name: policy
    for policy in (
        FIFOPolicy,
        ShortestRemainingGPUSecondsPolicy,
        CollocationAwarePolicy,
    )
}


def get_policy(policy) -> SchedulingPolicy:
    """Resolve a policy instance from a name, class, or instance."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    if isinstance(policy, type) and issubclass(policy, SchedulingPolicy):
        return policy()
    try:
        return POLICIES[policy]()
    except (KeyError, TypeError):
        raise KeyError(
            f"unknown scheduling policy {policy!r}; "
            f"available: {', '.join(sorted(POLICIES))}"
        ) from None
