"""Heterogeneous GPU fleets: named pools of GPU generations, mapped to hosts.

Real multi-tenant clusters are not racks of identical accelerators: they mix
GPU generations (A100 pods next to V100 pods), and the scheduler must know
which is which — a burst-parallel plan computed for one generation is wrong
for another, and a failure takes down a *host* (a node with several GPUs),
not an abstract device index.

This module models that structure:

* :class:`GpuPoolSpec` — one named pool of identical GPUs
  (:class:`~repro.profiler.gpu_spec.GPUSpec`), organized into hosts of
  ``gpus_per_host`` devices.
* :class:`ClusterFleet` — an ordered collection of pools with a global,
  deterministic GPU-id and host-id numbering.  ``speed_order`` ranks pools
  fastest-first by peak FLOPs (ties broken by pool *name*, never by
  declaration order, so fleet metrics are invariant to how the pools were
  enumerated).
* :class:`FleetPool` — the free-GPU registry for one scheduler run: one
  heap-disciplined :class:`~repro.sched.events.GpuPool` per pool, plus the
  bookkeeping for failed hosts (a failed host's GPUs leave the free pool and
  re-enter it only at recovery; GPUs released by evicted jobs while their
  host is down are absorbed rather than double-freed).

The legacy homogeneous path is a one-pool fleet
(:meth:`ClusterFleet.homogeneous`); every scheduler decision reduces to the
pre-fleet behaviour in that case, which is what keeps the committed
``sched_sim`` / ``sched_sim_xl`` baselines bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, List, Tuple

from ..profiler.gpu_spec import A100_40GB, GPUSpec
from .events import GpuPool

__all__ = ["GpuPoolSpec", "ClusterFleet", "FleetPool"]


@dataclass(frozen=True)
class GpuPoolSpec:
    """One named pool of identical GPUs, organized into hosts.

    Attributes
    ----------
    name:
        Unique pool name within the fleet (e.g. ``"a100"``).
    gpu:
        Hardware specification every GPU in the pool shares.
    num_gpus:
        Number of GPUs in the pool.
    gpus_per_host:
        GPUs per host (node); the last host may be partial when
        ``num_gpus`` is not a multiple.  Failures take down whole hosts.
    """

    name: str
    gpu: GPUSpec
    num_gpus: int
    gpus_per_host: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be non-empty")
        if self.num_gpus < 1:
            raise ValueError(f"pool {self.name!r}: num_gpus must be positive")
        if self.gpus_per_host < 1:
            raise ValueError(f"pool {self.name!r}: gpus_per_host must be positive")

    @property
    def num_hosts(self) -> int:
        return math.ceil(self.num_gpus / self.gpus_per_host)


@dataclass(frozen=True)
class ClusterFleet:
    """A mix of GPU pools with deterministic global GPU/host numbering.

    GPU ids are contiguous per pool in declaration order (pool 0 owns
    ``[0, n0)``, pool 1 owns ``[n0, n0 + n1)``, ...), and host ids likewise.
    Scheduling decisions never depend on the declaration order — pools are
    always considered in :attr:`speed_order` (or its reverse) — so permuting
    the pools renumbers devices but cannot change fleet metrics *absent a
    failure schedule*: :class:`~repro.sched.failures.NodeFailure` addresses
    hosts by their global (declaration-order-dependent) id, so the same
    host index names a different pool's host after a permutation.
    """

    pools: Tuple[GpuPoolSpec, ...]

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("a fleet needs at least one GPU pool")
        names = [pool.name for pool in self.pools]
        if len(set(names)) != len(names):
            raise ValueError(f"pool names must be unique, got {names}")

    @classmethod
    def homogeneous(
        cls, num_gpus: int, gpu: GPUSpec = A100_40GB, gpus_per_host: int = 8
    ) -> "ClusterFleet":
        """The legacy single-pool fleet of ``num_gpus`` identical GPUs."""
        return cls((GpuPoolSpec("default", gpu, num_gpus, gpus_per_host),))

    # ------------------------------------------------------------- aggregates
    @property
    def num_gpus(self) -> int:
        return sum(pool.num_gpus for pool in self.pools)

    @property
    def num_hosts(self) -> int:
        return sum(pool.num_hosts for pool in self.pools)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.pools) == 1

    @property
    def pool_names(self) -> Tuple[str, ...]:
        """Pool names in declaration order."""
        return tuple(pool.name for pool in self.pools)

    @cached_property
    def speed_order(self) -> Tuple[str, ...]:
        """Pool names fastest-first (peak FLOPs, ties broken by name).

        The tie-break is the *name*, not the declaration index, so two
        fleets with permuted pool declarations make identical decisions.
        """
        ranked = sorted(self.pools, key=lambda p: (-p.gpu.peak_flops, p.name))
        return tuple(pool.name for pool in ranked)

    # ------------------------------------------------------------ id mapping
    @cached_property
    def _by_name(self) -> Dict[str, GpuPoolSpec]:
        return {pool.name: pool for pool in self.pools}

    @cached_property
    def _gpu_offsets(self) -> Dict[str, int]:
        offsets: Dict[str, int] = {}
        base = 0
        for pool in self.pools:
            offsets[pool.name] = base
            base += pool.num_gpus
        return offsets

    @cached_property
    def _host_offsets(self) -> Dict[str, int]:
        offsets: Dict[str, int] = {}
        base = 0
        for pool in self.pools:
            offsets[pool.name] = base
            base += pool.num_hosts
        return offsets

    def pool(self, name: str) -> GpuPoolSpec:
        """Look up a pool by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown GPU pool {name!r}; available: {sorted(self._by_name)}"
            ) from None

    def gpu_ids_of_pool(self, name: str) -> range:
        """Global GPU ids belonging to one pool."""
        pool = self.pool(name)
        base = self._gpu_offsets[name]
        return range(base, base + pool.num_gpus)

    def pool_of_gpu(self, gpu_id: int) -> str:
        """Name of the pool a global GPU id belongs to."""
        for pool in self.pools:
            base = self._gpu_offsets[pool.name]
            if base <= gpu_id < base + pool.num_gpus:
                return pool.name
        raise ValueError(f"gpu id {gpu_id} outside the fleet (0..{self.num_gpus - 1})")

    def host_of_gpu(self, gpu_id: int) -> int:
        """Global host id owning a global GPU id."""
        name = self.pool_of_gpu(gpu_id)
        pool = self.pool(name)
        local = gpu_id - self._gpu_offsets[name]
        return self._host_offsets[name] + local // pool.gpus_per_host

    def pool_of_host(self, host_id: int) -> str:
        """Name of the pool a global host id belongs to."""
        for pool in self.pools:
            base = self._host_offsets[pool.name]
            if base <= host_id < base + pool.num_hosts:
                return pool.name
        raise ValueError(f"host id {host_id} outside the fleet (0..{self.num_hosts - 1})")

    def gpus_of_host(self, host_id: int) -> Tuple[int, ...]:
        """Global GPU ids on one host (the blast radius of a node failure)."""
        name = self.pool_of_host(host_id)
        pool = self.pool(name)
        local_host = host_id - self._host_offsets[name]
        start = local_host * pool.gpus_per_host
        stop = min(start + pool.gpus_per_host, pool.num_gpus)
        base = self._gpu_offsets[name]
        return tuple(range(base + start, base + stop))


class FleetPool:
    """The free GPUs of a fleet, tracked per pool, with failure bookkeeping.

    One :class:`~repro.sched.events.GpuPool` heap per pool keeps takes
    deterministic (lowest free id of the requested type).  Host failures
    move a host's GPUs into a *down* set: free ones leave their heap
    immediately, busy ones are absorbed when their evicted job releases
    them, and recovery returns every one of the host's GPUs to its heap
    exactly once — no leaks, no double-frees.
    """

    def __init__(self, fleet: ClusterFleet) -> None:
        self._fleet = fleet
        self._free: Dict[str, GpuPool] = {
            name: GpuPool(fleet.gpu_ids_of_pool(name)) for name in fleet.pool_names
        }
        self._down: set = set()
        self._down_hosts: set = set()

    def free_of(self, pool_name: str) -> int:
        """Number of free GPUs in one pool."""
        return len(self._free[pool_name])

    def take(self, pool_name: str, count: int) -> List[int]:
        """Remove and return the ``count`` lowest free GPU ids of one pool."""
        return self._free[pool_name].take(count)

    def release(self, gpu_ids: Iterable[int]) -> None:
        """Return GPUs to their pools (GPUs on a down host stay down).

        Ids are grouped by pool with a range check against the pool's id
        block, and each pool gets one :meth:`GpuPool.release` call.
        """
        batches: Dict[str, List[int]] = {}
        batch: List[int] = []
        block = range(0)
        for gpu_id in gpu_ids:
            if gpu_id in self._down:
                continue  # absorbed until the host recovers
            if gpu_id not in block:
                name = self._fleet.pool_of_gpu(gpu_id)
                block = self._fleet.gpu_ids_of_pool(name)
                batch = batches.setdefault(name, [])
            batch.append(gpu_id)
        for name, batch in batches.items():
            self._free[name].release(batch)

    def fail_host(self, host_id: int) -> Tuple[int, ...]:
        """Mark a host down; its free GPUs leave the pool immediately.

        Returns the host's GPU ids (the failure's blast radius).  GPUs
        currently assigned to jobs are absorbed when those jobs release
        them.  Failing a host that is already down is rejected — the
        scheduler validates failure schedules for per-host overlap.
        """
        gpu_ids = self._fleet.gpus_of_host(host_id)
        if any(g in self._down for g in gpu_ids):
            raise ValueError(f"host {host_id} is already down")
        self._down.update(gpu_ids)
        self._down_hosts.add(host_id)
        self._free[self._fleet.pool_of_host(host_id)].remove(gpu_ids)
        return gpu_ids

    def recover_host(self, host_id: int) -> None:
        """Bring a host back: all of its GPUs re-enter the free pool."""
        gpu_ids = self._fleet.gpus_of_host(host_id)
        if not all(g in self._down for g in gpu_ids):
            raise ValueError(f"host {host_id} is not down")
        self._down.difference_update(gpu_ids)
        self._down_hosts.discard(host_id)
        self._free[self._fleet.pool_of_host(host_id)].release(gpu_ids)

    def free_ids(self) -> List[int]:
        """Sorted ids of every free GPU (integrity checks in tests)."""
        out: List[int] = []
        for pool in self._free.values():
            out.extend(pool.ids())
        return sorted(out)

    def down_ids(self) -> List[int]:
        """Sorted ids of GPUs on currently-down hosts."""
        return sorted(self._down)

    @property
    def num_down_hosts(self) -> int:
        """Hosts currently marked down (the sampler's ``failed_hosts`` gauge)."""
        return len(self._down_hosts)

    @property
    def num_down_gpus(self) -> int:
        """GPUs on currently-down hosts (free or pending absorption)."""
        return len(self._down)

    def __len__(self) -> int:
        return sum(len(pool) for pool in self._free.values())

    def __bool__(self) -> bool:
        return any(self._free.values())

    # ------------------------------------------------------- snapshot/restore
    def snapshot_state(self) -> Dict[str, Any]:
        """Canonical capture: per-pool sorted free lists + down bookkeeping.

        Free ids are dumped sorted — a :class:`GpuPool` heap's take order is
        a pure function of its id *set* (always the lowest free id), so the
        sorted list is a canonical form independent of heap layout.
        """
        return {
            "free": {name: pool.ids() for name, pool in self._free.items()},
            "down": sorted(self._down),
            "down_hosts": sorted(self._down_hosts),
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Rebuild free/down state in place from :meth:`snapshot_state`.

        Mutates this instance rather than returning a new one: the engine's
        telemetry gauges close over the ``FleetPool`` reference, so identity
        must survive a restore.
        """
        if set(payload["free"]) != set(self._fleet.pool_names):
            raise ValueError(
                "fleet snapshot pools do not match this fleet: "
                f"{sorted(payload['free'])} vs {sorted(self._fleet.pool_names)}"
            )
        # Rebuild in fleet declaration order, not payload order — canonical
        # JSON sorts keys, and dict iteration order must stay deterministic.
        self._free = {
            name: GpuPool(payload["free"][name]) for name in self._fleet.pool_names
        }
        self._down = set(payload["down"])
        self._down_hosts = set(payload["down_hosts"])
