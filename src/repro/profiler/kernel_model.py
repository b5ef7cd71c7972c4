"""Analytical kernel execution-time model.

This replaces the per-layer profiling DeepPool performs on real A100s.  The
model is a roofline with three corrections that matter for strong scaling:

1. **Compute occupancy / wave quantization** — a kernel's math throughput is
   limited by how many thread blocks it can fill.  The device executes at
   most ``wave_size`` blocks concurrently; a kernel with fewer blocks than a
   wave can only use a proportional fraction of the SMs, and partially filled
   trailing waves waste the remainder of the last wave.  This is the effect
   that makes small per-GPU batches compute-inefficient (paper Figures 4, 5).
2. **Memory-bandwidth saturation** — HBM bandwidth saturates with far fewer
   blocks than the math pipelines do (a streaming kernel with a few dozen
   blocks already reaches peak bandwidth).  Weight-streaming layers (e.g.
   fully connected layers at tiny batch sizes) therefore stay roughly
   constant-time under strong scaling instead of slowing down — exactly the
   flat curves in Figure 5.
3. **Fixed kernel overhead** — every kernel pays a device-side fixed cost
   (scheduling, tail effects), so even trivially small kernels take a few
   microseconds.  This is the floor that makes many Inception-V3 layers
   launch-bound and is why CUDA graphs matter (paper Section 5).

The model is deliberately simple and fully deterministic: the planner only
needs relative layer costs with the right shape, not absolute accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gpu_spec import GPUSpec, A100_40GB

__all__ = ["KernelWorkload", "KernelCostModel"]

#: Output elements assigned to one thread block (typical tile of an
#: elementwise / GEMM-style kernel).
ELEMS_PER_BLOCK = 4096

#: Bytes of memory traffic one thread block keeps in flight; used to estimate
#: how many blocks a kernel needs before HBM bandwidth saturates.
BYTES_PER_BLOCK = 128 * 1024

#: Number of memory-active blocks needed to reach full HBM bandwidth.
MEM_SATURATION_BLOCKS = 32


@dataclass(frozen=True)
class KernelWorkload:
    """Device work of one logical kernel invocation.

    Attributes
    ----------
    flops:
        Floating point operations performed by the kernel.
    bytes_moved:
        Bytes read from plus written to device memory.
    parallel_elems:
        Independent output elements, used to estimate how many thread blocks
        the kernel can fill (its available compute parallelism).
    """

    flops: float
    bytes_moved: float
    parallel_elems: float

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0 or self.parallel_elems < 0:
            raise ValueError("kernel workload quantities must be non-negative")

    def scaled(self, factor: float) -> "KernelWorkload":
        """Scale all work quantities (e.g. by a batch size)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return KernelWorkload(
            flops=self.flops * factor,
            bytes_moved=self.bytes_moved * factor,
            parallel_elems=self.parallel_elems * factor,
        )


class KernelCostModel:
    """Roofline + occupancy kernel-time estimator for one GPU."""

    def __init__(
        self,
        gpu: GPUSpec = A100_40GB,
        elems_per_block: int = ELEMS_PER_BLOCK,
        bytes_per_block: int = BYTES_PER_BLOCK,
        mem_saturation_blocks: int = MEM_SATURATION_BLOCKS,
    ) -> None:
        if elems_per_block <= 0 or bytes_per_block <= 0 or mem_saturation_blocks <= 0:
            raise ValueError("block-size parameters must be positive")
        self.gpu = gpu
        self.elems_per_block = elems_per_block
        self.bytes_per_block = bytes_per_block
        self.mem_saturation_blocks = mem_saturation_blocks

    # ------------------------------------------------------------------ model
    def num_blocks(self, workload: KernelWorkload) -> int:
        """Thread blocks the kernel decomposes into (at least one)."""
        return self._num_blocks(workload.parallel_elems)

    def _num_blocks(self, parallel_elems: float) -> int:
        return max(1, math.ceil(parallel_elems / self.elems_per_block))

    def compute_occupancy(self, workload: KernelWorkload) -> float:
        """Fraction of the device's math throughput the kernel can use.

        A kernel with at least one full wave of blocks reaches 1.0 minus
        wave-quantization losses; below one wave, occupancy equals
        ``blocks / wave_size``.
        """
        return self._compute_occupancy(workload.parallel_elems)

    def _compute_occupancy(self, parallel_elems: float) -> float:
        blocks = self._num_blocks(parallel_elems)
        wave = self.gpu.wave_size
        full_waves, remainder = divmod(blocks, wave)
        if full_waves == 0:
            return blocks / wave
        total_waves = full_waves + (1 if remainder else 0)
        return blocks / (total_waves * wave)

    def memory_efficiency(self, workload: KernelWorkload) -> float:
        """Fraction of peak HBM bandwidth the kernel can sustain."""
        return self._memory_efficiency(workload.bytes_moved)

    def _memory_efficiency(self, bytes_moved: float) -> float:
        if bytes_moved <= 0:
            return 1.0
        mem_blocks = max(1, math.ceil(bytes_moved / self.bytes_per_block))
        return min(1.0, mem_blocks / self.mem_saturation_blocks)

    def ideal_time(self, workload: KernelWorkload) -> float:
        """Roofline execution time assuming full device utilization."""
        return self._ideal_time(workload.flops, workload.bytes_moved)

    def _ideal_time(self, flops: float, bytes_moved: float) -> float:
        return max(flops / self.gpu.peak_flops, bytes_moved / self.gpu.memory_bandwidth)

    def kernel_time(self, workload: KernelWorkload, num_kernels: int = 1) -> float:
        """Device-side execution time of the workload, in seconds.

        ``num_kernels`` models the workload being issued as several kernels
        back to back (e.g. separate data-gradient and weight-gradient kernels
        in a layer's backward pass): the roofline work is unchanged but each
        kernel pays the fixed overhead, and occupancy is evaluated on the
        per-kernel slice of the work.  The slice's occupancy and memory
        efficiency are computed from its scaled element and byte counts
        directly (the same values :meth:`KernelWorkload.scaled` would hold),
        so pricing a kernel allocates no workload.
        """
        if num_kernels <= 0:
            raise ValueError("num_kernels must be positive")
        return self._kernel_time(
            workload.flops, workload.bytes_moved, workload.parallel_elems, num_kernels
        )

    def _kernel_time(
        self, flops: float, bytes_moved: float, parallel_elems: float, num_kernels: int
    ) -> float:
        """:meth:`kernel_time` from plain numbers (``num_kernels`` positive)."""
        factor = 1.0 / num_kernels
        compute_occ = max(self._compute_occupancy(parallel_elems * factor), 1e-12)
        mem_eff = max(self._memory_efficiency(bytes_moved * factor), 1e-12)
        compute_time = flops / (self.gpu.peak_flops * compute_occ)
        memory_time = bytes_moved / (self.gpu.memory_bandwidth * mem_eff)
        return num_kernels * self.gpu.kernel_fixed_overhead + max(compute_time, memory_time)

    def achieved_utilization(self, workload: KernelWorkload, num_kernels: int = 1) -> float:
        """Fraction of roofline-achievable throughput actually delivered.

        Defined as ideal time over achieved time, in (0, 1].  This is the
        per-kernel quantity aggregated into the device-utilization CDF
        (Figure 4).
        """
        return self.utilization_at(workload, self.kernel_time(workload, num_kernels))

    def utilization_at(self, workload: KernelWorkload, kernel_time: float) -> float:
        """:meth:`achieved_utilization` given the workload's :meth:`kernel_time`.

        For callers that already hold the kernel time, so it is not
        computed twice.
        """
        return self._utilization_at(workload.flops, workload.bytes_moved, kernel_time)

    def _utilization_at(self, flops: float, bytes_moved: float, kernel_time: float) -> float:
        if kernel_time <= 0:
            return 1.0
        ideal = self._ideal_time(flops, bytes_moved)
        if ideal <= 0:
            return 0.0
        return min(1.0, ideal / kernel_time)

    def launch_overhead(self, use_cuda_graphs: bool) -> float:
        """Host-side cost of launching one kernel."""
        if use_cuda_graphs:
            return self.gpu.graph_launch_overhead
        return self.gpu.kernel_launch_overhead
