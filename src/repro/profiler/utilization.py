"""Device-utilization analysis (paper Figure 4).

Figure 4 plots the CDF of GPU utilization observed while training ResNet-50
at minibatch sizes from 1 to 256: with small batches most of the time is
spent at low utilization.  We reproduce the distribution analytically: each
layer contributes its achieved utilization (fraction of roofline throughput
delivered, see :class:`~repro.profiler.kernel_model.KernelCostModel`)
weighted by the time it occupies the device.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Sequence, Tuple

from ..models.graph import ModelGraph
from .gpu_spec import GPUSpec, A100_40GB
from .layer_profiler import LayerProfiler

__all__ = ["UtilizationCDF", "utilization_cdf", "mean_utilization"]


@dataclass(frozen=True)
class UtilizationCDF:
    """Time-weighted CDF of device utilization for one minibatch size.

    ``utilization[i]`` is a utilization level in [0, 1], in ascending order;
    ``cumulative[i]`` is the fraction of device-busy time spent at or below
    that level.  Both are tuples, so two CDFs compare and hash by value.
    """

    batch: int
    utilization: Tuple[float, ...]
    cumulative: Tuple[float, ...]

    def fraction_below(self, threshold: float) -> float:
        """Fraction of device time spent below a utilization threshold."""
        if threshold <= 0:
            return 0.0
        idx = bisect_left(self.utilization, threshold)
        if idx == 0:
            return 0.0
        return self.cumulative[idx - 1]

    def mean(self) -> float:
        """Time-weighted mean utilization."""
        previous = (0.0,) + self.cumulative
        return sum(
            u * (c - p) for u, c, p in zip(self.utilization, self.cumulative, previous)
        )


def utilization_cdf(
    graph: ModelGraph,
    batch: int,
    gpu: GPUSpec = A100_40GB,
    profiler: LayerProfiler | None = None,
) -> UtilizationCDF:
    """Compute the time-weighted utilization CDF at one minibatch size."""
    prof = profiler if profiler is not None else LayerProfiler(gpu)
    profile = prof.profile_model(graph, [batch])
    samples = profile.utilization_samples(batch)
    if not samples:
        raise ValueError(f"model {graph.name!r} produced no kernel timings")
    # A stable sort: samples at equal utilization keep their layer order.
    ordered = sorted(samples, key=lambda sample: sample[1])
    total = sum(t for t, _ in samples)
    return UtilizationCDF(
        batch=batch,
        utilization=tuple(u for _, u in ordered),
        cumulative=tuple(accumulate(t / total for t, _ in ordered)),
    )


def mean_utilization(
    graph: ModelGraph,
    batches: Sequence[int],
    gpu: GPUSpec = A100_40GB,
) -> Dict[int, float]:
    """Time-weighted mean utilization for each minibatch size."""
    prof = LayerProfiler(gpu)
    return {
        int(b): utilization_cdf(graph, int(b), gpu, prof).mean() for b in batches
    }
