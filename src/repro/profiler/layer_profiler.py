"""Per-layer compute-time profiles: the planner's ``comp(i, g)`` input.

DeepPool's planner "initially profiles each layer with different batch sizes"
(paper Section 3.2) and consumes, for every layer ``i`` and GPU count ``g``,
the sum of forward and backward compute time at the per-GPU batch size implied
by ``g``.  This module produces those profiles from the static model graph and
the analytical kernel model, replacing measurement on real hardware.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache import ArtifactCache, fingerprint, profiler_fingerprint
from ..models.graph import LayerSpec, ModelGraph
from ..obs.metrics import global_registry
from .gpu_spec import GPUSpec, A100_40GB
from .kernel_model import KernelCostModel, KernelWorkload

__all__ = [
    "LayerTiming",
    "LayerProfiler",
    "ModelProfile",
    "ProfilerCacheStats",
    "per_gpu_batch",
]

#: Bytes per scalar for activations and weights under mixed precision.
AMP_DTYPE_BYTES = 2

#: Bytes per parameter held in GPU memory during training: FP16 weight +
#: FP16 gradient + FP32 master weight + two FP32 Adam moments.
TRAINING_BYTES_PER_PARAM = 2 + 2 + 4 + 4 + 4

#: Kernel counts per layer: (forward kernels, backward kernels).  Weighted
#: layers run separate data-gradient and weight-gradient kernels backward.
_KERNELS_PER_OP: Dict[str, Tuple[int, int]] = {
    "input": (0, 0),
    "conv2d": (1, 2),
    "dense": (1, 2),
    "batchnorm": (1, 1),
    "relu": (1, 1),
    "dropout": (1, 1),
    "softmax": (1, 1),
    "maxpool": (1, 1),
    "avgpool": (1, 1),
    "add": (1, 1),
    "concat": (1, 1),
    "flatten": (0, 0),
}


def per_gpu_batch(global_batch: int, num_gpus: int) -> int:
    """Samples processed by the busiest GPU when a batch is split evenly.

    The iteration time of a data-parallel stage is set by the GPU holding
    ``ceil(global_batch / num_gpus)`` samples.
    """
    if global_batch <= 0:
        raise ValueError("global_batch must be positive")
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    return math.ceil(global_batch / num_gpus)


@dataclass(frozen=True)
class LayerTiming:
    """Compute-time breakdown for one layer at one per-GPU batch size.

    All times are seconds for a single training iteration on one GPU.
    """

    layer_name: str
    op: str
    batch: int
    forward_time: float
    backward_time: float
    forward_kernels: int
    backward_kernels: int
    host_launch_time: float
    utilization: float

    @property
    def total_time(self) -> float:
        """Forward + backward device time, bounded below by host launch time.

        When kernels are shorter than the time the host needs to launch them,
        the layer becomes host-bound (the regime CUDA graphs address).
        """
        return max(self.forward_time + self.backward_time, self.host_launch_time)

    @property
    def device_time(self) -> float:
        """Pure device execution time (forward + backward)."""
        return self.forward_time + self.backward_time

    @property
    def num_kernels(self) -> int:
        return self.forward_kernels + self.backward_kernels


class ProfilerCacheStats:
    """Hit/miss counters of the profiler's layer-timing memo table.

    ``queries`` (hits + misses) only depends on the caller's query pattern,
    not on whether caching is enabled, which makes it a deterministic op
    count for the benchmark harness.

    Backed by :mod:`repro.obs.metrics` scoped counters: each instance keeps
    its own counts while also feeding the process-wide ``profiler.hits`` /
    ``profiler.misses`` aggregates.
    """

    __slots__ = ("_hits", "_misses")

    def __init__(self) -> None:
        registry = global_registry()
        self._hits = registry.scoped_counter("profiler.hits")
        self._misses = registry.scoped_counter("profiler.misses")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    def record_hit(self) -> None:
        self._hits.add(1)

    def record_miss(self) -> None:
        self._misses.add(1)

    def reset(self) -> None:
        self._hits.reset()
        self._misses.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProfilerCacheStats(hits={self.hits}, misses={self.misses})"


class LayerProfiler:
    """Computes per-layer timings — the analytical stand-in for profiling.

    Timings are memoized by ``(layer spec, batch)``: one profiler instance
    shared across many planner searches (the scheduler's situation, and the
    planner grid benchmark's) pays for each unique layer/batch combination
    once.  :class:`LayerSpec` is a frozen value type, so two structurally
    identical layers share a cache entry even across graph rebuilds.

    Parameters
    ----------
    gpu:
        Device specification to model.
    use_cuda_graphs:
        Whether host launch costs are amortized by CUDA graphs (the paper
        enables graphs for all jobs; the Figure 11 ablation turns it off).
    dtype_bytes:
        Bytes per activation/weight scalar (2 under AMP).
    enable_cache:
        Memoize ``layer_timing`` results.  Disabling restores the pre-cache
        behavior; the benchmark suite uses this to measure the speedup.
    persistent_cache:
        Optional :class:`~repro.cache.ArtifactCache`.  When set, timings
        missing from the in-memory memo are looked up on disk (keyed by the
        profiler fingerprint, the full layer spec and the batch size) before
        being recomputed, and computed timings are persisted — so planner
        grids, sweep workers and CI runs across *processes* share one set of
        profile derivations.
    """

    def __init__(
        self,
        gpu: GPUSpec = A100_40GB,
        use_cuda_graphs: bool = True,
        dtype_bytes: int = AMP_DTYPE_BYTES,
        enable_cache: bool = True,
        persistent_cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.gpu = gpu
        self.use_cuda_graphs = use_cuda_graphs
        self.dtype_bytes = dtype_bytes
        self.kernel_model = KernelCostModel(gpu)
        self.enable_cache = enable_cache
        self.persistent_cache = persistent_cache
        self.cache_stats = ProfilerCacheStats()
        self._timing_cache: Dict[Tuple[LayerSpec, int], LayerTiming] = {}
        self._fingerprint: Optional[str] = None

    def fingerprint(self) -> str:
        """Content fingerprint of everything folded into a layer timing."""
        if self._fingerprint is None:
            self._fingerprint = profiler_fingerprint(self)
        return self._fingerprint

    def clear_cache(self) -> None:
        """Drop memoized timings (in-memory only; disk entries remain valid).

        The hit/miss counters keep accumulating (they describe the query
        history, not the cache contents); call ``cache_stats.reset()`` to
        zero them explicitly.
        """
        self._timing_cache.clear()

    # ----------------------------------------------------------- single layer
    def _forward_work(self, spec: LayerSpec, batch: int) -> Tuple[float, float, float]:
        """``(flops, bytes_moved, parallel_elems)`` of the layer's forward pass."""
        act_bytes = (spec.input_elems_per_sample + spec.output_elems_per_sample) * batch
        weight_bytes = spec.params
        return (
            spec.flops_per_sample * batch,
            (act_bytes + weight_bytes) * self.dtype_bytes,
            max(spec.output_elems_per_sample, 1) * batch,
        )

    def _backward_work(self, spec: LayerSpec, batch: int) -> Tuple[float, float, float]:
        """``(flops, bytes_moved, parallel_elems)`` of the layer's backward pass."""
        # Backward reads the saved activations and the incoming gradient and
        # writes gradients for inputs (and weights); roughly twice the
        # forward traffic for weighted layers.
        act_bytes = (2 * spec.input_elems_per_sample + spec.output_elems_per_sample) * batch
        weight_bytes = 2 * spec.params
        return (
            spec.flops_per_sample * spec.bwd_flops_multiplier * batch,
            (act_bytes + weight_bytes) * self.dtype_bytes,
            max(spec.input_elems_per_sample, 1) * batch,
        )

    def _forward_workload(self, spec: LayerSpec, batch: int) -> KernelWorkload:
        return KernelWorkload(*self._forward_work(spec, batch))

    def layer_timing(self, spec: LayerSpec, batch: int) -> LayerTiming:
        """Forward+backward timing of one layer at a per-GPU batch size."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        if not self.enable_cache:
            self.cache_stats.record_miss()
            return self._compute_layer_timing(spec, batch)
        key = (spec, batch)
        cached = self._timing_cache.get(key)
        if cached is not None:
            self.cache_stats.record_hit()
            return cached
        self.cache_stats.record_miss()
        timing = None
        if self.persistent_cache is not None:
            digest = fingerprint(
                "layer-timing", self.fingerprint(), asdict(spec), batch
            )
            payload = self.persistent_cache.get("layer_timing", digest)
            if payload is not None:
                try:
                    timing = LayerTiming(**payload)
                except TypeError:  # foreign payload shape: recompute
                    timing = None
            if timing is None:
                timing = self._compute_layer_timing(spec, batch)
                self.persistent_cache.put("layer_timing", digest, asdict(timing))
        if timing is None:
            timing = self._compute_layer_timing(spec, batch)
        self._timing_cache[key] = timing
        return timing

    def _compute_layer_timing(self, spec: LayerSpec, batch: int) -> LayerTiming:
        fwd_kernels, bwd_kernels = _KERNELS_PER_OP.get(spec.op, (1, 1))
        if fwd_kernels == 0 and bwd_kernels == 0:
            return LayerTiming(
                layer_name=spec.name,
                op=spec.op,
                batch=batch,
                forward_time=0.0,
                backward_time=0.0,
                forward_kernels=0,
                backward_kernels=0,
                host_launch_time=0.0,
                utilization=1.0,
            )
        # A miss is priced from plain numbers: no KernelWorkload is built.
        model = self.kernel_model
        has_bwd = spec.bwd_flops_multiplier > 0
        fwd_flops, fwd_bytes, fwd_elems = self._forward_work(spec, batch)
        fwd_time = model._kernel_time(fwd_flops, fwd_bytes, fwd_elems, fwd_kernels)
        bwd_time = (
            model._kernel_time(*self._backward_work(spec, batch), bwd_kernels)
            if has_bwd
            else 0.0
        )
        launch = model.launch_overhead(self.use_cuda_graphs)
        host_time = launch * (fwd_kernels + (bwd_kernels if has_bwd else 0))
        utilization = model._utilization_at(fwd_flops, fwd_bytes, fwd_time)
        return LayerTiming(
            layer_name=spec.name,
            op=spec.op,
            batch=batch,
            forward_time=fwd_time,
            backward_time=bwd_time,
            forward_kernels=fwd_kernels,
            backward_kernels=bwd_kernels if has_bwd else 0,
            host_launch_time=host_time,
            utilization=utilization,
        )

    def comp(self, spec: LayerSpec, global_batch: int, num_gpus: int) -> float:
        """``comp(i, g)``: fwd+bwd time of a layer scaled to ``num_gpus`` GPUs."""
        return self.layer_timing(spec, per_gpu_batch(global_batch, num_gpus)).total_time

    def forward_occupancy(self, spec: LayerSpec, batch: int) -> float:
        """SM occupancy of the layer's forward kernel at a per-GPU batch size.

        Used by the GPU multiplexing simulator to decide how much of the
        device a kernel leaves free for a collocated task.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        workload = self._forward_workload(spec, batch)
        return self.kernel_model.compute_occupancy(workload)

    # ------------------------------------------------------------ whole model
    def profile_model(
        self, graph: ModelGraph, batches: Sequence[int]
    ) -> "ModelProfile":
        """Profile every layer at every per-GPU batch size in ``batches``."""
        unique_batches = sorted({int(b) for b in batches})
        if not unique_batches:
            raise ValueError("need at least one batch size to profile")
        timings: Dict[Tuple[int, int], LayerTiming] = {}
        for lid in graph.layer_ids():
            spec = graph.spec(lid)
            for b in unique_batches:
                timings[(lid, b)] = self.layer_timing(spec, b)
        return ModelProfile(
            graph=graph,
            gpu=self.gpu,
            batches=unique_batches,
            timings=timings,
            use_cuda_graphs=self.use_cuda_graphs,
        )

    def iteration_compute_time(self, graph: ModelGraph, batch: int) -> float:
        """Sum of all layers' compute time at one per-GPU batch size."""
        return sum(
            self.layer_timing(graph.spec(lid), batch).total_time
            for lid in graph.layer_ids()
        )

    def memory_footprint(self, graph: ModelGraph, batch: int) -> float:
        """Approximate training memory footprint in bytes.

        Parameters, gradients and optimizer state, plus activations saved for
        the backward pass at the given per-GPU batch size.  Strong scaling
        shrinks the activation term, which is what frees room for a collocated
        background job (paper Section 3.1).
        """
        param_bytes = graph.total_params() * TRAINING_BYTES_PER_PARAM
        act_elems = sum(
            spec.output_elems_per_sample for spec in graph.specs()
        )
        act_bytes = act_elems * batch * self.dtype_bytes
        return float(param_bytes + act_bytes)


@dataclass
class ModelProfile:
    """A table of layer timings at several per-GPU batch sizes.

    This is the artifact DeepPool's profiler hands to the planner: for any
    layer and GPU count, the planner looks up (or derives) the compute time.
    """

    graph: ModelGraph
    gpu: GPUSpec
    batches: List[int]
    timings: Dict[Tuple[int, int], LayerTiming]
    use_cuda_graphs: bool

    def timing(self, layer_id: int, batch: int) -> LayerTiming:
        """Timing for one layer at one profiled per-GPU batch size."""
        key = (layer_id, batch)
        if key not in self.timings:
            raise KeyError(
                f"layer {layer_id} was not profiled at batch {batch}; "
                f"profiled batches: {self.batches}"
            )
        return self.timings[key]

    def layer_time(self, layer_id: int, batch: int) -> float:
        return self.timing(layer_id, batch).total_time

    def iteration_time(self, batch: int) -> float:
        """Total compute time of one iteration at a per-GPU batch size."""
        return sum(
            self.timings[(lid, batch)].total_time for lid in self.graph.layer_ids()
        )

    def utilization_samples(self, batch: int) -> List[Tuple[float, float]]:
        """(time_weight, utilization) pairs across layers at one batch size.

        Used to build the time-weighted device-utilization CDF of Figure 4.
        """
        out: List[Tuple[float, float]] = []
        for lid in self.graph.layer_ids():
            t = self.timings[(lid, batch)]
            if t.num_kernels == 0:
                continue
            out.append((t.total_time, t.utilization))
        return out
