"""Cost inputs for the burst-parallel planner.

The planner (paper Section 4.1) consumes three cost functions:

* ``comp(i, g)`` — forward+backward compute time of layer ``i`` when its
  share of the global batch is split over ``g`` GPUs;
* ``sync(i, g)`` — gradient all-reduce time for layer ``i`` over ``g`` GPUs;
* ``comm(i, g) -> (j, h)`` — activation/gradient redistribution time between
  consecutive layers that run on different numbers of GPUs.

:class:`PlannerCostModel` provides all three on top of the profiler and
network substrates, with memoization (the planner evaluates each layer at
every candidate GPU count many times during the dynamic program).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...cache import fabric_fingerprint, fingerprint, graph_fingerprint
from ...models.graph import ModelGraph
from ...network.collectives import CollectiveCostModel
from ...network.fabric import NetworkFabric
from ...network.transfer import RedistributionCostModel
from ...profiler.layer_profiler import AMP_DTYPE_BYTES, LayerProfiler, per_gpu_batch

__all__ = ["PlannerCostModel", "candidate_gpu_counts"]


def candidate_gpu_counts(
    total_gpus: int, global_batch: int, powers_of_two_only: bool = True
) -> List[int]:
    """GPU counts the planner may assign to a layer.

    The paper limits the search to powers of two to keep the search space
    small (Section 7.4); the all-integers grid is kept for the ablation
    study.  A layer can never use more GPUs than it has samples to split.
    """
    if total_gpus < 1:
        raise ValueError("total_gpus must be at least 1")
    if global_batch < 1:
        raise ValueError("global_batch must be at least 1")
    limit = min(total_gpus, global_batch)
    if powers_of_two_only:
        counts = []
        g = 1
        while g <= limit:
            counts.append(g)
            g *= 2
        return counts
    return list(range(1, limit + 1))


@dataclass
class PlannerCostModel:
    """Memoized ``comp`` / ``sync`` / ``comm`` / ``Amp`` for one planning run.

    Parameters
    ----------
    graph:
        The model being planned.
    global_batch:
        Global batch size of the foreground job.
    fabric:
        Network fabric connecting the GPUs.
    profiler:
        Layer cost model (defaults to an A100 with CUDA graphs enabled).
    dtype_bytes:
        Bytes per activation / gradient scalar (2 under AMP).
    """

    graph: ModelGraph
    global_batch: int
    fabric: NetworkFabric
    profiler: LayerProfiler = field(default_factory=LayerProfiler)
    dtype_bytes: int = AMP_DTYPE_BYTES

    def __post_init__(self) -> None:
        if self.global_batch < 1:
            raise ValueError("global_batch must be at least 1")
        self.collectives = CollectiveCostModel(self.fabric)
        self.redistribution = RedistributionCostModel(self.fabric)
        self._comp_cache: Dict[Tuple[int, int], float] = {}
        self._sync_cache: Dict[Tuple[int, int], float] = {}
        self._comm_cache: Dict[Tuple[int, int, int], float] = {}
        # (graph version, digest): a graph grown by add_layer re-fingerprints.
        self._fingerprint: Optional[Tuple[int, str]] = None

    def fingerprint(self) -> str:
        """Content fingerprint of every input this cost model derives from.

        Two cost models with the same fingerprint return identical
        ``comp``/``sync``/``comm`` values for every query, so the digest
        identifies cached planner artifacts (and keeps schedulers with
        different profiler/planner configurations from aliasing plans).
        """
        version = self.graph.version
        if self._fingerprint is None or self._fingerprint[0] != version:
            digest = fingerprint(
                "cost-model",
                graph_fingerprint(self.graph),
                self.global_batch,
                fabric_fingerprint(self.fabric),
                self.profiler.fingerprint(),
                self.dtype_bytes,
            )
            self._fingerprint = (version, digest)
        return self._fingerprint[1]

    # --------------------------------------------------------------- comp/sync
    def comp(self, layer_id: int, num_gpus: int) -> float:
        """``comp(i, g)``: fwd+bwd compute time of the layer on ``g`` GPUs."""
        key = (layer_id, num_gpus)
        if key not in self._comp_cache:
            spec = self.graph.spec(layer_id)
            batch = per_gpu_batch(self.global_batch, num_gpus)
            self._comp_cache[key] = self.profiler.layer_timing(spec, batch).total_time
        return self._comp_cache[key]

    def sync(self, layer_id: int, num_gpus: int) -> float:
        """``sync(i, g)``: gradient all-reduce time for the layer's parameters."""
        key = (layer_id, num_gpus)
        if key not in self._sync_cache:
            spec = self.graph.spec(layer_id)
            self._sync_cache[key] = self.collectives.gradient_sync_time(
                spec.params, num_gpus, self.dtype_bytes
            )
        return self._sync_cache[key]

    def node_cost(self, layer_id: int, num_gpus: int) -> float:
        """Compute plus gradient-sync time of a layer at a GPU count."""
        return self.comp(layer_id, num_gpus) + self.sync(layer_id, num_gpus)

    # -------------------------------------------------------------------- comm
    def activation_bytes(self, layer_id: int) -> float:
        """Total bytes of the layer's output activations for the global batch."""
        spec = self.graph.spec(layer_id)
        return float(spec.output_elems_per_sample) * self.global_batch * self.dtype_bytes

    def comm(self, src_layer: int, src_gpus: int, dst_layer: int, dst_gpus: int) -> float:
        """``comm(i, g) -> (j, h)``: redistribution cost between two layers."""
        del dst_layer  # cost depends only on the producer's activation volume
        key = (src_layer, src_gpus, dst_gpus)
        cached = self._comm_cache.get(key)
        if cached is None:
            cached = self.redistribution.transition_time(
                self.activation_bytes(src_layer), src_gpus, dst_gpus
            )
            self._comm_cache[key] = cached
        return cached

    # ------------------------------------------------------------------- amp
    def single_gpu_time(self, layer_id: int) -> float:
        """``comp(i, 1)``: the amplification denominator."""
        return self.comp(layer_id, 1)

    def amplification(self, layer_id: int, num_gpus: int, stage_time: float) -> float:
        """GPU-sec amplification of a layer given its realized stage time.

        ``Amp(i, g) = T[i][g] * g / comp(i, 1)`` (paper Section 4.2), where
        ``T`` includes the layer's communication overheads.  Layers with no
        single-GPU compute time (e.g. reshape-only layers) never constrain
        the plan.
        """
        base = self.single_gpu_time(layer_id)
        if base <= 0.0:
            return 0.0
        return stage_time * num_gpus / base
