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

The memos are keyed by a layer's *cost shape*, not its id: the layer's
:class:`~repro.models.graph.LayerSpec` with the name cleared, interned to a
small int per cost model.  The profiler, the collectives model and the
redistribution model read nothing else of a layer, so two layers with the
same cost shape have identical costs at every width, and each distinct shape
is priced once (ResNet-101's 346 layers have 56 cost shapes).  Each memo
is reached through a shape-keyed method (:meth:`~PlannerCostModel.shape_comp`,
``shape_sync``, ``shape_comm``); the layer-id methods resolve the shape and
call it.

The chain search reads whole rows rather than single values, so one
search's :class:`SearchRows` keeps two more memos, built only from the
per-width ones: :meth:`~SearchRows.node_cost_row` keeps a layer's
compute-plus-sync times per ``(cost shape, widths)``, and
:meth:`~SearchRows.comm_columns` keeps the redistribution costs per
``(source cost shape, source widths, destination widths)``, one column per
destination width.  Both return shared tuples: immutable, and of floats
only, so the garbage collector stops tracking them.  The rows live only as
long as the search: each plan asks for its own widths, so a row is reused
within a plan and almost never by the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ...cache import fabric_fingerprint, fingerprint, graph_fingerprint
from ...models.graph import LayerSpec, ModelGraph
from ...network.collectives import CollectiveCostModel
from ...network.fabric import NetworkFabric
from ...network.transfer import RedistributionCostModel
from ...profiler.layer_profiler import AMP_DTYPE_BYTES, LayerProfiler, per_gpu_batch

__all__ = ["PlannerCostModel", "SearchRows", "candidate_gpu_counts"]


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
        # Layer id -> cost shape, and per shape the spec the models price:
        # the first layer's, so the profiler's memo and persistent-cache
        # keys stay those of a real layer.
        self._layer_shapes: Dict[int, int] = {}
        self._shape_ids: Dict[Hashable, int] = {}
        self._shape_specs: List[LayerSpec] = []
        # Memos keyed by (cost shape, widths).
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

    # ------------------------------------------------------------ cost shapes
    def _shape_key(self, layer_id: int) -> Hashable:
        """What a layer's costs depend on: its spec without the name."""
        return replace(self.graph.spec(layer_id), name="")

    def cost_shape(self, layer_id: int) -> int:
        """The layer's interned cost shape; equal shapes have equal costs."""
        shape = self._layer_shapes.get(layer_id)
        if shape is None:
            key = self._shape_key(layer_id)
            shape = self._shape_ids.get(key)
            if shape is None:
                shape = self._shape_ids[key] = len(self._shape_specs)
                self._shape_specs.append(self.graph.spec(layer_id))
            self._layer_shapes[layer_id] = shape
        return shape

    # --------------------------------------------------------------- comp/sync
    def comp(self, layer_id: int, num_gpus: int) -> float:
        """``comp(i, g)``: fwd+bwd compute time of the layer on ``g`` GPUs."""
        return self.shape_comp(self.cost_shape(layer_id), num_gpus)

    def sync(self, layer_id: int, num_gpus: int) -> float:
        """``sync(i, g)``: gradient all-reduce time for the layer's parameters."""
        return self.shape_sync(self.cost_shape(layer_id), num_gpus)

    def node_cost(self, layer_id: int, num_gpus: int) -> float:
        """Compute plus gradient-sync time of a layer at a GPU count."""
        return self.comp(layer_id, num_gpus) + self.sync(layer_id, num_gpus)

    def shape_comp(self, shape: int, num_gpus: int) -> float:
        """:meth:`comp` of every layer of a cost shape."""
        key = (shape, num_gpus)
        cached = self._comp_cache.get(key)
        if cached is None:
            timing = self.profiler.layer_timing(
                self._shape_specs[shape], per_gpu_batch(self.global_batch, num_gpus)
            )
            cached = self._comp_cache[key] = timing.total_time
        return cached

    def shape_sync(self, shape: int, num_gpus: int) -> float:
        """:meth:`sync` of every layer of a cost shape."""
        key = (shape, num_gpus)
        cached = self._sync_cache.get(key)
        if cached is None:
            cached = self._sync_cache[key] = self.collectives.gradient_sync_time(
                self._shape_specs[shape].params, num_gpus, self.dtype_bytes
            )
        return cached

    # -------------------------------------------------------------------- comm
    def comm(self, src_layer: int, src_gpus: int, dst_layer: int, dst_gpus: int) -> float:
        """``comm(i, g) -> (j, h)``: redistribution cost between two layers."""
        del dst_layer  # cost depends only on the producer's activation volume
        return self.shape_comm(self.cost_shape(src_layer), src_gpus, dst_gpus)

    def shape_comm(self, src_shape: int, src_gpus: int, dst_gpus: int) -> float:
        """:meth:`comm` from every layer of a cost shape.

        The volume moved is the producer's output activations for the
        global batch.
        """
        key = (src_shape, src_gpus, dst_gpus)
        cached = self._comm_cache.get(key)
        if cached is None:
            spec = self._shape_specs[src_shape]
            volume = float(spec.output_elems_per_sample) * self.global_batch * self.dtype_bytes
            cached = self._comm_cache[key] = self.redistribution.transition_time(
                volume, src_gpus, dst_gpus
            )
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


class SearchRows:
    """Row memos of one plan search, over a cost model's per-width memos.

    Built once per search next to the shared block tables, and dropped with
    the search's nodes.
    """

    def __init__(self, costs: PlannerCostModel) -> None:
        self.costs = costs
        # (cost shape, widths) and (source cost shape, source widths,
        # destination widths).
        self._node_cost_rows: Dict[Tuple[int, Tuple[int, ...]], Tuple[float, ...]] = {}
        self._comm_columns: Dict[
            Tuple[int, Tuple[int, ...], Tuple[int, ...]], Tuple[Tuple[float, ...], ...]
        ] = {}

    def node_cost_row(self, layer_id: int, widths: Sequence[int]) -> Tuple[float, ...]:
        """:meth:`~PlannerCostModel.node_cost` of the layer at each of ``widths``."""
        costs = self.costs
        shape = costs.cost_shape(layer_id)
        key = (shape, tuple(widths))
        row = self._node_cost_rows.get(key)
        if row is None:
            comp, sync = costs.shape_comp, costs.shape_sync
            row = self._node_cost_rows[key] = tuple(
                [comp(shape, g) + sync(shape, g) for g in widths]
            )
        return row

    def comm_columns(
        self,
        src_layer: int,
        src_widths: Sequence[int],
        dst_layer: int,
        dst_widths: Sequence[int],
    ) -> Tuple[Tuple[float, ...], ...]:
        """Redistribution costs from each source width, one column per destination width.

        ``columns[j][k]`` is the cost from ``src_widths[k]`` to
        ``dst_widths[j]``.
        """
        del dst_layer  # cost depends only on the producer's activation volume
        costs = self.costs
        shape = costs.cost_shape(src_layer)
        key = (shape, tuple(src_widths), tuple(dst_widths))
        columns = self._comm_columns.get(key)
        if columns is None:
            comm = costs.shape_comm
            columns = self._comm_columns[key] = tuple(
                tuple([comm(shape, h, g) for h in src_widths]) for g in dst_widths
            )
        return columns
