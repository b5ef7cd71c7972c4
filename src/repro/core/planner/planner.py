"""The burst-parallel training planner: DeepPool's public planning API.

A user submits a model, a global batch size, the number of available GPUs,
and an inefficiency tolerance (the GPU-sec amplification limit).  The planner
profiles every layer at every candidate scale, runs the chain dynamic program
(Algorithm 1) — after reducing branch/join graphs to a chain (Figure 7) —
and emits a :class:`~repro.core.planner.plan.TrainingPlan` assigning a GPU
count to every layer.

Two reference plans are also provided:

* :meth:`BurstParallelPlanner.data_parallel_plan` — the "DP" baseline of the
  evaluation (every layer on all GPUs);
* :meth:`BurstParallelPlanner.single_gpu_plan` — the whole model on one GPU,
  used as the speedup denominator in Figure 10.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ...cache import (
    ArtifactCache,
    fabric_fingerprint,
    fingerprint,
    planner_config_fingerprint,
)
from ...models.graph import ModelGraph
from ...network.fabric import NetworkFabric
from ...obs.metrics import global_registry
from ...profiler.layer_profiler import LayerProfiler
from .costs import PlannerCostModel, candidate_gpu_counts
from .graph_reduction import build_chain_nodes
from .linear_search import chain_assignments, solve_chain
from .plan import LayerAssignment, TrainingPlan

__all__ = ["PlannerConfig", "BurstParallelPlanner"]

# Process-wide planner accounting (repro.obs.metrics): how many plans were
# requested, how many came from the persistent cache, how many ran the chain
# DP, and how long the searches took (wall clock — diagnostics only, never a
# gated fingerprint).
_PLAN_REQUESTS = global_registry().counter("planner.plan_requests")
_PLAN_CACHE_HITS = global_registry().counter("planner.plan_cache_hits")
_SOLVE_CALLS = global_registry().counter("planner.solve_calls")
_SEARCH_TIMER = global_registry().timer("planner.search")


@dataclass(frozen=True)
class PlannerConfig:
    """Planner options.

    Attributes
    ----------
    amplification_limit:
        Default GPU-sec amplification allowed per layer (the user's
        "inefficiency tolerance").  1.0 forbids any inefficiency; the paper's
        experiments sweep this knob to trade foreground speed for reclaimable
        GPU time (Figure 10).
    powers_of_two_only:
        Restrict layer widths to powers of two (the paper's search-space
        optimization, Section 7.4).  Disable for the ablation study.
    """

    amplification_limit: float = 2.0
    powers_of_two_only: bool = True

    def __post_init__(self) -> None:
        if self.amplification_limit < 1.0:
            raise ValueError("amplification_limit must be at least 1.0")


class BurstParallelPlanner:
    """Finds the per-layer GPU scaling that minimizes iteration time."""

    def __init__(
        self,
        fabric: NetworkFabric,
        profiler: Optional[LayerProfiler] = None,
        config: Optional[PlannerConfig] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.fabric = fabric
        self.profiler = profiler if profiler is not None else LayerProfiler()
        self.config = config if config is not None else PlannerConfig()
        #: Optional persistent plan store.  When set, ``plan()`` is looked up
        #: by the content fingerprint of its full derivation (cost-model
        #: identity + GPU budget + amplification limit + search-space config)
        #: before any search runs, and computed plans are written back — so a
        #: warm cache skips the chain DP *and* every profile query under it.
        self.cache = cache
        # Cost models are pure functions of (graph, global batch) for a fixed
        # fabric/profiler, so one planner reuses them across plan() calls:
        # planning the same model at several GPU budgets (the grid benchmark,
        # the scheduler's re-planning) hits warm comp/sync/comm caches instead
        # of re-deriving every layer cost from scratch.  Keying by object id
        # is safe while an entry lives, because the cost model keeps its graph
        # alive; the graph version in the key makes a graph grown by
        # add_layer get a fresh cost model (and plan fingerprint).  LRU
        # eviction bounds the cache for planners fed an unbounded stream of
        # distinct graphs.
        self._cost_models: "OrderedDict[Tuple[int, int, int], PlannerCostModel]" = (
            OrderedDict()
        )

    #: Distinct (graph, global batch) cost models kept warm per planner.
    _COST_MODEL_CACHE_SIZE = 32

    def _cost_model(self, graph: ModelGraph, global_batch: int) -> PlannerCostModel:
        key = (id(graph), graph.version, global_batch)
        costs = self._cost_models.get(key)
        if costs is None or costs.graph is not graph:
            costs = PlannerCostModel(
                graph=graph,
                global_batch=global_batch,
                fabric=self.fabric,
                profiler=self.profiler,
            )
            self._cost_models[key] = costs
            if len(self._cost_models) > self._COST_MODEL_CACHE_SIZE:
                self._cost_models.popitem(last=False)
        self._cost_models.move_to_end(key)
        return costs

    def clear_caches(self) -> None:
        """Drop memoized cost models (and the profiler's timing memo).

        The persistent cache (when configured) is left untouched: its entries
        are content-addressed and never stale.
        """
        self._cost_models.clear()
        self.profiler.clear_cache()

    def fingerprint(self) -> str:
        """Content fingerprint of this planner's configuration.

        Covers the fabric, the profiler identity and the planner config —
        everything besides the per-call (graph, batch, budget) inputs that
        determines a plan.  Schedulers include it in their plan-cache keys so
        two schedulers sharing one cache (or a scheduler whose planner was
        swapped) can never alias plans across planner configurations.
        """
        return fingerprint(
            "planner",
            fabric_fingerprint(self.fabric),
            self.profiler.fingerprint(),
            planner_config_fingerprint(self.config),
        )

    def _plan_key(
        self, costs: PlannerCostModel, total_gpus: int, amp_limit: float
    ) -> str:
        # float("inf") has no canonical JSON form; name it explicitly.
        amp = "inf" if math.isinf(amp_limit) else amp_limit
        return fingerprint(
            "plan",
            costs.fingerprint(),
            total_gpus,
            amp,
            self.config.powers_of_two_only,
        )

    # ------------------------------------------------------------------ plans
    def plan(
        self,
        graph: ModelGraph,
        global_batch: int,
        total_gpus: int,
        amplification_limit: Optional[float] = None,
    ) -> TrainingPlan:
        """Produce a burst-parallel plan for one foreground training job."""
        amp_limit = (
            amplification_limit
            if amplification_limit is not None
            else self.config.amplification_limit
        )
        if amp_limit < 1.0:
            raise ValueError("amplification_limit must be at least 1.0")
        _PLAN_REQUESTS.add(1)
        start = time.perf_counter()
        costs = self._cost_model(graph, global_batch)
        if self.cache is not None:
            key = self._plan_key(costs, total_gpus, amp_limit)
            payload = self.cache.get("plan", key)
            if payload is not None:
                try:
                    plan = TrainingPlan.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    pass  # foreign payload shape: fall through and recompute
                else:
                    _PLAN_CACHE_HITS.add(1)
                    return plan
        candidates = candidate_gpu_counts(
            total_gpus, global_batch, self.config.powers_of_two_only
        )
        _SOLVE_CALLS.add(1)
        with _SEARCH_TIMER.time():
            nodes = build_chain_nodes(graph, costs, candidates, total_gpus, amp_limit)
            solution = solve_chain(nodes, amp_limit)

        assignments = chain_assignments(nodes, solution.decisions, entry_gpus=1)
        search_time = time.perf_counter() - start

        plan = TrainingPlan(
            model_name=graph.name,
            global_batch=global_batch,
            total_gpus=total_gpus,
            amplification_limit=amp_limit,
            assignments=assignments,
            iteration_time=solution.total_time,
            search_time=search_time,
        )
        if self.cache is not None:
            # JSON round-trips floats exactly, so every process sharing the
            # cache reconstructs a byte-identical plan (search_time included:
            # cached plans report the wall time of the original search).
            self.cache.put("plan", key, plan.to_dict())
        return plan

    def data_parallel_plan(
        self, graph: ModelGraph, global_batch: int, total_gpus: int
    ) -> TrainingPlan:
        """The conventional data-parallel baseline: every layer on all GPUs."""
        start = time.perf_counter()
        costs = self._cost_model(graph, global_batch)
        width = min(total_gpus, global_batch)
        assignments = []
        for lid in graph.layer_ids():
            spec = graph.spec(lid)
            assignments.append(
                LayerAssignment(
                    layer_id=lid,
                    layer_name=spec.name,
                    op=spec.op,
                    num_gpus=width,
                    compute_time=costs.comp(lid, width),
                    sync_time=costs.sync(lid, width),
                    comm_time=0.0,
                )
            )
        iteration_time = sum(a.stage_time for a in assignments)
        return TrainingPlan(
            model_name=graph.name,
            global_batch=global_batch,
            total_gpus=total_gpus,
            amplification_limit=float("inf"),
            assignments=assignments,
            iteration_time=iteration_time,
            search_time=time.perf_counter() - start,
        )

    def single_gpu_plan(self, graph: ModelGraph, global_batch: int) -> TrainingPlan:
        """The whole model on a single GPU (speedup reference of Figure 10)."""
        return self.data_parallel_plan(graph, global_batch, total_gpus=1)
