"""Burst-parallel training planner (the paper's Section 4).

Public API:

* :class:`~repro.core.planner.planner.BurstParallelPlanner` — produce burst
  parallel, data-parallel, and single-GPU training plans.
* :class:`~repro.core.planner.plan.TrainingPlan` /
  :class:`~repro.core.planner.plan.LayerAssignment` — the plan artifact
  (JSON-serializable, consumed by the cluster simulator).
* :class:`~repro.core.planner.costs.PlannerCostModel` — the
  ``comp``/``sync``/``comm`` cost inputs.
* :func:`~repro.core.planner.linear_search.solve_chain` — Algorithm 1.
* :func:`~repro.core.planner.graph_reduction.build_chain_nodes` — the
  multi-chain graph reduction (Figure 7).
"""

from .costs import PlannerCostModel, candidate_gpu_counts
from .graph_reduction import BlockNode, LayerNode, build_chain_nodes
from .linear_search import ChainSolution, NodeDecision, solve_chain
from .plan import LayerAssignment, TrainingPlan
from .planner import BurstParallelPlanner, PlannerConfig

__all__ = [
    "BurstParallelPlanner",
    "PlannerConfig",
    "TrainingPlan",
    "LayerAssignment",
    "PlannerCostModel",
    "candidate_gpu_counts",
    "solve_chain",
    "ChainSolution",
    "NodeDecision",
    "build_chain_nodes",
    "BlockNode",
    "LayerNode",
]
