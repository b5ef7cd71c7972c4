"""Graph reduction: turning a branching DNN graph into a chain of blocks.

Models such as Inception-V3 are not simple chains: a layer may fan out into
several parallel branches that later join (concatenation), and branches may
nest.  The paper (Section 4.2, Figure 7) reduces such graphs to a chain by
identifying, for every branching layer, the matching joining layer and
treating everything in between as a single chain element whose transition
cost is obtained from per-branch linear searches.

Implementation outline
----------------------
* :meth:`ModelGraph.chain_reduction` computes the structure once per graph:
  the *trunk* (the dominator chain of the sink, i.e. the layers every
  input-to-output path passes through) and, between consecutive trunk
  layers with other layers between them, a block whose branches are the
  weakly connected components of those layers, reduced recursively.  Trunk
  layers become ordinary :class:`LayerNode` elements and blocks become
  :class:`BlockNode` elements; a direct edge between the trunk layers adds
  an empty "identity" branch (e.g. a residual shortcut).
* A :class:`BlockNode`'s transition cost ``tr((A1, g) -> (A2, h))`` runs the
  linear search on every branch with the branching layer fixed at ``g`` and
  the joining layer fixed at ``h``, then lets the joining layer pick the
  critical branch and schedule each non-critical branch either concurrently
  (on spare GPUs, if it fits within the critical branch's time) or serially —
  exactly the procedure of Figure 7, step 2.  Only the branch's hand-off to
  the joining layer depends on ``h``, so each branch's forward rows are
  relaxed once per ``g`` and only the final join-sink row is priced per
  ``h``; layer assignments are built only for the blocks in the plan.
* Nested branch/join structures (such as the split 1x3 / 3x1 tails inside
  InceptionE) become blocks inside a branch's chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ...models.graph import BranchBlock, ChainElement, ModelGraph
from .costs import PlannerCostModel
from .linear_search import NodeDecision, chain_assignments, relax_chain
from .plan import LayerAssignment

__all__ = ["LayerNode", "BlockNode", "build_chain_nodes"]


@dataclass
class LayerNode:
    """A single trunk layer in the reduced chain."""

    costs: PlannerCostModel
    layer_id: int
    candidates: Sequence[int]

    def __post_init__(self) -> None:
        spec = self.costs.graph.spec(self.layer_id)
        self.exit_layer_id = self.layer_id
        self._name = spec.name
        self._op = spec.op

    def candidate_gpus(self) -> Sequence[int]:
        return self.candidates

    def node_cost(self, num_gpus: int) -> float:
        return self.costs.node_cost(self.layer_id, num_gpus)

    def single_gpu_cost(self) -> float:
        return self.costs.comp(self.layer_id, 1)

    def transition_cost(
        self, prev_exit_layer: Optional[int], prev_gpus: int, num_gpus: int
    ) -> float:
        if prev_exit_layer is None:
            return 0.0
        return self.costs.comm(prev_exit_layer, prev_gpus, self.layer_id, num_gpus)

    def assignments(
        self, prev_gpus: int, num_gpus: int, stage_time: float, transition_time: float
    ) -> List[LayerAssignment]:
        del prev_gpus, stage_time
        return [
            LayerAssignment(
                layer_id=self.layer_id,
                layer_name=self._name,
                op=self._op,
                num_gpus=num_gpus,
                compute_time=self.costs.comp(self.layer_id, num_gpus),
                sync_time=self.costs.sync(self.layer_id, num_gpus),
                comm_time=transition_time,
            )
        ]


@dataclass
class _BranchOutcome:
    """One branch's best path for a fixed (branch-layer, join-layer) pair.

    Layer assignments are only built from the path's decisions if the block
    ends up in the plan.
    """

    time: float
    max_gpus: int
    #: The branch's chain nodes and backtraced decisions; none for the
    #: identity branch.
    nodes: List[object] = field(default_factory=list)
    decisions: List[NodeDecision] = field(default_factory=list)


#: A block's time for one (g, h) pair, with each branch's outcome flagged
#: True if it runs in parallel with the critical branch.
_Schedule = Tuple[float, List[Tuple[_BranchOutcome, bool]]]


@dataclass
class BlockNode:
    """A branch/join block reduced to a single chain element.

    The element's "own" layer is the joining layer; the branches contribute
    through the transition cost from the branching layer's width to the
    joining layer's width.
    """

    costs: PlannerCostModel
    branch_layer_id: int
    join_layer_id: int
    branches: List[List[object]]  # lists of ChainNode-compatible elements
    has_identity_branch: bool
    candidates: Sequence[int]
    total_gpus: int
    amp_limit: float

    def __post_init__(self) -> None:
        spec = self.costs.graph.spec(self.join_layer_id)
        self.exit_layer_id = self.join_layer_id
        self._name = spec.name
        self._op = spec.op
        self._cache: Dict[Tuple[int, int], _Schedule] = {}

    # --------------------------------------------------------------- protocol
    def candidate_gpus(self) -> Sequence[int]:
        return self.candidates

    def node_cost(self, num_gpus: int) -> float:
        return self.costs.node_cost(self.join_layer_id, num_gpus)

    def single_gpu_cost(self) -> float:
        return self.costs.comp(self.join_layer_id, 1)

    def transition_cost(
        self, prev_exit_layer: Optional[int], prev_gpus: int, num_gpus: int
    ) -> float:
        del prev_exit_layer  # always the branching layer
        time, _ = self._schedule(prev_gpus, num_gpus)
        return time

    def assignments(
        self, prev_gpus: int, num_gpus: int, stage_time: float, transition_time: float
    ) -> List[LayerAssignment]:
        del stage_time, transition_time
        _, branch_assignments = self._solve_block(prev_gpus, num_gpus)
        join_assignment = LayerAssignment(
            layer_id=self.join_layer_id,
            layer_name=self._name,
            op=self._op,
            num_gpus=num_gpus,
            compute_time=self.costs.comp(self.join_layer_id, num_gpus),
            sync_time=self.costs.sync(self.join_layer_id, num_gpus),
            comm_time=0.0,
        )
        return branch_assignments + [join_assignment]

    # ------------------------------------------------------------------ block
    def _schedule(self, branch_gpus: int, join_gpus: int) -> _Schedule:
        """Block time for one (g, h) pair; ``h`` is one of the candidate widths."""
        key = (branch_gpus, join_gpus)
        if key not in self._cache:
            self._solve_entry_width(branch_gpus)
        return self._cache[key]

    def _solve_entry_width(self, branch_gpus: int) -> None:
        """Solve the block from one branch-layer width to every join width.

        Only a branch's hand-off to the joining layer depends on the join
        width, so each branch's forward rows are relaxed once here and then
        extended by one join-sink row per join width.  The rows are dropped
        afterwards; only the backtraced paths are kept.
        """
        branch_rows = [
            relax_chain(
                branch,
                self.amp_limit,
                entry_gpus=[branch_gpus],
                entry_exit_layer=self.branch_layer_id,
            )
            for branch in self.branches
        ]
        # (branch index, last width) -> decisions; join widths share paths.
        paths: Dict[Tuple[int, int], List[NodeDecision]] = {}
        for join_gpus in self.candidates:
            sink = _JoinSinkNode(self.costs, self.join_layer_id, join_gpus)
            outcomes = []
            for index, (nodes, rows) in enumerate(zip(self.branches, branch_rows)):
                tail = rows.then([sink], self.amp_limit)
                last_gpus = tail.parent[0][join_gpus]
                decisions = paths.get((index, last_gpus))
                if decisions is None:
                    decisions = paths[index, last_gpus] = rows.backtrace(last_gpus)
                outcomes.append(
                    _BranchOutcome(
                        time=tail.s[0][join_gpus],
                        max_gpus=max(d.num_gpus for d in decisions),
                        nodes=nodes,
                        decisions=decisions,
                    )
                )
            if self.has_identity_branch:
                # Identity branch (e.g. a residual shortcut): only the
                # producer's activations must reach the join layer's GPUs.
                time = self.costs.comm(
                    self.branch_layer_id, branch_gpus, self.join_layer_id, join_gpus
                )
                outcomes.append(_BranchOutcome(time=time, max_gpus=0))
            self._cache[branch_gpus, join_gpus] = self._compose(outcomes)

    def _compose(self, outcomes: List[_BranchOutcome]) -> _Schedule:
        """Block time of the branch outcomes, each flagged if run in parallel.

        The joining layer waits for the critical (slowest) branch; other
        branches may run concurrently on spare GPUs if they fit within the
        critical branch's time, otherwise they serialize (Figure 7, step 2).
        """
        outcomes.sort(key=lambda o: o.time, reverse=True)
        critical = outcomes[0]
        block_time = critical.time
        gpu_budget = self.total_gpus - max(critical.max_gpus, 1)
        schedule = [(critical, False)]
        for other in outcomes[1:]:
            # The budget never goes negative, so the identity branch (zero
            # GPUs) runs in parallel whenever it is fast enough.
            runs_parallel = other.time <= critical.time and other.max_gpus <= gpu_budget
            if runs_parallel:
                gpu_budget -= other.max_gpus
            else:
                block_time += other.time
            schedule.append((other, runs_parallel))
        return block_time, schedule

    def _solve_block(
        self, branch_gpus: int, join_gpus: int
    ) -> Tuple[float, List[LayerAssignment]]:
        """Transition time and branch assignments for one (g, h) pair."""
        block_time, schedule = self._schedule(branch_gpus, join_gpus)
        assignments: List[LayerAssignment] = []
        for outcome, runs_parallel in schedule:
            for a in chain_assignments(outcome.nodes, outcome.decisions, branch_gpus):
                assignments.append(replace(a, parallel_branch=True) if runs_parallel else a)
        return block_time, assignments


@dataclass
class _JoinSinkNode:
    """Virtual terminal node used to price a branch's hand-off to the join layer."""

    costs: PlannerCostModel
    join_layer_id: int
    join_gpus: int

    def __post_init__(self) -> None:
        self.exit_layer_id = self.join_layer_id

    def candidate_gpus(self) -> Sequence[int]:
        return [self.join_gpus]

    def node_cost(self, num_gpus: int) -> float:
        del num_gpus
        return 0.0

    def single_gpu_cost(self) -> float:
        return 0.0

    def transition_cost(
        self, prev_exit_layer: Optional[int], prev_gpus: int, num_gpus: int
    ) -> float:
        if prev_exit_layer is None:
            return 0.0
        return self.costs.comm(prev_exit_layer, prev_gpus, self.join_layer_id, num_gpus)

    def assignments(
        self, prev_gpus: int, num_gpus: int, stage_time: float, transition_time: float
    ) -> List[LayerAssignment]:
        return []


def _chain_nodes(
    chain: Sequence[ChainElement],
    costs: PlannerCostModel,
    candidates: Sequence[int],
    total_gpus: int,
    amp_limit: float,
) -> List[object]:
    nodes: List[object] = []
    for element in chain:
        if not isinstance(element, BranchBlock):
            nodes.append(LayerNode(costs, element, candidates))
            continue
        nodes.append(
            BlockNode(
                costs=costs,
                branch_layer_id=element.branch_layer,
                join_layer_id=element.join_layer,
                branches=[
                    _chain_nodes(branch, costs, candidates, total_gpus, amp_limit)
                    for branch in element.branches
                ],
                has_identity_branch=element.has_identity_branch,
                candidates=candidates,
                total_gpus=total_gpus,
                amp_limit=amp_limit,
            )
        )
    return nodes


def build_chain_nodes(
    graph: ModelGraph,
    costs: PlannerCostModel,
    candidates: Sequence[int],
    total_gpus: int,
    amp_limit: float,
) -> List[object]:
    """Reduce a model graph to the chain of planner nodes (Figure 7).

    For chain models (VGG) this is simply one :class:`LayerNode` per layer;
    for branching models each branch/join region becomes a
    :class:`BlockNode`.  The structure comes from the graph's memoized
    :meth:`~repro.models.graph.ModelGraph.chain_reduction`; only the nodes,
    which carry this search's widths and caches, are built per call.
    """
    return _chain_nodes(graph.chain_reduction(), costs, candidates, total_gpus, amp_limit)
