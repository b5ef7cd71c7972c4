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
  relaxed once per ``g`` and then extended by one join-sink row that holds
  every ``h`` (each width in a row is relaxed independently, so this equals
  one sink per ``h``): two relaxed chains per branch per entry width.  Layer
  assignments are built only for the blocks in the plan.
* Nested branch/join structures (such as the split 1x3 / 3x1 tails inside
  InceptionE) become blocks inside a branch's chain.
* Blocks with the same *signature* share one ``(g, h)`` table per search.
  The signature is the branching and joining layers' cost shapes, the
  identity flag and, per branch, the cost shapes and nested block
  signatures of its chain: everything a block's transition cost reads.  So
  the table's entries are exact for every block that shares it, and each
  distinct block (ResNet-101 has 8 among its 33) is relaxed once per plan.
  A table entry names branches by index, and each block builds its layer
  assignments from its own branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ...models.graph import BranchBlock, ChainElement, ModelGraph
from .costs import PlannerCostModel, SearchRows
from .linear_search import NodeDecision, chain_assignments, relax_chain
from .plan import LayerAssignment

__all__ = ["LayerNode", "BlockNode", "build_chain_nodes"]


@dataclass
class LayerNode:
    """A single trunk layer in the reduced chain."""

    costs: PlannerCostModel
    layer_id: int
    candidates: Sequence[int]
    cost_rows: SearchRows

    def __post_init__(self) -> None:
        spec = self.costs.graph.spec(self.layer_id)
        self.exit_layer_id = self.layer_id
        self.shape = self.costs.cost_shape(self.layer_id)
        self._name = spec.name
        self._op = spec.op

    def candidate_gpus(self) -> Sequence[int]:
        return self.candidates

    def node_costs(self, widths: Sequence[int]) -> Sequence[float]:
        return self.cost_rows.node_cost_row(self.layer_id, widths)

    def single_gpu_cost(self) -> float:
        return self.costs.shape_comp(self.shape, 1)

    def transition_columns(
        self,
        prev_exit_layer: Optional[int],
        prev_widths: Sequence[int],
        widths: Sequence[int],
    ) -> Sequence[Sequence[float]]:
        return _comm_columns(
            self.cost_rows, prev_exit_layer, prev_widths, self.layer_id, widths
        )

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
                compute_time=self.costs.shape_comp(self.shape, num_gpus),
                sync_time=self.costs.shape_sync(self.shape, num_gpus),
                comm_time=transition_time,
            )
        ]


@dataclass
class _BranchOutcome:
    """One branch's best path for a fixed (branch-layer, join-layer) pair.

    Layer assignments are only built from the path's decisions if the block
    ends up in the plan.  The outcome names its branch by index, so blocks
    that share a table each rebuild the assignments from their own layers.
    """

    time: float
    max_gpus: int
    #: Index into the block's branches, and the branch's backtraced
    #: decisions; the identity branch has neither.
    branch: Optional[int] = None
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
    cost_rows: SearchRows
    #: (g, h) -> schedule, shared by every block with the same signature in
    #: one search.
    table: Dict[Tuple[int, int], _Schedule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = self.costs.graph.spec(self.join_layer_id)
        self.exit_layer_id = self.join_layer_id
        self.join_shape = self.costs.cost_shape(self.join_layer_id)
        self._name = spec.name
        self._op = spec.op

    # --------------------------------------------------------------- protocol
    def candidate_gpus(self) -> Sequence[int]:
        return self.candidates

    def node_costs(self, widths: Sequence[int]) -> Sequence[float]:
        return self.cost_rows.node_cost_row(self.join_layer_id, widths)

    def single_gpu_cost(self) -> float:
        return self.costs.shape_comp(self.join_shape, 1)

    def transition_columns(
        self,
        prev_exit_layer: Optional[int],
        prev_widths: Sequence[int],
        widths: Sequence[int],
    ) -> Sequence[Sequence[float]]:
        del prev_exit_layer  # always the branching layer
        schedule = self._schedule
        return [[schedule(h, g)[0] for h in prev_widths] for g in widths]

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
            compute_time=self.costs.shape_comp(self.join_shape, num_gpus),
            sync_time=self.costs.shape_sync(self.join_shape, num_gpus),
            comm_time=0.0,
        )
        return branch_assignments + [join_assignment]

    # ------------------------------------------------------------------ block
    def _schedule(self, branch_gpus: int, join_gpus: int) -> _Schedule:
        """Block time for one (g, h) pair; ``h`` is one of the candidate widths."""
        key = (branch_gpus, join_gpus)
        if key not in self.table:
            self._solve_entry_width(branch_gpus)
        return self.table[key]

    def _solve_entry_width(self, branch_gpus: int) -> None:
        """Solve the block from one branch-layer width to every join width.

        Only a branch's hand-off to the joining layer depends on the join
        width, so each branch's forward rows are relaxed once here and then
        extended by one join-sink row over every join width.  The rows are
        dropped afterwards; only the backtraced paths are kept.
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
        sink = _JoinSinkNode(self.cost_rows, self.join_layer_id, self.candidates)
        sink_rows = [rows.then([sink], self.amp_limit) for rows in branch_rows]
        # (branch index, last width) -> (decisions, widest width); join
        # widths share paths.
        paths: Dict[Tuple[int, int], Tuple[List[NodeDecision], int]] = {}
        for j, join_gpus in enumerate(self.candidates):
            outcomes = []
            for index, (rows, tail) in enumerate(zip(branch_rows, sink_rows)):
                last_gpus = tail.parent[0][j]
                path = paths.get((index, last_gpus))
                if path is None:
                    decisions = rows.backtrace(last_gpus)
                    path = paths[index, last_gpus] = (
                        decisions, max(d.num_gpus for d in decisions)
                    )
                outcomes.append(
                    _BranchOutcome(
                        time=tail.s[0][j],
                        max_gpus=path[1],
                        branch=index,
                        decisions=path[0],
                    )
                )
            if self.has_identity_branch:
                # Identity branch (e.g. a residual shortcut): only the
                # producer's activations must reach the join layer's GPUs.
                time = self.costs.comm(
                    self.branch_layer_id, branch_gpus, self.join_layer_id, join_gpus
                )
                outcomes.append(_BranchOutcome(time=time, max_gpus=0))
            self.table[branch_gpus, join_gpus] = self._compose(outcomes)

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
            if outcome.branch is None:
                continue
            nodes = self.branches[outcome.branch]
            for a in chain_assignments(nodes, outcome.decisions, branch_gpus):
                assignments.append(replace(a, parallel_branch=True) if runs_parallel else a)
        return block_time, assignments


@dataclass
class _JoinSinkNode:
    """Virtual terminal node pricing a branch's hand-off to the join layer.

    Its row holds every join width, each relaxed independently from the
    branch's last row.
    """

    cost_rows: SearchRows
    join_layer_id: int
    join_gpus: Sequence[int]

    def __post_init__(self) -> None:
        self.exit_layer_id = self.join_layer_id

    def candidate_gpus(self) -> Sequence[int]:
        return self.join_gpus

    def node_costs(self, widths: Sequence[int]) -> Sequence[float]:
        return (0.0,) * len(widths)

    def single_gpu_cost(self) -> float:
        return 0.0

    def transition_columns(
        self,
        prev_exit_layer: Optional[int],
        prev_widths: Sequence[int],
        widths: Sequence[int],
    ) -> Sequence[Sequence[float]]:
        return _comm_columns(
            self.cost_rows, prev_exit_layer, prev_widths, self.join_layer_id, widths
        )

    def assignments(
        self, prev_gpus: int, num_gpus: int, stage_time: float, transition_time: float
    ) -> List[LayerAssignment]:
        return []


def _comm_columns(
    cost_rows: SearchRows,
    prev_exit_layer: Optional[int],
    prev_widths: Sequence[int],
    layer_id: int,
    widths: Sequence[int],
) -> Sequence[Sequence[float]]:
    """Redistribution columns into ``layer_id``; free from the model input."""
    if prev_exit_layer is None:
        return ((0.0,) * len(prev_widths),) * len(widths)
    return cost_rows.comm_columns(prev_exit_layer, prev_widths, layer_id, widths)


def _chain_nodes(
    chain: Sequence[ChainElement],
    costs: PlannerCostModel,
    candidates: Sequence[int],
    total_gpus: int,
    amp_limit: float,
    tables: Dict[Hashable, Dict[Tuple[int, int], _Schedule]],
    cost_rows: SearchRows,
) -> Tuple[List[object], Tuple[Hashable, ...]]:
    """The chain's planner nodes and its signature (one entry per element).

    A layer's entry is its cost shape and a block's is its own signature,
    under which it finds the table it shares with every identical block.
    """
    nodes: List[object] = []
    signature: List[Hashable] = []
    for element in chain:
        if not isinstance(element, BranchBlock):
            node = LayerNode(costs, element, candidates, cost_rows)
            nodes.append(node)
            signature.append(node.shape)
            continue
        branches = [
            _chain_nodes(branch, costs, candidates, total_gpus, amp_limit, tables, cost_rows)
            for branch in element.branches
        ]
        block_signature = (
            costs.cost_shape(element.branch_layer),
            costs.cost_shape(element.join_layer),
            element.has_identity_branch,
            tuple(branch_signature for _, branch_signature in branches),
        )
        nodes.append(
            BlockNode(
                costs=costs,
                branch_layer_id=element.branch_layer,
                join_layer_id=element.join_layer,
                branches=[branch_nodes for branch_nodes, _ in branches],
                has_identity_branch=element.has_identity_branch,
                candidates=candidates,
                total_gpus=total_gpus,
                amp_limit=amp_limit,
                cost_rows=cost_rows,
                table=tables.setdefault(block_signature, {}),
            )
        )
        signature.append(block_signature)
    return nodes, tuple(signature)


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
    :class:`BlockNode`, and blocks with the same signature share one table.
    The structure comes from the graph's memoized
    :meth:`~repro.models.graph.ModelGraph.chain_reduction`; only the nodes,
    which carry this search's widths, tables and cost rows, are built per
    call.
    """
    nodes, _ = _chain_nodes(
        graph.chain_reduction(), costs, candidates, total_gpus, amp_limit, {},
        SearchRows(costs),
    )
    return nodes
