"""Algorithm 1: dynamic-programming search over a chain of stages.

The planner's core is a shortest-path-style dynamic program over a chain of
layers (paper Section 4.2).  For each layer ``i`` and candidate GPU count
``g`` it computes

* ``S[i][g]`` — the shortest time to complete layers ``1..i`` with layer
  ``i`` scaled to ``g`` GPUs, and
* ``T[i][g]`` — the time spent on layer ``i`` along that shortest path
  (including the communication needed to transition into it),

while restricting each layer's *GPU-sec amplification*
``Amp(i, g) = T[i][g] * g / comp(i, 1)`` to the user-given limit.  The
amplification filter follows the paper's Algorithm 1 exactly: a predecessor
whose amplification exceeds the limit is only usable if no predecessor with
lower amplification has been seen yet, which keeps the recurrence total (a
plan always exists) while steering the search toward efficient predecessors.

The solver works over abstract :class:`ChainNode` elements rather than raw
layers so that the multi-chain graph reduction (Figure 7) can feed it
branch/join *blocks* whose transition cost already encodes the branches.
A node hands the solver whole cost rows: its stage cost at every width, and
one transition *column* per width ``g`` holding the cost from every previous
width ``h``.  The recurrence then only zips lists; it makes no call per
``(g, h)`` pair.

The solver is split in two steps: :func:`relax_chain` computes the forward
rows (the only copy of the recurrence and its amplification filter), and
:class:`ChainRows` selects the final width and backtraces.  Rows are lists
aligned with each node's widths.  :func:`solve_chain` runs both over a whole
chain; a block reuses one branch's rows for every join width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

from ...obs.metrics import global_registry
from .plan import LayerAssignment

__all__ = [
    "ChainNode",
    "ChainRows",
    "ChainSolution",
    "NodeDecision",
    "chain_assignments",
    "relax_chain",
    "solve_chain",
]

# Process-wide total of (node, g, h) relaxations actually evaluated — added
# once per relaxed chain (not per relaxation) to keep the DP inner loop
# untouched.
_RELAXATIONS = global_registry().counter("planner.relaxations")


class ChainNode(Protocol):
    """One element of the reduced chain: a single layer or a branch/join block.

    Cost rows are sequences aligned with the widths they are asked for.  The
    solver only reads them, so a node may return shared, memoized rows.
    """

    #: Layer id whose activations feed the next chain element.
    exit_layer_id: int

    def candidate_gpus(self) -> Sequence[int]:
        """GPU counts this node may be scaled to."""

    def node_costs(self, widths: Sequence[int]) -> Sequence[float]:
        """Compute + gradient-sync time of the node at each of ``widths``."""

    def single_gpu_cost(self) -> float:
        """``comp(i, 1)``: amplification denominator for this node."""

    def transition_columns(
        self,
        prev_exit_layer: Optional[int],
        prev_widths: Sequence[int],
        widths: Sequence[int],
    ) -> Sequence[Sequence[float]]:
        """Costs of transitioning from the previous element into this node.

        One column per width ``g`` in ``widths``, holding the cost from each
        previous width ``h`` in ``prev_widths``.
        """

    def assignments(self, prev_gpus: int, num_gpus: int, stage_time: float,
                    transition_time: float) -> List[LayerAssignment]:
        """Layer assignments realized when this node runs at ``num_gpus``."""


@dataclass(frozen=True)
class NodeDecision:
    """Backtraced decision for one chain element."""

    node_index: int
    num_gpus: int
    stage_time: float
    transition_time: float
    amplification: float


@dataclass
class ChainSolution:
    """Result of the chain dynamic program."""

    decisions: List[NodeDecision]
    total_time: float
    #: Full S table (node index -> {gpus: shortest completion time}).
    s_table: List[Dict[int, float]] = field(default_factory=list)
    #: Full T table (node index -> {gpus: stage time on the shortest path}).
    t_table: List[Dict[int, float]] = field(default_factory=list)
    #: Number of (node, g, h) relaxations evaluated — a deterministic measure
    #: of search work, independent of wall-clock speed.
    relaxations: int = 0

    def gpus_per_node(self) -> List[int]:
        return [d.num_gpus for d in self.decisions]

    def max_amplification(self) -> float:
        return max((d.amplification for d in self.decisions), default=0.0)


@dataclass
class ChainRows:
    """Forward rows of Algorithm 1 over a chain.

    Per node, ``candidates`` lists its widths and every other field holds one
    list aligned with them; ``parent`` names the previous node's width on the
    shortest path.  Rows depend only on the nodes and the entry, so a caller
    may extend them with further nodes (:meth:`then`) without re-relaxing the
    prefix: the graph reduction relaxes each branch once per entry width and
    then prices one join-sink row over every join width.
    """

    candidates: List[List[int]]
    s: List[List[float]]
    t: List[List[float]]
    trans: List[List[float]]
    amp: List[List[float]]
    parent: List[List[int]]
    #: Layer id whose activations leave the last node.
    exit_layer_id: Optional[int]
    #: Number of (node, g, h) relaxations these rows took.
    relaxations: int

    def then(self, nodes: Sequence[ChainNode], amp_limit: float) -> "ChainRows":
        """Rows of ``nodes`` relaxed from this chain's last row."""
        return _relax(
            nodes, amp_limit, self.candidates[-1], self.exit_layer_id,
            self.s[-1], self.amp[-1],
        )

    def final_gpus(self, amp_limit: float) -> int:
        """Cheapest last-node width whose amplification respects the limit.

        Falls back to the overall cheapest width if the limit is infeasible
        for every width.
        """
        s_row = self.s[-1]
        feasible = [k for k, amp in enumerate(self.amp[-1]) if amp <= amp_limit]
        pool = feasible if feasible else range(len(s_row))
        return self.candidates[-1][min(pool, key=s_row.__getitem__)]

    def backtrace(self, final_gpus: int) -> List[NodeDecision]:
        """Decisions of the shortest path ending at ``final_gpus`` on the last node."""
        decisions: List[NodeDecision] = []
        g = final_gpus
        for i in range(len(self.s) - 1, -1, -1):
            k = self.candidates[i].index(g)
            decisions.append(
                NodeDecision(
                    node_index=i,
                    num_gpus=g,
                    stage_time=self.t[i][k],
                    transition_time=self.trans[i][k],
                    amplification=self.amp[i][k],
                )
            )
            g = self.parent[i][k]
        decisions.reverse()
        return decisions


def _relax(
    nodes: Sequence[ChainNode],
    amp_limit: float,
    prev_widths: List[int],
    prev_exit: Optional[int],
    prev_s: List[float],
    prev_amp: List[float],
) -> ChainRows:
    """The Algorithm 1 recurrence over ``nodes``, after a given predecessor row."""
    rows = ChainRows([], [], [], [], [], [], prev_exit, 0)
    relaxations = 0
    inf = float("inf")
    for i, node in enumerate(nodes):
        # Candidate lists are invariant across the DP, so materialize each
        # node's list exactly once instead of re-allocating it in the inner loop.
        widths = list(node.candidate_gpus())
        if not widths:
            raise ValueError(f"chain node {i} has no candidate GPU counts")
        base = node.single_gpu_cost()
        columns = node.transition_columns(prev_exit, prev_widths, widths)
        s_row: List[float] = []
        t_row: List[float] = []
        trans_row: List[float] = []
        parent_row: List[int] = []
        amp_row: List[float] = []

        for g, stage, column in zip(widths, node.node_costs(widths), columns):
            best_amp = inf
            best_s = inf
            best_t = inf
            best_parent = prev_widths[0]
            for h, s, amp, trans in zip(prev_widths, prev_s, prev_amp, column):
                # Paper's filter: accept a predecessor if its amplification is
                # within the limit (or no better-amplified predecessor has
                # been found yet) and it improves the completion time.
                if (amp <= amp_limit or amp <= best_amp) and s + trans <= best_s:
                    best_s = s + trans
                    best_t = trans
                    if amp < best_amp:
                        best_amp = amp
                    best_parent = h
            t = best_t + stage
            s_row.append(best_s + stage)
            t_row.append(t)
            trans_row.append(best_t)
            parent_row.append(best_parent)
            amp_row.append(0.0 if base <= 0.0 else t * g / base)
        relaxations += len(widths) * len(prev_widths)

        rows.candidates.append(widths)
        rows.s.append(s_row)
        rows.t.append(t_row)
        rows.trans.append(trans_row)
        rows.parent.append(parent_row)
        rows.amp.append(amp_row)
        prev_widths, prev_exit = widths, node.exit_layer_id
        prev_s, prev_amp = s_row, amp_row

    rows.exit_layer_id = prev_exit
    rows.relaxations = relaxations
    _RELAXATIONS.add(relaxations)
    return rows


def relax_chain(
    nodes: Sequence[ChainNode],
    amp_limit: float,
    entry_gpus: Sequence[int] = (1,),
    entry_exit_layer: Optional[int] = None,
    entry_base_s: Optional[Dict[int, float]] = None,
) -> ChainRows:
    """Forward rows of Algorithm 1 over a chain (arguments as :func:`solve_chain`)."""
    if not nodes:
        raise ValueError("cannot solve an empty chain")
    # Written so that NaN fails too; ``inf`` (no limit) stays legal.
    if not amp_limit >= 1.0:
        raise ValueError("amplification limit must be at least 1.0")
    entry_gpus = list(entry_gpus)
    base_s = entry_base_s or {}
    # The virtual predecessor never amplifies.
    return _relax(
        nodes, amp_limit, entry_gpus, entry_exit_layer,
        [base_s.get(g, 0.0) for g in entry_gpus], [0.0] * len(entry_gpus),
    )


def solve_chain(
    nodes: Sequence[ChainNode],
    amp_limit: float,
    entry_gpus: Sequence[int] = (1,),
    entry_exit_layer: Optional[int] = None,
    entry_base_s: Optional[Dict[int, float]] = None,
) -> ChainSolution:
    """Run Algorithm 1 over a chain of nodes.

    Parameters
    ----------
    nodes:
        The chain elements, in execution order.
    amp_limit:
        User-given GPU-sec amplification limit (``AmpLimit``): at least 1.0,
        or ``inf`` for none.
    entry_gpus:
        GPU counts the virtual predecessor of the first node may have.  For a
        whole-model search this is ``(1,)`` with zero cost (the data loader);
        for a branch search inside the graph reduction it is the branching
        layer's fixed GPU count.
    entry_exit_layer:
        Layer id of the virtual predecessor (the branching layer) whose
        activations the first node consumes, or ``None`` for the model input.
    entry_base_s:
        Optional completion time already accumulated at the virtual
        predecessor for each entry GPU count (defaults to zero).
    """
    rows = relax_chain(nodes, amp_limit, entry_gpus, entry_exit_layer, entry_base_s)
    final_g = rows.final_gpus(amp_limit)
    return ChainSolution(
        decisions=rows.backtrace(final_g),
        total_time=rows.s[-1][rows.candidates[-1].index(final_g)],
        s_table=[dict(zip(w, row)) for w, row in zip(rows.candidates, rows.s)],
        t_table=[dict(zip(w, row)) for w, row in zip(rows.candidates, rows.t)],
        relaxations=rows.relaxations,
    )


def chain_assignments(
    nodes: Sequence[ChainNode], decisions: Sequence[NodeDecision], entry_gpus: int
) -> List[LayerAssignment]:
    """Layer assignments realized by backtraced decisions over ``nodes``."""
    assignments: List[LayerAssignment] = []
    prev = entry_gpus
    for decision, node in zip(decisions, nodes):
        assignments.extend(
            node.assignments(
                prev, decision.num_gpus, decision.stage_time, decision.transition_time
            )
        )
        prev = decision.num_gpus
    return assignments
