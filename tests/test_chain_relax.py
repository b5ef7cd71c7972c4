"""Differential tests for the chain DP's row-and-column inner loop.

``_relax`` reads each node's stage costs as one row and its transition costs
as one column per width.  The reference here is the earlier form of the
recurrence: dict rows, and one ``node_cost(g)`` / ``transition_cost(prev,
h, g)`` call per width and per ``(g, h)`` pair, with the amplification
filter written ``prev_amp <= max(best_amp, amp_limit)``.  Both must agree
exactly (``==``, not approx) on every row, on the relaxation count and on
the backtraced plan: on generated chains of synthetic nodes, and on every
registry model's plan at 1-32 GPUs.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.planner import (
    BlockNode,
    BurstParallelPlanner,
    PlannerConfig,
    PlannerCostModel,
    build_chain_nodes,
    candidate_gpu_counts,
    solve_chain,
)
from repro.core.planner.graph_reduction import LayerNode
from repro.core.planner.linear_search import NodeDecision, chain_assignments, relax_chain
from repro.models import registry
from repro.network import get_fabric
from repro.profiler import LayerProfiler

# --------------------------------------------------------------------------
# The reference recurrence: per-(g, h) calls over dict rows.
# --------------------------------------------------------------------------


@dataclass
class ReferenceRows:
    candidates: List[List[int]]
    s: List[Dict[int, float]]
    t: List[Dict[int, float]]
    trans: List[Dict[int, float]]
    amp: List[Dict[int, float]]
    parent: List[Dict[int, int]]
    exit_layer_id: Optional[int]
    relaxations: int

    def then(self, nodes, amp_limit: float) -> "ReferenceRows":
        return reference_relax_after(
            nodes, amp_limit, self.candidates[-1], self.exit_layer_id,
            self.s[-1], self.amp[-1],
        )

    def final_gpus(self, amp_limit: float) -> int:
        s_row, amp_row = self.s[-1], self.amp[-1]
        feasible = [g for g in s_row if amp_row[g] <= amp_limit]
        pool = feasible if feasible else list(s_row)
        return min(pool, key=lambda g: s_row[g])

    def backtrace(self, final_gpus: int) -> List[NodeDecision]:
        decisions = []
        g = final_gpus
        for i in range(len(self.s) - 1, -1, -1):
            decisions.append(
                NodeDecision(i, g, self.t[i][g], self.trans[i][g], self.amp[i][g])
            )
            g = self.parent[i][g]
        decisions.reverse()
        return decisions


def _reference_amplification(node, num_gpus: int, stage_time: float) -> float:
    base = node.single_gpu_cost()
    if base <= 0.0:
        return 0.0
    return stage_time * num_gpus / base


def reference_relax_after(
    nodes,
    amp_limit: float,
    prev_candidates: Sequence[int],
    prev_exit: Optional[int],
    prev_s_row: Dict[int, float],
    prev_amp_row: Dict[int, float],
) -> ReferenceRows:
    """Algorithm 1 as one method call per width and per (g, h) pair."""
    rows = ReferenceRows([], [], [], [], [], [], prev_exit, 0)
    relaxations = 0
    inf = float("inf")
    for node in nodes:
        candidates = list(node.candidate_gpus())
        s_row: Dict[int, float] = {}
        t_row: Dict[int, float] = {}
        trans_row: Dict[int, float] = {}
        parent_row: Dict[int, int] = {}
        amp_row: Dict[int, float] = {}
        for g in candidates:
            best_amp = inf
            best_s = inf
            best_t = inf
            best_parent = prev_candidates[0]
            for h in prev_candidates:
                prev_amp = prev_amp_row[h]
                prev_s = prev_s_row[h]
                trans = node.transition_cost(prev_exit, h, g)
                relaxations += 1
                if prev_amp <= max(best_amp, amp_limit) and prev_s + trans <= best_s:
                    best_s = prev_s + trans
                    best_t = trans
                    best_amp = min(best_amp, prev_amp)
                    best_parent = h
            stage = node.node_cost(g)
            s_row[g] = best_s + stage
            t_row[g] = best_t + stage
            trans_row[g] = best_t
            parent_row[g] = best_parent
            amp_row[g] = _reference_amplification(node, g, t_row[g])
        rows.candidates.append(candidates)
        rows.s.append(s_row)
        rows.t.append(t_row)
        rows.trans.append(trans_row)
        rows.parent.append(parent_row)
        rows.amp.append(amp_row)
        prev_candidates, prev_exit = candidates, node.exit_layer_id
        prev_s_row, prev_amp_row = s_row, amp_row
    rows.exit_layer_id = prev_exit
    rows.relaxations = relaxations
    return rows


def reference_relax(
    nodes,
    amp_limit: float,
    entry_gpus: Sequence[int] = (1,),
    entry_exit_layer: Optional[int] = None,
    entry_base_s: Optional[Dict[int, float]] = None,
) -> ReferenceRows:
    entry_gpus = list(entry_gpus)
    base_s = dict(entry_base_s) if entry_base_s else {g: 0.0 for g in entry_gpus}
    for g in entry_gpus:
        base_s.setdefault(g, 0.0)
    entry_amp = {g: 0.0 for g in entry_gpus}
    return reference_relax_after(
        nodes, amp_limit, entry_gpus, entry_exit_layer, base_s, entry_amp
    )


def reference_solve(nodes, amp_limit, **entry) -> Tuple[ReferenceRows, List[NodeDecision]]:
    rows = reference_relax(nodes, amp_limit, **entry)
    return rows, rows.backtrace(rows.final_gpus(amp_limit))


def assert_rows_equal(rows, reference: ReferenceRows) -> None:
    assert rows.candidates == reference.candidates
    assert rows.relaxations == reference.relaxations
    for name in ("s", "t", "trans", "amp", "parent"):
        mine = [dict(zip(w, row)) for w, row in zip(rows.candidates, getattr(rows, name))]
        assert mine == getattr(reference, name), name


# --------------------------------------------------------------------------
# Generated chains of synthetic nodes.
# --------------------------------------------------------------------------

WIDTHS = (1, 2, 3, 4, 8)
#: Dyadic costs: sums are exact, so equal-s ties and amplifications exactly
#: at the limit come up often.
COSTS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class TableNode:
    """A chain node read from explicit tables, under both protocols."""

    widths: List[int]
    stage: Dict[int, float]
    base: float
    trans: Dict[Tuple[int, int], float]  # (h, g) -> cost
    exit_layer_id: int

    def candidate_gpus(self) -> Sequence[int]:
        return self.widths

    def single_gpu_cost(self) -> float:
        return self.base

    def node_costs(self, widths):
        return [self.stage[g] for g in widths]

    def transition_columns(self, prev_exit_layer, prev_widths, widths):
        return [
            [self.transition_cost(prev_exit_layer, h, g) for h in prev_widths]
            for g in widths
        ]

    # The per-pair protocol the reference reads.
    def node_cost(self, num_gpus: int) -> float:
        return self.stage[num_gpus]

    def transition_cost(self, prev_exit_layer, prev_gpus: int, num_gpus: int) -> float:
        if prev_exit_layer is None:
            return 0.0
        return self.trans[prev_gpus, num_gpus]

    def assignments(self, prev_gpus, num_gpus, stage_time, transition_time):
        return []


width_lists = st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=4, unique=True)
PAIRS = [(h, g) for h in WIDTHS for g in WIDTHS]


def cost_lists(size: int):
    return st.lists(st.sampled_from(COSTS), min_size=size, max_size=size)


@st.composite
def table_nodes(draw, exit_layer_id: int) -> TableNode:
    return TableNode(
        widths=draw(width_lists),
        stage=dict(zip(WIDTHS, draw(cost_lists(len(WIDTHS))))),
        # Zero single-GPU cost: the node never constrains amplification.
        base=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
        trans=dict(zip(PAIRS, draw(cost_lists(len(PAIRS))))),
        exit_layer_id=exit_layer_id,
    )


@st.composite
def chains(draw):
    length = draw(st.integers(min_value=1, max_value=5))
    return [draw(table_nodes(i)) for i in range(length)]


@st.composite
def entries(draw) -> dict:
    gpus = draw(width_lists)
    base_s = draw(
        st.dictionaries(st.sampled_from(gpus), st.sampled_from(COSTS[1:]), max_size=len(gpus))
    )
    return {
        "entry_gpus": gpus,
        "entry_exit_layer": draw(st.sampled_from((None, 99))),
        "entry_base_s": base_s or None,
    }


@given(
    nodes=chains(),
    entry=entries(),
    amp_limit=st.sampled_from((1.0, 1.5, 2.0, 4.0, float("inf"))),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_chains_match_reference(nodes, entry, amp_limit):
    rows = relax_chain(nodes, amp_limit, **entry)
    reference, decisions = reference_solve(nodes, amp_limit, **entry)
    assert_rows_equal(rows, reference)
    solution = solve_chain(nodes, amp_limit, **entry)
    assert solution.decisions == decisions
    assert solution.relaxations == reference.relaxations
    assert solution.total_time == reference.s[-1][decisions[-1].num_gpus]
    assert solution.s_table == reference.s
    assert solution.t_table == reference.t


def test_equal_s_ties_pick_the_last_predecessor():
    first = TableNode([1, 2, 4], {1: 1.0, 2: 1.0, 4: 1.0}, 0.0, {}, 0)
    # Every predecessor reaches width 2 at the same completion time.
    trans = {(h, g): 0.0 for h in WIDTHS for g in WIDTHS}
    second = TableNode([2], {2: 1.0}, 0.0, trans, 1)
    rows = relax_chain([first, second], 2.0)
    reference = reference_relax([first, second], 2.0)
    assert_rows_equal(rows, reference)
    assert rows.parent[1] == [4]


def test_amplification_exactly_at_the_limit_is_feasible():
    # t * g / base = 1.0 * 2 / 1.0 == 2.0 at width 2; 4.0 at width 4.
    first = TableNode([1, 2, 4], {1: 2.0, 2: 1.0, 4: 1.0}, 1.0, {}, 0)
    trans = {(h, g): 0.0 for h in WIDTHS for g in WIDTHS}
    second = TableNode([1, 2, 4], {1: 1.0, 2: 1.0, 4: 1.0}, 0.0, trans, 1)
    rows = relax_chain([first, second], 2.0)
    assert rows.amp[0] == [2.0, 2.0, 4.0]
    assert_rows_equal(rows, reference_relax([first, second], 2.0))
    # Width 4 is as fast as width 2 but amplifies past the limit, so width
    # 2, exactly at the limit, is every width's parent.
    assert rows.parent[1] == [2, 2, 2]


# --------------------------------------------------------------------------
# Registry models: the whole plan against per-pair reference nodes.
# --------------------------------------------------------------------------


class ReferenceLayer:
    """A layer priced per width and per pair from the cost model's memos.

    Unpriced, it is a join sink: only the hand-off into it costs anything.
    """

    def __init__(self, costs: PlannerCostModel, layer_id: int, widths: Sequence[int],
                 priced: bool = True):
        self.costs = costs
        self.layer_id = layer_id
        self.widths = widths
        self.exit_layer_id = layer_id
        self.priced = priced

    def candidate_gpus(self):
        return self.widths

    def node_cost(self, num_gpus):
        return self.costs.node_cost(self.layer_id, num_gpus) if self.priced else 0.0

    def single_gpu_cost(self):
        return self.costs.comp(self.layer_id, 1) if self.priced else 0.0

    def transition_cost(self, prev_exit_layer, prev_gpus, num_gpus):
        if prev_exit_layer is None:
            return 0.0
        return self.costs.comm(prev_exit_layer, prev_gpus, self.layer_id, num_gpus)


class ReferenceBlock:
    """A block searched per pair: per branch-layer width ``g``, each branch's
    rows once, then one single-width sink chain per join width ``h``.

    Blocks that share a table in the search under test share one reference
    schedule memo, so each distinct block is searched once here too.
    """

    def __init__(self, block: BlockNode, branches, schedules):
        self.block = block
        self.costs = block.costs
        self.branches = branches
        self.exit_layer_id = block.join_layer_id
        self.schedules = schedules

    def candidate_gpus(self):
        return self.block.candidates

    def node_cost(self, num_gpus):
        return self.costs.node_cost(self.block.join_layer_id, num_gpus)

    def single_gpu_cost(self):
        return self.costs.comp(self.block.join_layer_id, 1)

    def transition_cost(self, prev_exit_layer, prev_gpus, num_gpus):
        return self.schedule(prev_gpus, num_gpus)[0]

    def schedule(self, g: int, h: int):
        """(block time, [(branch index, decisions, runs parallel)])."""
        if (g, h) not in self.schedules:
            self._solve_entry_width(g)
        return self.schedules[g, h]

    def _solve_entry_width(self, g: int) -> None:
        block = self.block
        branch_rows = [
            reference_relax(
                branch, block.amp_limit, entry_gpus=[g],
                entry_exit_layer=block.branch_layer_id,
            )
            for branch in self.branches
        ]
        for h in block.candidates:
            sink = ReferenceLayer(self.costs, block.join_layer_id, [h], priced=False)
            outcomes = []
            for index, rows in enumerate(branch_rows):
                tail = rows.then([sink], block.amp_limit)
                decisions = rows.backtrace(tail.parent[0][h])
                outcomes.append(
                    (tail.s[0][h], max(d.num_gpus for d in decisions), index, decisions)
                )
            if block.has_identity_branch:
                time = self.costs.comm(block.branch_layer_id, g, block.join_layer_id, h)
                outcomes.append((time, 0, None, []))
            self.schedules[g, h] = _compose(outcomes, block.total_gpus)


def _compose(outcomes, total_gpus: int):
    outcomes.sort(key=lambda o: o[0], reverse=True)
    critical = outcomes[0]
    block_time = critical[0]
    budget = total_gpus - max(critical[1], 1)
    schedule = [(critical[2], critical[3], False)]
    for time, max_gpus, index, decisions in outcomes[1:]:
        parallel = time <= critical[0] and max_gpus <= budget
        if parallel:
            budget -= max_gpus
        else:
            block_time += time
        schedule.append((index, decisions, parallel))
    return block_time, schedule


def reference_nodes(nodes, schedules: Dict[int, dict]) -> list:
    """Per-pair reference counterparts of a search's chain nodes."""
    reference = []
    for node in nodes:
        if isinstance(node, BlockNode):
            branches = [reference_nodes(b, schedules) for b in node.branches]
            memo = schedules.setdefault(id(node.table), {})
            reference.append(ReferenceBlock(node, branches, memo))
        else:
            assert isinstance(node, LayerNode)
            reference.append(ReferenceLayer(node.costs, node.layer_id, node.candidates))
    return reference


def assert_blocks_match(nodes, reference, checked: set) -> None:
    """Every distinct block, nested ones included, has the reference's schedules."""
    for node, ref in zip(nodes, reference):
        if not isinstance(node, BlockNode) or id(node.table) in checked:
            continue
        checked.add(id(node.table))
        for key, (time, schedule) in node.table.items():
            mine = [(o.branch, o.decisions, parallel) for o, parallel in schedule]
            assert (time, mine) == ref.schedule(*key), (node.join_layer_id, key)
        for branch, ref_branch in zip(node.branches, ref.branches):
            assert_blocks_match(branch, ref_branch, checked)


#: GPU budgets per width grid.  The all-integers grid stops at 8 GPUs: its
#: relaxations grow with the square of the budget, so up to 16 GPUs the four
#: branching models take ~30 s on a 2-core Xeon (~5 s up to 8 GPUs).
BUDGETS = {True: (1, 2, 4, 8, 16, 32), False: (1, 2, 3, 5, 8)}


@pytest.mark.parametrize("powers_of_two_only", [True, False])
@pytest.mark.parametrize("model", registry.available_models())
def test_registry_plans_match_reference(model, powers_of_two_only):
    graph = registry.build_model(model)
    fabric = get_fabric("nvswitch")
    for amp_limit in (1.0, 2.0, float("inf")):
        planner = BurstParallelPlanner(
            fabric, LayerProfiler(), PlannerConfig(amp_limit, powers_of_two_only)
        )
        for gpus in BUDGETS[powers_of_two_only]:
            batch = max(registry.model_entry(model).default_global_batch, gpus)
            widths = candidate_gpu_counts(gpus, batch, powers_of_two_only)
            plan = planner.plan(graph, batch, gpus)
            costs = planner._cost_model(graph, batch)
            nodes = build_chain_nodes(graph, costs, widths, gpus, amp_limit)
            rows = relax_chain(nodes, amp_limit)
            ref_nodes = reference_nodes(nodes, {})
            reference, decisions = reference_solve(ref_nodes, amp_limit)
            assert_rows_equal(rows, reference)
            assert plan.iteration_time == reference.s[-1][decisions[-1].num_gpus]
            assert plan.assignments == chain_assignments(nodes, decisions, 1)
            assert_blocks_match(nodes, ref_nodes, set())
