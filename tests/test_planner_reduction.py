"""Differential tests for the graph reduction's branch search (Figure 7).

:class:`BlockNode` relaxes each branch once per entry width ``g`` and then
prices only the join-sink row for each join width ``h``.  The reference here
is the direct form of the paper's procedure: a full
``solve_chain(branch + [sink(h)])`` for every ``(g, h)`` pair and every
branch, with nested blocks solved the same way.  Both must agree exactly —
transition times and every layer assignment — on every registry model and
on generated nested branch/join graphs.
"""

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.planner import (
    BlockNode,
    PlannerCostModel,
    build_chain_nodes,
    candidate_gpu_counts,
    solve_chain,
)
from repro.core.planner.graph_reduction import LayerNode, _JoinSinkNode
from repro.core.planner.linear_search import chain_assignments
from repro.core.planner.plan import LayerAssignment
from repro.models import registry
from repro.models.graph import BranchBlock, LayerSpec, ModelGraph
from repro.network import get_fabric
from repro.profiler import LayerProfiler


class ReferenceBlock:
    """A branch/join block whose transition cost is solved from scratch per (g, h)."""

    def __init__(self, costs, block: BranchBlock, branches, candidates, total_gpus,
                 amp_limit):
        self.costs = costs
        self.block = block
        self.branches = branches
        self.candidates = candidates
        self.total_gpus = total_gpus
        self.amp_limit = amp_limit
        self.exit_layer_id = block.join_layer
        self._memo = {}

    def candidate_gpus(self) -> Sequence[int]:
        return self.candidates

    def node_cost(self, num_gpus: int) -> float:
        return self.costs.node_cost(self.block.join_layer, num_gpus)

    def single_gpu_cost(self) -> float:
        return self.costs.comp(self.block.join_layer, 1)

    def transition_cost(self, prev_exit_layer, prev_gpus: int, num_gpus: int) -> float:
        return self.solve(prev_gpus, num_gpus)[0]

    def assignments(self, prev_gpus, num_gpus, stage_time, transition_time):
        join = self.block.join_layer
        spec = self.costs.graph.spec(join)
        return self.solve(prev_gpus, num_gpus)[1] + [
            LayerAssignment(
                layer_id=join,
                layer_name=spec.name,
                op=spec.op,
                num_gpus=num_gpus,
                compute_time=self.costs.comp(join, num_gpus),
                sync_time=self.costs.sync(join, num_gpus),
                comm_time=0.0,
            )
        ]

    def _branch(self, nodes, g: int, h: int):
        """(time, max width, assignments, is_empty) of one branch."""
        if not nodes:
            time = self.costs.comm(self.block.branch_layer, g, self.block.join_layer, h)
            return time, 0, [], True
        sink = _JoinSinkNode(self.costs, self.block.join_layer, h)
        solution = solve_chain(
            list(nodes) + [sink],
            amp_limit=self.amp_limit,
            entry_gpus=[g],
            entry_exit_layer=self.block.branch_layer,
        )
        decisions = solution.decisions[:-1]
        return (
            solution.total_time,
            max(d.num_gpus for d in decisions),
            chain_assignments(nodes, decisions, g),
            False,
        )

    def solve(self, g: int, h: int) -> Tuple[float, List[LayerAssignment]]:
        if (g, h) in self._memo:
            return self._memo[(g, h)]
        outcomes = [self._branch(nodes, g, h) for nodes in self.branches]
        if self.block.has_identity_branch:
            outcomes.append(self._branch([], g, h))
        outcomes.sort(key=lambda o: o[0], reverse=True)
        crit_time, crit_gpus, crit_assignments, _ = outcomes[0]
        block_time = crit_time
        budget = self.total_gpus - max(crit_gpus, 1)
        assignments = list(crit_assignments)
        for time, max_gpus, branch_assignments, is_empty in outcomes[1:]:
            if time <= crit_time and (is_empty or max_gpus <= budget):
                budget -= max_gpus
                assignments.extend(
                    replace(a, parallel_branch=True) for a in branch_assignments
                )
            else:
                block_time += time
                assignments.extend(branch_assignments)
        self._memo[(g, h)] = (block_time, assignments)
        return self._memo[(g, h)]


def reference_nodes(chain, costs, candidates, total_gpus, amp_limit):
    nodes = []
    for element in chain:
        if isinstance(element, BranchBlock):
            branches = [
                reference_nodes(b, costs, candidates, total_gpus, amp_limit)
                for b in element.branches
            ]
            nodes.append(
                ReferenceBlock(costs, element, branches, candidates, total_gpus, amp_limit)
            )
        else:
            nodes.append(LayerNode(costs, element, candidates))
    return nodes


def assert_blocks_match(nodes, reference, candidates) -> int:
    """Compare every block, nested ones included, at every (g, h); count blocks."""
    blocks = 0
    assert len(nodes) == len(reference)
    for node, ref in zip(nodes, reference):
        assert isinstance(node, BlockNode) == isinstance(ref, ReferenceBlock)
        if not isinstance(node, BlockNode):
            continue
        blocks += 1
        for g in candidates:
            for h in candidates:
                assert node._solve_block(g, h) == ref.solve(g, h), (node.join_layer_id, g, h)
        assert len(node.branches) == len(ref.branches)
        for branch, ref_branch in zip(node.branches, ref.branches):
            blocks += assert_blocks_match(branch, ref_branch, candidates)
    return blocks


def check_against_reference(graph, global_batch, total_gpus, amp_limit) -> int:
    costs = PlannerCostModel(
        graph=graph, global_batch=global_batch, fabric=get_fabric("nvswitch"),
        profiler=LayerProfiler(),
    )
    candidates = candidate_gpu_counts(total_gpus, global_batch)
    nodes = build_chain_nodes(graph, costs, candidates, total_gpus, amp_limit)
    reference = reference_nodes(
        graph.chain_reduction(), costs, candidates, total_gpus, amp_limit
    )
    fast = solve_chain(nodes, amp_limit)
    slow = solve_chain(reference, amp_limit)
    assert fast.total_time == slow.total_time
    assert fast.decisions == slow.decisions
    assert chain_assignments(nodes, fast.decisions, 1) == chain_assignments(
        reference, slow.decisions, 1
    )
    return assert_blocks_match(nodes, reference, candidates)


@pytest.mark.parametrize("total_gpus", [8, 32])
@pytest.mark.parametrize("model", registry.available_models())
def test_registry_models_match_reference(model, total_gpus):
    graph = registry.build_model(model)
    batch = max(registry.model_entry(model).default_global_batch, total_gpus)
    blocks = check_against_reference(graph, batch, total_gpus, 2.0)
    assert (blocks > 0) == (not graph.is_chain())


# --------------------------------------------------------------------------
# Generated nested branch/join graphs.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    branches: Tuple[Tuple[object, ...], ...]
    identity: bool


def branch_chains(depth: int):
    """A branch: a layer first (single entry), then up to two more elements."""
    return st.tuples(st.just("layer"), st.lists(chain_elements(depth), max_size=2)).map(
        lambda t: (t[0], *t[1])
    )


def chain_elements(depth: int):
    if depth == 0:
        return st.just("layer")
    return st.one_of(
        st.just("layer"),
        st.builds(
            Block,
            st.lists(branch_chains(depth - 1), min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
    )


layer_sizes = st.tuples(
    st.sampled_from([1e5, 3e6, 1e8, 2e9]),        # flops per sample
    st.sampled_from([0, 500, 40_000, 3_000_000]),  # params
    st.sampled_from([64, 2_048, 100_000]),         # output elements per sample
)


def build_graph(structure, draw) -> ModelGraph:
    graph = ModelGraph("generated")
    names = iter(range(10_000))

    def add(op, inputs, sizes):
        flops, params, out = sizes
        return graph.add_layer(
            LayerSpec(f"{op}{next(names)}", op, flops, params, out, out), inputs=inputs
        )

    def add_chain(prev, chain):
        for element in chain:
            if isinstance(element, Block):
                ends = [add_chain(prev, branch) for branch in element.branches]
                if element.identity:
                    ends.append(prev)
                prev = add("concat", ends, (0.0, 0, draw(layer_sizes)[2]))
            else:
                prev = add("conv2d", [prev], draw(layer_sizes))
        return prev

    source = graph.add_layer(
        LayerSpec("input", "input", 0.0, 0, 0, 2_048, bwd_flops_multiplier=0.0)
    )
    add("dense", [add_chain(source, structure)], draw(layer_sizes))
    return graph


@given(
    structure=st.lists(chain_elements(2), min_size=1, max_size=3),
    total_gpus=st.sampled_from([4, 8]),
    global_batch=st.sampled_from([8, 64]),
    amp_limit=st.sampled_from([1.0, 1.5, 4.0]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_graphs_match_reference(structure, total_gpus, global_batch,
                                          amp_limit, data):
    graph = build_graph(structure, data.draw)
    check_against_reference(graph, global_batch, total_gpus, amp_limit)
