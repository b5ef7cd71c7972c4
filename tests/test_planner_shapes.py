"""Differential tests for shape-keyed planner costs and shared block tables.

:class:`PlannerCostModel` memoizes ``comp``/``sync``/``comm`` by a layer's
cost shape (its spec without the name), and :func:`build_chain_nodes` gives
every block with the same signature one shared ``(g, h)`` table.  The
reference here keys costs by layer id, which also leaves every block with a
table of its own.  Both must produce the same plans, layer ids included, on
every registry model and on generated graphs with a block repeated; blocks
that differ in anything a cost reads must never share a table.
"""

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.planner import (
    BlockNode,
    BurstParallelPlanner,
    PlannerConfig,
    PlannerCostModel,
    build_chain_nodes,
    candidate_gpu_counts,
    linear_search,
    solve_chain,
)
from repro.core.planner.costs import SearchRows
from repro.core.planner.linear_search import chain_assignments
from repro.models import registry
from repro.models.graph import LayerSpec, ModelGraph
from repro.network import get_fabric
from repro.obs.metrics import global_registry
from repro.profiler import LayerProfiler

from test_planner_reduction import Block, branch_chains, chain_elements, layer_sizes


class LayerIdCosts(PlannerCostModel):
    """Reference cost model: one cost shape, and so one block table, per layer."""

    def _shape_key(self, layer_id):
        return layer_id


def blocks_of(nodes) -> List[BlockNode]:
    """Every block in a node chain, nested ones included."""
    found = []
    for node in nodes:
        if isinstance(node, BlockNode):
            found.append(node)
            for branch in node.branches:
                found.extend(blocks_of(branch))
    return found


def reference_solution(graph, global_batch, total_gpus, amp_limit):
    costs = LayerIdCosts(
        graph=graph, global_batch=global_batch, fabric=get_fabric("nvswitch"),
        profiler=LayerProfiler(),
    )
    candidates = candidate_gpu_counts(total_gpus, global_batch)
    nodes = build_chain_nodes(graph, costs, candidates, total_gpus, amp_limit)
    blocks = blocks_of(nodes)
    assert len({id(block.table) for block in blocks}) == len(blocks)
    return nodes, solve_chain(nodes, amp_limit)


def check_against_reference(graph, global_batch, total_gpus, amp_limit):
    """Solve with shared costs and tables and with the reference; return the nodes."""
    costs = PlannerCostModel(
        graph=graph, global_batch=global_batch, fabric=get_fabric("nvswitch"),
        profiler=LayerProfiler(),
    )
    candidates = candidate_gpu_counts(total_gpus, global_batch)
    nodes = build_chain_nodes(graph, costs, candidates, total_gpus, amp_limit)
    ref_nodes, reference = reference_solution(graph, global_batch, total_gpus, amp_limit)
    solution = solve_chain(nodes, amp_limit)
    assert solution.total_time == reference.total_time
    assert solution.decisions == reference.decisions
    assert chain_assignments(nodes, solution.decisions, 1) == chain_assignments(
        ref_nodes, reference.decisions, 1
    )
    return nodes


@pytest.mark.parametrize("total_gpus", [8, 32])
@pytest.mark.parametrize("model", registry.available_models())
def test_registry_plans_match_reference(model, total_gpus):
    graph = registry.build_model(model)
    batch = max(registry.model_entry(model).default_global_batch, total_gpus)
    planner = BurstParallelPlanner(get_fabric("nvswitch"), LayerProfiler(),
                                   PlannerConfig(2.0, True))
    plan = planner.plan(graph, batch, total_gpus)
    ref_nodes, reference = reference_solution(graph, batch, total_gpus, 2.0)
    assert plan.iteration_time == reference.total_time
    assert plan.assignments == chain_assignments(ref_nodes, reference.decisions, 1)
    assert sorted(a.layer_id for a in plan.assignments) == sorted(graph.layer_ids())
    nodes = check_against_reference(graph, batch, total_gpus, 2.0)
    blocks = blocks_of(nodes)
    if blocks:
        # Every branching registry model repeats some block.
        assert len({id(block.table) for block in blocks}) < len(blocks)


# --------------------------------------------------------------------------
# Generated graphs with one block repeated.
# --------------------------------------------------------------------------

def sized(element, draw):
    """The structure with every layer's sizes drawn once, so copies share them."""
    if isinstance(element, Block):
        branches = tuple(tuple(sized(e, draw) for e in branch) for branch in element.branches)
        return Block(branches, element.identity), draw(layer_sizes)[2]
    return draw(layer_sizes)


def build_repeated_graph(prefix, unit, copies, suffix):
    """``prefix``, then ``copies`` x (trunk layer, block), then ``suffix``.

    Returns the graph and the join layer of each block copy.
    """
    graph = ModelGraph("repeated")
    names = iter(range(10_000))

    def add(op, inputs, sizes):
        flops, params, out = sizes
        return graph.add_layer(
            LayerSpec(f"{op}{next(names)}", op, flops, params, out, out), inputs=inputs
        )

    def add_element(prev, element):
        if isinstance(element[0], Block):
            block, join_out = element
            ends = [add_chain(prev, branch) for branch in block.branches]
            if block.identity:
                ends.append(prev)
            return add("concat", ends, (0.0, 0, join_out))
        return add("conv2d", [prev], element)

    def add_chain(prev, chain):
        for element in chain:
            prev = add_element(prev, element)
        return prev

    prev = add_chain(
        graph.add_layer(LayerSpec("input", "input", 0.0, 0, 0, 2_048, bwd_flops_multiplier=0.0)),
        prefix,
    )
    joins = []
    for _ in range(copies):
        prev = add_chain(prev, unit)
        joins.append(prev)
    add("dense", [add_chain(prev, suffix)], (1e6, 1_000, 10))
    return graph, joins


#: A block that really branches: a single branch without an identity edge
#: would reduce to a plain chain.
repeated_blocks = st.builds(
    Block, st.lists(branch_chains(1), min_size=2, max_size=3).map(tuple), st.booleans()
)


@given(
    prefix=st.lists(chain_elements(1), max_size=2),
    block=repeated_blocks,
    copies=st.integers(min_value=2, max_value=3),
    suffix=st.lists(chain_elements(1), max_size=2),
    total_gpus=st.sampled_from([4, 8]),
    global_batch=st.sampled_from([8, 64]),
    amp_limit=st.sampled_from([1.0, 1.5, 4.0]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_repeated_blocks_match_reference(prefix, block, copies, suffix, total_gpus,
                                         global_batch, amp_limit, data):
    draw = data.draw
    unit = (sized("layer", draw), sized(block, draw))
    graph, joins = build_repeated_graph(
        [sized(e, draw) for e in prefix], unit, copies, [sized(e, draw) for e in suffix]
    )
    nodes = check_against_reference(graph, global_batch, total_gpus, amp_limit)
    copies_found = [b for b in blocks_of(nodes) if b.join_layer_id in joins]
    assert len(copies_found) == copies
    assert len({id(b.table) for b in copies_found}) == 1


# --------------------------------------------------------------------------
# No false sharing.
# --------------------------------------------------------------------------

def _spec(name, op="conv2d", flops=2e6, params=4_000, out=1_024):
    return LayerSpec(name, op, flops, params, 1_024, out)


def build_block_chain(branch_layers, inner_params):
    """``input -> (b_k -> {x1 -> x2, y1} -> join_k)`` for each k, then ``out``.

    ``branch_layers[k]`` is block k's branching layer spec and
    ``inner_params[k]`` the params of its ``x2`` layer; all else is equal.
    """
    graph = ModelGraph("blocks")
    prev = graph.add_layer(LayerSpec("input", "input", 0.0, 0, 0, 1_024,
                                     bwd_flops_multiplier=0.0))
    for k, (branch, params) in enumerate(zip(branch_layers, inner_params)):
        split = graph.add_layer(branch.with_name(f"b{k}"), inputs=[prev])
        x1 = graph.add_layer(_spec(f"x1_{k}"), inputs=[split])
        x2 = graph.add_layer(_spec(f"x2_{k}", params=params), inputs=[x1])
        y1 = graph.add_layer(_spec(f"y1_{k}", flops=5e6), inputs=[split])
        prev = graph.add_layer(_spec(f"join{k}", "concat", 0.0, 0, 2_048), inputs=[x2, y1])
    graph.add_layer(_spec("out", "dense", 1e6, 1_000, 10), inputs=[prev])
    return graph


def _blocks_and_costs(graph):
    costs = PlannerCostModel(graph=graph, global_batch=64, fabric=get_fabric("nvswitch"))
    nodes = build_chain_nodes(graph, costs, [1, 2, 4, 8], 8, 2.0)
    return [n for n in nodes if isinstance(n, BlockNode)], costs


class TestNoFalseSharing:
    def test_branch_layer_output_size_splits_the_table(self):
        wide = _spec("b")
        narrow = _spec("b", out=64)
        graph = build_block_chain([wide, wide, narrow], [4_000] * 3)
        (first, same, other), costs = _blocks_and_costs(graph)
        assert first.table is same.table
        assert first.table is not other.table
        # The entry comm really differs, so sharing would give wrong costs.
        assert costs.comm(first.branch_layer_id, 1, first.join_layer_id, 8) != costs.comm(
            other.branch_layer_id, 1, other.join_layer_id, 8
        )
        check_against_reference(graph, 64, 8, 2.0)

    def test_inner_layer_params_split_the_table(self):
        branch = _spec("b")
        graph = build_block_chain([branch] * 3, [4_000, 4_000, 3_000_000])
        (first, same, other), _ = _blocks_and_costs(graph)
        assert first.table is same.table
        assert first.table is not other.table
        check_against_reference(graph, 64, 8, 2.0)

    def test_cost_shape_ignores_only_the_name(self):
        graph = build_block_chain([_spec("b")] * 2, [4_000, 3_000_000])
        costs = PlannerCostModel(graph=graph, global_batch=64, fabric=get_fabric("nvswitch"))
        ids = {graph.spec(i).name: i for i in graph.layer_ids()}
        assert costs.cost_shape(ids["x1_0"]) == costs.cost_shape(ids["x1_1"])
        assert costs.cost_shape(ids["x2_0"]) != costs.cost_shape(ids["x2_1"])
        assert costs.cost_shape(ids["x1_0"]) != costs.cost_shape(ids["y1_0"])

    def test_row_memos_resolve_the_shape_once_per_row(self, monkeypatch):
        graph = build_block_chain([_spec("b")] * 2, [4_000, 3_000_000])
        costs = PlannerCostModel(graph=graph, global_batch=64, fabric=get_fabric("nvswitch"))
        ids = {graph.spec(i).name: i for i in graph.layer_ids()}
        widths, dst_widths = [1, 2, 4, 8], [1, 4, 16]
        expected_row = [costs.node_cost(ids["x2_1"], g) for g in widths]
        expected_columns = [
            [costs.comm(ids["b0"], h, ids["x1_0"], g) for h in widths] for g in dst_widths
        ]
        calls = []
        resolve = PlannerCostModel.cost_shape
        monkeypatch.setattr(
            PlannerCostModel, "cost_shape",
            lambda self, layer_id: calls.append(layer_id) or resolve(self, layer_id),
        )
        rows = SearchRows(costs)
        assert list(rows.node_cost_row(ids["x2_1"], widths)) == expected_row
        assert calls == [ids["x2_1"]]
        columns = rows.comm_columns(ids["b0"], widths, ids["x1_0"], dst_widths)
        assert [list(c) for c in columns] == expected_columns
        assert calls == [ids["x2_1"], ids["b0"]]


# --------------------------------------------------------------------------
# Work counters.
# --------------------------------------------------------------------------

class TestWorkCounters:
    @staticmethod
    def _block_relaxations(graph, cost_model=PlannerCostModel):
        """Relaxations of one plan spent inside blocks, beyond the outer chain."""
        counter = global_registry().counter("planner.relaxations")
        costs = cost_model(graph=graph, global_batch=64, fabric=get_fabric("nvswitch"))
        nodes = build_chain_nodes(graph, costs, [1, 2, 4, 8], 8, 2.0)
        start = counter.value
        solution = solve_chain(nodes, 2.0)
        return counter.value - start - solution.relaxations

    @pytest.mark.parametrize("copies", [2, 3, 5])
    def test_copies_of_a_block_relax_it_once(self, copies):
        one_block = self._block_relaxations(build_block_chain([_spec("b")], [4_000]))
        assert one_block > 0
        graph = build_block_chain([_spec("b")] * copies, [4_000] * copies)
        assert self._block_relaxations(graph) == one_block
        # Unshared tables relax every copy.
        assert self._block_relaxations(graph, LayerIdCosts) == copies * one_block

    def test_resnet101_at_32_gpus_pins(self):
        graph = registry.build_model("resnet101")
        batch = max(registry.model_entry("resnet101").default_global_batch, 32)
        counter = global_registry().counter("planner.relaxations")
        profiler = LayerProfiler()
        planner = BurstParallelPlanner(get_fabric("nvswitch"), profiler,
                                       PlannerConfig(2.0, True))
        start = counter.value
        planner.plan(graph, batch, 32)
        # Per-layer costs and unshared blocks took 62,718 relaxations and
        # 2,076 profiler misses.
        assert counter.value - start == 18_618
        assert profiler.cache_stats.misses == 336

    def test_join_sink_is_one_row_per_branch(self, monkeypatch):
        """Per entry width, a block relaxes each branch once, then one sink row."""
        calls = []
        relax = linear_search._relax

        def counting_relax(nodes, *args):
            calls.append(len(nodes))
            return relax(nodes, *args)

        monkeypatch.setattr(linear_search, "_relax", counting_relax)
        (block,), _ = _blocks_and_costs(build_block_chain([_spec("b")], [4_000]))
        widths = list(block.candidate_gpus())
        for g in widths:
            del calls[:]
            block.transition_columns(block.branch_layer_id, [g], widths)
            # Two branches: their forward rows, then each one's sink row.
            assert len(calls) == 2 * len(block.branches) == 4
            assert calls[len(block.branches):] == [1] * len(block.branches)

    def test_planner_cold_requests_pins(self):
        """The perfbench ``planner_cold`` request list on a fresh planner."""
        counter = global_registry().counter("planner.relaxations")
        profiler = LayerProfiler()
        planner = BurstParallelPlanner(get_fabric("nvswitch"), profiler,
                                       PlannerConfig(2.0, True))
        start = counter.value
        for model in registry.available_models():
            graph = registry.build_model(model)
            batch = registry.model_entry(model).default_global_batch
            for gpus in (1, 2, 4, 8, 16, 32):
                planner.plan(graph, max(batch, gpus), gpus)
        assert counter.value - start == 230_986
        assert profiler.cache_stats.misses == 1_546
