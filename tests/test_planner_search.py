"""Tests for Algorithm 1 (the chain dynamic program) on synthetic chains."""

from dataclasses import dataclass
from typing import Dict, Sequence

import pytest

from repro.core.planner import BlockNode, PlannerCostModel, build_chain_nodes, solve_chain
from repro.core.planner.plan import LayerAssignment
from repro.models.graph import LayerSpec, ModelGraph
from repro.network import get_fabric
from repro.obs.metrics import global_registry


@dataclass
class FakeNode:
    """Synthetic chain node with explicit cost tables."""

    name: str
    costs: Dict[int, float]          # num_gpus -> node cost
    base_cost: float                 # comp at 1 GPU (amp denominator)
    transition: float = 0.0          # cost paid whenever the width changes
    exit_layer_id: int = 0

    def candidate_gpus(self) -> Sequence[int]:
        return sorted(self.costs)

    def node_cost(self, num_gpus: int) -> float:
        return self.costs[num_gpus]

    def single_gpu_cost(self) -> float:
        return self.base_cost

    def transition_cost(self, prev_exit_layer, prev_gpus: int, num_gpus: int) -> float:
        if prev_exit_layer is None or prev_gpus == num_gpus:
            return 0.0
        return self.transition

    def assignments(self, prev_gpus, num_gpus, stage_time, transition_time):
        return [
            LayerAssignment(
                layer_id=self.exit_layer_id,
                layer_name=self.name,
                op="synthetic",
                num_gpus=num_gpus,
                compute_time=self.costs[num_gpus],
                comm_time=transition_time,
            )
        ]


def scalable_node(name, base=8.0, amp_free=True):
    """A node that halves its time with every doubling of GPUs."""
    costs = {g: base / g for g in (1, 2, 4, 8)}
    return FakeNode(name=name, costs=costs, base_cost=base)


def flat_node(name, base=8.0):
    """A node whose time does not improve with more GPUs."""
    costs = {g: base for g in (1, 2, 4, 8)}
    return FakeNode(name=name, costs=costs, base_cost=base)


class TestSolveChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            solve_chain([], amp_limit=2.0)

    def test_amp_limit_below_one_rejected(self):
        with pytest.raises(ValueError):
            solve_chain([scalable_node("a")], amp_limit=0.5)

    def test_scalable_layer_bursts_to_max_width(self):
        solution = solve_chain([scalable_node("a")], amp_limit=8.0)
        assert solution.gpus_per_node() == [8]
        assert solution.total_time == pytest.approx(1.0)

    def test_flat_layer_stays_narrow_under_amp_limit(self):
        """A layer that does not scale would amplify GPU-sec if burst wide."""
        solution = solve_chain([flat_node("a")], amp_limit=1.5)
        assert solution.gpus_per_node() == [1]

    def test_flat_layer_can_burst_when_limit_is_loose(self):
        solution = solve_chain([flat_node("a")], amp_limit=100.0)
        # All widths take the same time; the cheapest feasible is chosen and
        # the amplification never exceeds the (loose) limit.
        assert solution.max_amplification() <= 100.0

    def test_mixed_chain_bursts_only_scalable_layers(self):
        nodes = [scalable_node("conv"), flat_node("fc")]
        solution = solve_chain(nodes, amp_limit=1.5)
        widths = solution.gpus_per_node()
        assert widths[0] == 8  # scalable layer bursts
        assert widths[1] == 1  # flat layer stays narrow

    def test_relaxation_count_matches_search_space(self):
        """relaxations = sum over nodes of |candidates| x |prev candidates|."""
        nodes = [scalable_node("a"), scalable_node("b")]
        solution = solve_chain(nodes, amp_limit=8.0)
        # Node 0: 4 candidates x 1 entry width; node 1: 4 x 4 predecessors.
        assert solution.relaxations == 4 * 1 + 4 * 4

    def test_transition_cost_discourages_frequent_width_changes(self):
        # Alternating scalable/flat layers with a huge transition cost: the
        # planner should keep a single width rather than ping-pong.
        nodes = []
        for i in range(4):
            node = scalable_node(f"conv{i}") if i % 2 == 0 else flat_node(f"fc{i}", base=1.0)
            node.transition = 100.0
            nodes.append(node)
        solution = solve_chain(nodes, amp_limit=8.0)
        widths = set(solution.gpus_per_node())
        assert len(widths) == 1

    def test_cheap_transitions_allow_bursting(self):
        nodes = []
        for i in range(4):
            node = scalable_node(f"conv{i}") if i % 2 == 0 else flat_node(f"fc{i}", base=1.0)
            node.transition = 1e-6
            nodes.append(node)
        solution = solve_chain(nodes, amp_limit=1.5)
        assert len(set(solution.gpus_per_node())) > 1

    def test_total_time_matches_decision_sum(self):
        nodes = [scalable_node("a"), flat_node("b", base=2.0), scalable_node("c")]
        solution = solve_chain(nodes, amp_limit=4.0)
        reconstructed = sum(d.stage_time for d in solution.decisions)
        assert solution.total_time == pytest.approx(reconstructed)

    def test_tables_have_entries_for_all_widths(self):
        nodes = [scalable_node("a"), flat_node("b")]
        solution = solve_chain(nodes, amp_limit=2.0)
        for table in (solution.s_table, solution.t_table):
            assert len(table) == 2
            assert set(table[0]) == {1, 2, 4, 8}

    def test_entry_gpus_constrains_first_transition(self):
        node = scalable_node("a")
        node.transition = 10.0
        # Entering from 8 GPUs: staying at 8 avoids the transition penalty.
        solution = solve_chain([node], amp_limit=8.0, entry_gpus=[8], entry_exit_layer=0)
        assert solution.gpus_per_node() == [8]

    def test_amplification_reported_per_decision(self):
        solution = solve_chain([scalable_node("a")], amp_limit=8.0)
        decision = solution.decisions[0]
        # Perfectly scalable layer: amp == stage_time * g / base == 1.
        assert decision.amplification == pytest.approx(1.0)

    def test_lower_amp_limit_never_gives_faster_plan(self):
        nodes = [scalable_node("a"), flat_node("b"), scalable_node("c")]
        tight = solve_chain(nodes, amp_limit=1.2)
        loose = solve_chain(nodes, amp_limit=8.0)
        assert loose.total_time <= tight.total_time + 1e-12


class TestBlockRelaxations:
    """``planner.relaxations`` counts the relaxations a block really evaluates."""

    @staticmethod
    def _fork_join_nodes():
        # input -> split -> {a1 -> a2, b1} -> join -> out, at widths 1/2/4.
        graph = ModelGraph("fork-join")

        def add(name, op, inputs):
            spec = LayerSpec(name, op, 1e6, 1000 if op != "concat" else 0, 512, 512)
            return graph.add_layer(spec, inputs=inputs)

        inp = graph.add_layer(
            LayerSpec("input", "input", 0.0, 0, 0, 512, bwd_flops_multiplier=0.0)
        )
        split = add("split", "conv2d", [inp])
        a2 = add("a2", "conv2d", [add("a1", "conv2d", [split])])
        b1 = add("b1", "conv2d", [split])
        add("out", "dense", [add("join", "concat", [a2, b1])])
        costs = PlannerCostModel(graph=graph, global_batch=64, fabric=get_fabric("nvswitch"))
        return build_chain_nodes(graph, costs, [1, 2, 4], 4, 2.0)

    def test_block_relaxes_each_branch_once_per_entry_width(self):
        counter = global_registry().counter("planner.relaxations")
        nodes = self._fork_join_nodes()
        block = nodes[2]
        assert isinstance(block, BlockNode)
        start = counter.value
        for g in (1, 2, 4):
            for h in (1, 2, 4):
                block.transition_cost(block.branch_layer_id, g, h)
        # Forward rows once per entry width g: branch a is 3x1 + 3x3, branch
        # b is 3x1, so 15 per g and 45 in all.  Then one sink row per (g, h)
        # and branch, 3 relaxations each: 9 pairs x 2 branches x 3 = 54.
        # (Re-solving both branches per (g, h) would take 9 x 21 = 189.)
        assert counter.value - start == 45 + 54
        block.transition_cost(block.branch_layer_id, 2, 4)  # cached pair
        assert counter.value - start == 99

    def test_whole_plan_counts_outer_and_block_relaxations(self):
        counter = global_registry().counter("planner.relaxations")
        nodes = self._fork_join_nodes()
        start = counter.value
        solution = solve_chain(nodes, amp_limit=2.0)
        # Outer chain: input 3x1, split 3x3, block 3x3, out 3x3.
        assert solution.relaxations == 3 + 9 + 9 + 9
        assert counter.value - start == solution.relaxations + 99
