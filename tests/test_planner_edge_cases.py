"""Planner edge cases: tight amplification, tiny budgets, ablation grids."""

import pytest

from repro.core.planner import (
    BurstParallelPlanner,
    PlannerConfig,
    PlannerCostModel,
    build_chain_nodes,
    solve_chain,
)
from repro.core.planner.linear_search import relax_chain
from repro.models import build_model, vgg11, vgg16
from repro.models.graph import LayerSpec, ModelGraph
from repro.network import get_fabric


@pytest.fixture(scope="module")
def fabric():
    return get_fabric("nvswitch")


def _assert_valid_plan(plan, graph, total_gpus):
    """A plan is valid when every layer is assigned once at a legal width."""
    assigned = sorted(a.layer_id for a in plan.assignments)
    assert assigned == sorted(graph.layer_ids())
    assert all(1 <= a.num_gpus <= total_gpus for a in plan.assignments)
    assert plan.iteration_time > 0.0
    assert plan.total_gpus == total_gpus


class TestAmplificationLimitOne:
    """amplification_limit=1.0: no GPU-second inefficiency allowed."""

    def test_config_accepts_exactly_one(self):
        assert PlannerConfig(amplification_limit=1.0).amplification_limit == 1.0

    def test_config_rejects_below_one(self):
        with pytest.raises(ValueError):
            PlannerConfig(amplification_limit=0.99)

    @pytest.mark.parametrize("builder", [vgg11, vgg16])
    def test_chain_models_still_plan(self, fabric, builder):
        graph = builder()
        planner = BurstParallelPlanner(
            fabric, config=PlannerConfig(amplification_limit=1.0)
        )
        plan = planner.plan(graph, global_batch=32, total_gpus=8)
        _assert_valid_plan(plan, graph, total_gpus=8)

    def test_branching_model_still_plans(self, fabric):
        graph = build_model("inception_v3")
        planner = BurstParallelPlanner(
            fabric, config=PlannerConfig(amplification_limit=1.0)
        )
        plan = planner.plan(graph, global_batch=32, total_gpus=8)
        _assert_valid_plan(plan, graph, total_gpus=8)

    def test_tight_limit_never_beats_loose_limit(self, fabric):
        graph = vgg16()
        planner = BurstParallelPlanner(fabric)
        tight = planner.plan(graph, 32, 8, amplification_limit=1.0)
        loose = planner.plan(graph, 32, 8, amplification_limit=4.0)
        assert loose.iteration_time <= tight.iteration_time


class TestAmplificationLimitNaN:
    """NaN fails every ``>= 1.0`` check, so each entry point must reject it."""

    NAN = float("nan")

    def test_config_rejects_nan(self):
        with pytest.raises(ValueError):
            PlannerConfig(amplification_limit=self.NAN)

    def test_config_accepts_inf(self):
        assert PlannerConfig(amplification_limit=float("inf")).amplification_limit > 1.0

    def test_plan_rejects_nan(self, fabric):
        planner = BurstParallelPlanner(fabric)
        with pytest.raises(ValueError):
            planner.plan(build_model("resnet50"), 64, 8, amplification_limit=self.NAN)

    def test_plan_accepts_inf(self, fabric):
        graph = vgg11()
        plan = BurstParallelPlanner(fabric).plan(graph, 32, 8, amplification_limit=float("inf"))
        _assert_valid_plan(plan, graph, total_gpus=8)

    @pytest.mark.parametrize("solver", [solve_chain, relax_chain])
    def test_chain_solvers_reject_nan(self, fabric, solver):
        graph = vgg11()
        costs = PlannerCostModel(graph=graph, global_batch=32, fabric=fabric)
        nodes = build_chain_nodes(graph, costs, [1, 2, 4], 4, 2.0)
        with pytest.raises(ValueError):
            solver(nodes, self.NAN)
        solver(nodes, float("inf"))


class TestSingleGpuBudget:
    def test_plan_with_one_gpu_is_all_width_one(self, fabric):
        graph = vgg16()
        planner = BurstParallelPlanner(fabric)
        plan = planner.plan(graph, global_batch=32, total_gpus=1)
        _assert_valid_plan(plan, graph, total_gpus=1)
        assert all(a.num_gpus == 1 for a in plan.assignments)

    def test_single_gpu_matches_reference_plan_time(self, fabric):
        graph = vgg11()
        planner = BurstParallelPlanner(fabric)
        plan = planner.plan(graph, global_batch=16, total_gpus=1)
        reference = planner.single_gpu_plan(graph, global_batch=16)
        # Same per-layer compute; the searched plan may only add sync/comm.
        assert plan.iteration_time >= reference.iteration_time * 0.99

    def test_branching_model_on_one_gpu(self, fabric):
        graph = build_model("inception_v3")
        planner = BurstParallelPlanner(fabric)
        plan = planner.plan(graph, global_batch=32, total_gpus=1)
        _assert_valid_plan(plan, graph, total_gpus=1)
        assert all(a.num_gpus == 1 for a in plan.assignments)


class TestAllIntegersAblation:
    """powers_of_two_only=False: the paper's search-space ablation."""

    def test_plan_valid_on_non_power_of_two_budget(self, fabric):
        graph = vgg11()
        planner = BurstParallelPlanner(
            fabric, config=PlannerConfig(powers_of_two_only=False)
        )
        plan = planner.plan(graph, global_batch=32, total_gpus=6)
        _assert_valid_plan(plan, graph, total_gpus=6)

    def test_wider_search_space_never_loses(self, fabric):
        graph = vgg11()
        pow2 = BurstParallelPlanner(
            fabric, config=PlannerConfig(powers_of_two_only=True)
        ).plan(graph, global_batch=32, total_gpus=8)
        dense = BurstParallelPlanner(
            fabric, config=PlannerConfig(powers_of_two_only=False)
        ).plan(graph, global_batch=32, total_gpus=8)
        # The all-integers grid is a superset of the powers of two.
        assert dense.iteration_time <= pow2.iteration_time * (1.0 + 1e-9)

    def test_ablation_can_pick_non_power_of_two_width(self, fabric):
        graph = vgg16()
        planner = BurstParallelPlanner(
            fabric, config=PlannerConfig(powers_of_two_only=False)
        )
        plan = planner.plan(graph, global_batch=24, total_gpus=6)
        _assert_valid_plan(plan, graph, total_gpus=6)
        assert max(a.num_gpus for a in plan.assignments) <= 6


def _tiny_graph(name):
    graph = ModelGraph(name)
    src = graph.add_layer(
        LayerSpec(name="input", op="input", flops_per_sample=0, params=0,
                  input_elems_per_sample=16, output_elems_per_sample=16)
    )
    graph.add_layer(
        LayerSpec(name="fc", op="dense", flops_per_sample=1024, params=256,
                  input_elems_per_sample=16, output_elems_per_sample=16),
        inputs=[src],
    )
    return graph


class TestCostModelCacheBound:
    def test_planner_cost_model_cache_is_bounded(self, fabric):
        """A planner fed many distinct graphs must not retain them all."""
        planner = BurstParallelPlanner(fabric)
        for i in range(planner._COST_MODEL_CACHE_SIZE + 8):
            planner.plan(_tiny_graph(f"tiny-{i}"), global_batch=4, total_gpus=2)
        assert len(planner._cost_models) <= planner._COST_MODEL_CACHE_SIZE
