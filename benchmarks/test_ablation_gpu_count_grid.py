"""Ablation: powers-of-two layer widths vs an all-integers search grid.

The paper restricts the planner's candidate GPU counts to powers of two "to
limit the growth of the search space" (Section 7.4).  This ablation measures
what that optimization costs in plan quality (iteration time) and what it
buys in search work on an 8-GPU cluster: the DP relaxations each grid
evaluates (the ``planner.relaxations`` counter), with search times printed
alongside.
"""

import time

from repro.analysis import format_table
from repro.core.planner import BurstParallelPlanner, PlannerConfig
from repro.models import build_model
from repro.network import get_fabric
from repro.obs.metrics import global_registry

GLOBAL_BATCH = 32
NUM_GPUS = 8
AMP_LIMIT = 2.0


def run_grid_comparison():
    """Per grid: the plan, its search time and its ``planner.relaxations``."""
    fabric = get_fabric("nvswitch")
    graph = build_model("vgg16")
    relaxations = global_registry().counter("planner.relaxations")
    results = {}
    for label, powers_only in (("powers-of-two", True), ("all-integers", False)):
        planner = BurstParallelPlanner(
            fabric,
            config=PlannerConfig(
                amplification_limit=AMP_LIMIT, powers_of_two_only=powers_only
            ),
        )
        counted = relaxations.value
        start = time.perf_counter()
        plan = planner.plan(graph, GLOBAL_BATCH, NUM_GPUS)
        elapsed = time.perf_counter() - start
        results[label] = (plan, elapsed, relaxations.value - counted)
    return results


def test_ablation_gpu_count_grid(benchmark):
    results = benchmark.pedantic(run_grid_comparison, rounds=1, iterations=1)
    rows = [
        (
            label,
            plan.iteration_time * 1e3,
            plan.total_gpu_seconds() * 1e3,
            elapsed,
            relaxed,
        )
        for label, (plan, elapsed, relaxed) in results.items()
    ]
    print()
    print(
        format_table(
            [
                "candidate grid",
                "iteration (ms)",
                "GPU-sec (ms)",
                "search time (s)",
                "relaxations",
            ],
            rows,
            precision=3,
            title="Ablation: planner candidate GPU-count grid (VGG-16, 8 GPUs)",
        )
    )

    pow2_plan, _, pow2_relaxed = results["powers-of-two"]
    full_plan, _, full_relaxed = results["all-integers"]
    # The denser grid can only improve (or match) the plan's iteration time...
    assert full_plan.iteration_time <= pow2_plan.iteration_time * 1.001
    # ...but the improvement is marginal (the paper's justification)...
    assert full_plan.iteration_time > pow2_plan.iteration_time * 0.85
    # ...while the restricted grid does strictly less search work.  The
    # relaxation counts are deterministic; the search times are printed
    # above but not compared, as one wall time against another flakes on
    # a busy host.
    assert 0 < pow2_relaxed < full_relaxed
