"""Exhaustive oracle for the planner on small chain models.

Algorithm 1 is a shortest-path dynamic program, so on a chain it must find
the cheapest of *every* per-layer width assignment.  Here that optimum is
found by brute force: each assignment over ``candidate_gpu_counts`` is
priced with :class:`PlannerCostModel`'s ``comp``, ``sync`` and ``comm``,
the first layer's input transfer free, and the sums taken in the DP's order
(``(s + transition) + (comp + sync)`` per layer), so the comparison is exact
rather than within a tolerance.

* With no amplification limit, ``plan.iteration_time`` equals that optimum.
* With a finite limit, the plan keeps to the candidate widths, costs exactly
  what its own widths are priced at, and never beats the optimum.

Branch/join models (blocks) are not covered here.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.planner import BurstParallelPlanner, PlannerCostModel
from repro.core.planner.costs import candidate_gpu_counts
from repro.models.layers import GraphBuilder
from repro.network import get_fabric

#: Sizes at which the optimum often mixes widths: wide convolutions scale
#: out, while a dense layer's large gradient all-reduce pulls it narrow.
_layer = st.one_of(
    st.tuples(
        st.just("conv"),
        st.sampled_from((16, 64, 256)),  # out channels
        st.sampled_from((1, 3)),  # kernel
        st.sampled_from((1, 2)),  # stride
    ),
    st.tuples(st.just("relu")),
    st.tuples(st.just("dense"), st.sampled_from((10, 512, 4096))),
)


def _build_chain(layers):
    """A chain model of ``layers``; a conv after the first dense (whose
    output is flat) becomes a dense of its channel count."""
    builder = GraphBuilder("oracle-chain", (3, 64, 64))
    flat = False
    for i, layer in enumerate(layers):
        if layer[0] == "relu":
            builder.add_relu(f"relu{i}")
        elif layer[0] == "conv" and not flat:
            _, channels, kernel, stride = layer
            builder.add_conv2d(f"conv{i}", channels, kernel, stride, padding=kernel // 2)
        else:
            builder.add_dense(f"dense{i}", layer[1])
            flat = True
    return builder.finish()


def _prices(costs, layer_ids, widths):
    """Price of every width assignment, as ``(price, widths)`` pairs."""
    stage = {
        (lid, g): costs.comp(lid, g) + costs.sync(lid, g)
        for lid in layer_ids
        for g in widths
    }
    out = []

    def walk(i, prev_g, s, chosen):
        if i == len(layer_ids):
            out.append((s, tuple(chosen)))
            return
        lid = layer_ids[i]
        for g in widths:
            trans = 0.0 if i == 0 else costs.comm(layer_ids[i - 1], prev_g, lid, g)
            chosen.append(g)
            walk(i + 1, g, (s + trans) + stage[lid, g], chosen)
            chosen.pop()

    walk(0, None, 0.0, [])
    return out


def _price_of(costs, layer_ids, assignment):
    """The DP-order price of one width assignment."""
    s = 0.0
    for i, (lid, g) in enumerate(zip(layer_ids, assignment)):
        trans = 0.0 if i == 0 else costs.comm(layer_ids[i - 1], assignment[i - 1], lid, g)
        s = (s + trans) + (costs.comp(lid, g) + costs.sync(lid, g))
    return s


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    layers=st.lists(_layer, min_size=3, max_size=6),
    global_batch=st.integers(8, 128),
    total_gpus=st.sampled_from((4, 8)),
    amp_limit=st.sampled_from((math.inf, 1.0, 1.25, 2.0, 4.0)),
    fabric=st.sampled_from(("nvswitch", "100gbps")),
)
def test_chain_plan_matches_exhaustive_search(
    layers, global_batch, total_gpus, amp_limit, fabric
):
    graph = _build_chain(layers)
    planner = BurstParallelPlanner(get_fabric(fabric))
    plan = planner.plan(graph, global_batch, total_gpus, amplification_limit=amp_limit)

    # The planner's own cost model, so both sides read one set of memos.
    costs = planner._cost_model(graph, global_batch)
    assert isinstance(costs, PlannerCostModel)
    layer_ids = graph.topological_order()
    widths = candidate_gpu_counts(total_gpus, global_batch)
    prices = _prices(costs, layer_ids, widths)
    assert len(prices) == len(widths) ** len(layer_ids)
    optimum = min(price for price, _ in prices)

    assert [a.layer_id for a in plan.assignments] == layer_ids
    chosen = [a.num_gpus for a in plan.assignments]
    if math.isinf(amp_limit):
        assert plan.iteration_time == optimum
    else:
        assert set(chosen) <= set(widths)
        assert plan.iteration_time >= optimum
    assert plan.iteration_time == _price_of(costs, layer_ids, chosen)
