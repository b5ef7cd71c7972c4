"""Differential tests for the model graph against a networkx reference.

:class:`ModelGraph` keeps sorted adjacency lists and finds each region's
immediate dominators in one pass over its layers in id order.  The
reference here is the earlier networkx form of the same reduction: a
``DiGraph``, ``immediate_dominators`` and ``weakly_connected_components``
over ``subgraph`` views.  Both must agree exactly — the chain reduction,
every region's dominators, the topology queries and the error raised for a
branch with several entries or exits — on generated graphs and on every
registry model, whose ``graph_fingerprint`` is pinned to its literal digest
so plan-cache keys cannot move.
"""

from typing import Dict, List, Set, Tuple

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import graph_fingerprint
from repro.models import registry
from repro.models.graph import (
    BranchBlock,
    ChainElement,
    GraphValidationError,
    LayerSpec,
    ModelGraph,
)

# --------------------------------------------------------------------------
# The networkx reference reduction.
# --------------------------------------------------------------------------


def to_networkx(graph: ModelGraph) -> "nx.DiGraph":
    g = nx.DiGraph()
    g.add_nodes_from(range(len(graph)))
    g.add_edges_from(graph.edges())
    return g


def reference_reduction(
    graph: ModelGraph, regions: List[Tuple[List[int], int]]
) -> Tuple[ChainElement, ...]:
    """The chain reduction via networkx; appends each (region, entry) it reduces."""
    g = to_networkx(graph)
    order = list(nx.lexicographical_topological_sort(g))
    (source,) = [n for n in g.nodes if g.in_degree(n) == 0]
    (sink,) = [n for n in g.nodes if g.out_degree(n) == 0]
    position = {lid: i for i, lid in enumerate(order)}
    return _reduce(g, set(order), source, sink, order, position, regions)


def _reduce(g, nodes: Set[int], source, sink, order, position, regions):
    if len(nodes) == 1:
        return (source,)
    regions.append((sorted(nodes), source))
    idom = nx.immediate_dominators(g.subgraph(nodes), source)
    trunk = [sink]
    while trunk[-1] != source:
        trunk.append(idom[trunk[-1]])
    trunk.reverse()

    chain: List[ChainElement] = [trunk[0]]
    for upper, lower in zip(trunk, trunk[1:]):
        between = [
            n for n in order[position[upper] + 1 : position[lower]] if n in nodes
        ]
        if not between:
            chain.append(lower)
            continue
        components = [
            sorted(comp, key=position.__getitem__)
            for comp in nx.weakly_connected_components(g.subgraph(between))
        ]
        components.sort(key=lambda c: c[0])
        chain.append(
            BranchBlock(
                branch_layer=upper,
                join_layer=lower,
                branches=tuple(
                    _reduce_branch(g, comp, order, position, regions)
                    for comp in components
                ),
                has_identity_branch=g.has_edge(upper, lower),
            )
        )
    return tuple(chain)


def _reduce_branch(g, component, order, position, regions):
    comp_set = set(component)
    sources = [
        n for n in component if not any(p in comp_set for p in g.predecessors(n))
    ]
    sinks = [
        n for n in component if not any(s in comp_set for s in g.successors(n))
    ]
    if len(sources) != 1 or len(sinks) != 1:
        raise GraphValidationError(
            f"branch component {sorted(component)} has {len(sources)} sources and "
            f"{len(sinks)} sinks; the graph reduction requires single-entry "
            "single-exit branches"
        )
    return _reduce(g, comp_set, sources[0], sinks[0], order, position, regions)


# --------------------------------------------------------------------------
# Graph generators.
# --------------------------------------------------------------------------


def series_parallel(depth: int):
    """A nested series/parallel structure.

    ``"layer"`` is one layer, a list is a series of structures, and
    ``("par", branches, identity, duplicate)`` is a branching layer feeding
    each branch into a joining layer, with an optional direct shortcut and
    an optional input listed twice.
    """
    if depth == 0:
        return st.just("layer")
    inner = series_parallel(depth - 1)
    return st.one_of(
        st.just("layer"),
        st.lists(inner, min_size=1, max_size=3),
        st.tuples(
            st.just("par"),
            st.lists(inner, min_size=1, max_size=4),
            st.booleans(),
            st.booleans(),
        ),
    )


def abstract_dag(structure) -> Tuple[int, Dict[int, List[int]]]:
    """Node count and inputs per node (node 0 is the source)."""
    inputs: Dict[int, List[int]] = {0: []}

    def node(feeds: List[int]) -> int:
        lid = len(inputs)
        inputs[lid] = feeds
        return lid

    def emit(part, entry: int) -> int:
        if part == "layer":
            return node([entry])
        if isinstance(part, list):
            for child in part:
                entry = emit(child, entry)
            return entry
        _, branches, identity, duplicate = part
        fork = node([entry])
        ends = [emit(branch, fork) for branch in branches]
        if identity:
            ends.append(fork)
        if duplicate:
            ends.append(ends[0])
        return node(ends)

    sink = emit(structure, 0)
    node([sink])  # one more trunk layer after the structure
    return len(inputs), inputs


@st.composite
def random_dags(draw):
    """Any single-source, single-sink DAG: most are not series-parallel."""
    n = draw(st.integers(1, 12))
    inputs: Dict[int, List[int]] = {0: []}
    for lid in range(1, n):
        inputs[lid] = draw(st.lists(st.integers(0, lid - 1), min_size=1, max_size=3))
    fed = {src for feeds in inputs.values() for src in feeds}
    if n > 1:
        inputs[n - 1] += [lid for lid in range(n - 1) if lid not in fed]
    return n, inputs


def build(draw, n: int, inputs: Dict[int, List[int]]) -> ModelGraph:
    """Add the nodes in a drawn topological order, so branches interleave ids."""
    remaining = {lid: set(feeds) for lid, feeds in inputs.items()}
    ids: Dict[int, int] = {}
    graph = ModelGraph("generated")
    while remaining:
        ready = sorted(lid for lid, feeds in remaining.items() if feeds <= ids.keys())
        lid = ready[draw(st.integers(0, len(ready) - 1))]
        del remaining[lid]
        spec = LayerSpec(f"layer{lid}", "relu", 1.0, 0, 1, 1)
        ids[lid] = graph.add_layer(spec, inputs=[ids[src] for src in inputs[lid]])
    assert len(graph) == n
    return graph


# --------------------------------------------------------------------------
# Checks.
# --------------------------------------------------------------------------


def assert_dominators_match(graph: ModelGraph, g, region: List[int], entry: int) -> None:
    """Same immediate dominators; networkx releases differ on the entry's own."""
    ours = graph._immediate_dominators(region)
    assert ours.pop(entry) == entry
    reference = nx.immediate_dominators(g.subgraph(region), entry)
    reference.pop(entry, None)
    assert ours == reference


def assert_matches_reference(graph: ModelGraph) -> None:
    g = to_networkx(graph)
    assert graph.topological_order() == list(nx.lexicographical_topological_sort(g))
    assert graph.edges() == sorted(g.edges())
    for lid in range(len(graph)):
        assert graph.predecessors(lid) == sorted(g.predecessors(lid))
        assert graph.successors(lid) == sorted(g.successors(lid))
    assert graph.branch_layers() == sorted(n for n in g if g.out_degree(n) > 1)
    assert graph.join_layers() == sorted(n for n in g if g.in_degree(n) > 1)
    after = {lid: nx.descendants(g, lid) | {lid} for lid in g}
    before = {lid: nx.ancestors(g, lid) | {lid} for lid in g}
    for start in range(len(graph)):
        for end in range(len(graph)):
            expected = [start] if start == end else sorted(after[start] & before[end])
            assert graph.subgraph_between(start, end) == expected, (start, end)

    regions: List[Tuple[List[int], int]] = []
    try:
        expected = reference_reduction(graph, regions)
    except GraphValidationError as error:
        with pytest.raises(GraphValidationError) as raised:
            graph.chain_reduction()
        assert str(raised.value) == str(error)
    else:
        assert graph.chain_reduction() == expected
    for region, entry in regions:
        assert region[0] == entry
        assert_dominators_match(graph, g, region, entry)


@given(structure=series_parallel(3), data=st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_series_parallel_graphs_match_reference(structure, data):
    graph = build(data.draw, *abstract_dag(structure))
    assert_matches_reference(graph)
    graph.chain_reduction()  # series-parallel graphs always reduce


@given(dag=random_dags(), data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_dags_match_reference(dag, data):
    assert_matches_reference(build(data.draw, *dag))


def test_single_layer_graph():
    graph = ModelGraph("one")
    graph.add_layer(LayerSpec("input", "input", 0.0, 0, 1, 1))
    assert graph.chain_reduction() == reference_reduction(graph, []) == (0,)


def test_multi_entry_branch_raises_same_error():
    # 0 -> {1, 2} -> {3, 4} -> 5 with every cross edge: the layers between
    # the trunk layers 0 and 5 form one component with two entries.
    graph = ModelGraph("crossed")
    for lid, feeds in enumerate([[], [0], [0], [1, 2], [1, 2], [3, 4]]):
        graph.add_layer(LayerSpec(f"layer{lid}", "relu", 1.0, 0, 1, 1), inputs=feeds)
    with pytest.raises(GraphValidationError, match="2 sources and 2 sinks") as raised:
        graph.chain_reduction()
    with pytest.raises(GraphValidationError) as expected:
        reference_reduction(graph, [])
    assert str(raised.value) == str(expected.value)


# Digests of the registry models at the networkx-based graph: the adjacency
# list rewrite must not move any plan-cache key.
REGISTRY_FINGERPRINTS = {
    "inception_v3": "77e829f92c9dd673579eeaf20ee2eafb0ddc2a6829f10ae5c420d5511efe9b85",
    "resnet101": "d845455ea269fb1ecf923d39b81213d75f80c3851734d88fad7c8c24ad7b7178",
    "resnet50": "9469a2fca00ab274cc222f2acb5c20c3e1e247158afb676b1eff12f64634242c",
    "vgg11": "c206382d72749a6f8f7cb4fceba3cd94bc1b3e08d2c25e09bf544ca50fcaae38",
    "vgg16": "db955d6447c0cdee0fb2445b0cff264d8bd16bdeb4828ae773b7ae11c97b7433",
    "wide_resnet101_2": "7753cbaffcc282b847f5ca7fd0aa02587d22e505a1951a87681fda3a4e9ac005",
}


def test_registry_fingerprints_are_pinned():
    assert sorted(REGISTRY_FINGERPRINTS) == sorted(registry.available_models())


@pytest.mark.parametrize("model", sorted(REGISTRY_FINGERPRINTS))
def test_registry_model_matches_reference(model):
    graph = registry.build_model(model)
    assert graph_fingerprint(graph) == REGISTRY_FINGERPRINTS[model]
    regions: List[Tuple[List[int], int]] = []
    assert graph.chain_reduction() == reference_reduction(graph, regions)
    g = to_networkx(graph)
    for region, entry in regions:
        assert_dominators_match(graph, g, region, entry)
