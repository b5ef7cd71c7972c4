"""Unit and property tests for the model-graph representation."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.models import GraphValidationError, LayerSpec, ModelGraph, registry
from repro.models.graph import BranchBlock


def make_spec(name="layer", op="conv2d", flops=100.0, params=10, in_elems=8, out_elems=8):
    return LayerSpec(
        name=name,
        op=op,
        flops_per_sample=flops,
        params=params,
        input_elems_per_sample=in_elems,
        output_elems_per_sample=out_elems,
    )


class TestLayerSpec:
    def test_rejects_negative_flops(self):
        with pytest.raises(ValueError):
            make_spec(flops=-1.0)

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            make_spec(params=-1)

    def test_rejects_negative_activation_sizes(self):
        with pytest.raises(ValueError):
            make_spec(in_elems=-1)

    def test_rejects_negative_backward_multiplier(self):
        # The profiler prices a layer from these numbers without building a
        # validated KernelWorkload, so the spec rejects them itself.
        with pytest.raises(ValueError, match="backward flops multiplier"):
            dataclasses.replace(make_spec(), bwd_flops_multiplier=-1.0)

    def test_has_weights(self):
        assert make_spec(params=5).has_weights
        assert not make_spec(params=0).has_weights

    def test_total_flops_includes_backward(self):
        spec = make_spec(flops=100.0)
        assert spec.total_flops_per_sample() == pytest.approx(300.0)

    def test_with_name_preserves_other_fields(self):
        spec = make_spec(name="a")
        renamed = spec.with_name("b")
        assert renamed.name == "b"
        assert renamed.flops_per_sample == spec.flops_per_sample


class TestModelGraphChain:
    def build_chain(self, n=4):
        g = ModelGraph("chain")
        prev = g.add_layer(make_spec(name="input", op="input", flops=0, params=0))
        for i in range(n):
            prev = g.add_layer(make_spec(name=f"l{i}"), inputs=[prev])
        return g

    def test_chain_is_valid(self):
        g = self.build_chain()
        g.validate()
        assert g.is_chain()
        assert len(g) == 5

    def test_source_and_sink(self):
        g = self.build_chain()
        assert g.source() == 0
        assert g.sink() == 4

    def test_topological_order_is_monotone_for_chain(self):
        g = self.build_chain()
        assert g.topological_order() == [0, 1, 2, 3, 4]

    def test_as_chain_returns_all_layers(self):
        g = self.build_chain()
        assert g.as_chain() == g.topological_order()

    def test_predecessors_successors(self):
        g = self.build_chain()
        assert g.predecessors(2) == [1]
        assert g.successors(2) == [3]
        assert g.in_degree(0) == 0
        assert g.out_degree(4) == 0

    def test_aggregates(self):
        g = self.build_chain(3)
        assert g.total_params() == 30
        assert g.total_flops_per_sample() == pytest.approx(300.0)
        assert g.num_operator_layers() == 3
        assert g.num_weight_layers() == 3

    @pytest.mark.parametrize("layer_id", [-1, -5, 5, 999])
    @pytest.mark.parametrize(
        "query",
        [
            lambda g, lid: g.spec(lid),
            lambda g, lid: g.predecessors(lid),
            lambda g, lid: g.successors(lid),
            lambda g, lid: g.in_degree(lid),
            lambda g, lid: g.out_degree(lid),
            lambda g, lid: g.subgraph_between(lid, 4),
            lambda g, lid: g.subgraph_between(0, lid),
            lambda g, lid: g.subgraph_between(lid, lid),
        ],
        ids=[
            "spec", "predecessors", "successors", "in_degree", "out_degree",
            "subgraph_between_start", "subgraph_between_end", "subgraph_between_same",
        ],
    )
    def test_unknown_layer_id_raises_key_error(self, query, layer_id):
        g = self.build_chain()  # ids 0..4
        with pytest.raises(KeyError):
            query(g, layer_id)

    def test_unknown_input_rejected(self):
        g = ModelGraph("bad")
        g.add_layer(make_spec(name="input", op="input"))
        with pytest.raises(GraphValidationError):
            g.add_layer(make_spec(name="l0"), inputs=[99])


class TestModelGraphBranching:
    def build_diamond(self):
        g = ModelGraph("diamond")
        a = g.add_layer(make_spec(name="input", op="input", params=0, flops=0))
        b = g.add_layer(make_spec(name="split"), inputs=[a])
        c = g.add_layer(make_spec(name="left"), inputs=[b])
        d = g.add_layer(make_spec(name="right"), inputs=[b])
        e = g.add_layer(make_spec(name="join", op="concat", params=0), inputs=[c, d])
        return g, (a, b, c, d, e)

    def test_branch_and_join_detection(self):
        g, (a, b, c, d, e) = self.build_diamond()
        g.validate()
        assert not g.is_chain()
        assert g.branch_layers() == [b]
        assert g.join_layers() == [e]

    def test_as_chain_raises_for_branching_graph(self):
        g, _ = self.build_diamond()
        with pytest.raises(GraphValidationError):
            g.as_chain()

    def test_subgraph_between_covers_both_branches(self):
        g, (a, b, c, d, e) = self.build_diamond()
        assert set(g.subgraph_between(b, e)) == {b, c, d, e}
        assert g.subgraph_between(c, c) == [c]

    def test_chain_reduction_of_diamond(self):
        g, (a, b, c, d, e) = self.build_diamond()
        assert g.chain_reduction() == (
            a,
            b,
            BranchBlock(b, e, ((c,), (d,)), has_identity_branch=False),
        )

    def test_chain_reduction_is_memoized_until_add_layer(self):
        g, (a, b, c, d, e) = self.build_diamond()
        first = g.chain_reduction()
        assert g.chain_reduction() is first
        version = g.version
        f = g.add_layer(make_spec(name="tail"), inputs=[e])
        assert g.version == version + 1
        assert g.chain_reduction() == first + (f,)

    def test_chain_reduction_rejects_multi_entry_branch(self):
        g = ModelGraph("two-entries")
        a = g.add_layer(make_spec(name="input", op="input"))
        b = g.add_layer(make_spec(name="split"), inputs=[a])
        c = g.add_layer(make_spec(name="left"), inputs=[b])
        d = g.add_layer(make_spec(name="right"), inputs=[b])
        e = g.add_layer(make_spec(name="mix", op="add"), inputs=[c, d])
        f = g.add_layer(make_spec(name="side"), inputs=[b])
        g.add_layer(make_spec(name="join", op="concat"), inputs=[e, f, c])
        with pytest.raises(GraphValidationError, match="single-entry"):
            g.chain_reduction()

    @pytest.mark.parametrize("model", registry.available_models())
    def test_chain_reduction_covers_each_layer_once_in_order(self, model):
        graph = registry.build_model(model)
        position = {lid: i for i, lid in enumerate(graph.topological_order())}

        def flatten(chain):
            for element in chain:
                if isinstance(element, BranchBlock):
                    for branch in element.branches:
                        ids = list(flatten(branch))
                        assert ids == sorted(ids, key=position.__getitem__)
                        yield from ids
                    yield element.join_layer
                else:
                    yield element

        assert sorted(flatten(graph.chain_reduction())) == sorted(graph.layer_ids())

    def test_duplicate_names_rejected(self):
        g = ModelGraph("dupe")
        a = g.add_layer(make_spec(name="input", op="input"))
        g.add_layer(make_spec(name="x"), inputs=[a])
        g.add_layer(make_spec(name="x"), inputs=[a + 1])
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError):
            ModelGraph("empty").validate()

    def test_disconnected_graph_rejected(self):
        g = ModelGraph("disc")
        g.add_layer(make_spec(name="a", op="input"))
        g.add_layer(make_spec(name="b", op="input"))
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_multi_sink_rejected(self):
        g = ModelGraph("multisink")
        a = g.add_layer(make_spec(name="input", op="input"))
        g.add_layer(make_spec(name="s1"), inputs=[a])
        g.add_layer(make_spec(name="s2"), inputs=[a])
        with pytest.raises(GraphValidationError):
            g.validate()


class TestGraphProperties:
    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_random_chain_topological_order_is_complete(self, length):
        g = ModelGraph("prop")
        prev = g.add_layer(make_spec(name="input", op="input"))
        for i in range(length):
            prev = g.add_layer(make_spec(name=f"l{i}"), inputs=[prev])
        order = g.topological_order()
        assert len(order) == length + 1
        assert set(order) == set(range(length + 1))
        # Every edge points forward in the order.
        position = {lid: i for i, lid in enumerate(order)}
        for a, b in g.edges():
            assert position[a] < position[b]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1_000_000), min_size=1, max_size=20
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_total_params_is_sum_of_layer_params(self, params_list):
        g = ModelGraph("prop2")
        prev = g.add_layer(make_spec(name="input", op="input", params=0))
        for i, p in enumerate(params_list):
            prev = g.add_layer(make_spec(name=f"l{i}", params=p), inputs=[prev])
        assert g.total_params() == sum(params_list)
