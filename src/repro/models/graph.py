"""Static DNN computation graphs.

DeepPool's burst-parallel planner requires the model's execution graph to be
static (paper, section 3.2).  This module provides the graph representation
used throughout the reproduction: a DAG of :class:`LayerSpec` nodes with
explicit branch/join structure, plus the helpers the planner's graph-reduction
step (paper, Figure 7) needs to decompose a graph into a chain of
branch/join blocks.

The graph intentionally stores *static per-sample* quantities (FLOPs,
parameter counts, activation sizes).  Everything batch- or hardware-dependent
(kernel times, memory traffic in bytes for a given dtype) is computed by
``repro.profiler`` from these quantities, mirroring how DeepPool profiles a
PyTorch module description rather than embedding device costs in the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

__all__ = [
    "LayerSpec",
    "ModelGraph",
    "BranchBlock",
    "ChainElement",
    "GraphValidationError",
]


class GraphValidationError(ValueError):
    """Raised when a model graph violates a structural invariant."""


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one layer (operator) in a model.

    All quantities are *per sample* so that the profiler can scale them with
    the per-GPU batch size chosen by the planner.

    Attributes
    ----------
    name:
        Human-readable unique layer name, e.g. ``"features.conv3_2"``.
    op:
        Operator type.  One of the operator names understood by
        ``repro.models.layers`` / ``repro.profiler.kernel_model``
        (``"conv2d"``, ``"dense"``, ``"relu"``, ``"maxpool"``, ``"avgpool"``,
        ``"batchnorm"``, ``"add"``, ``"concat"``, ``"flatten"``,
        ``"dropout"``, ``"softmax"``, ``"input"``).
    flops_per_sample:
        Forward-pass floating point operations for a single sample.
    params:
        Number of learnable parameters owned by this layer.
    input_elems_per_sample:
        Number of scalar elements in this layer's input activation
        (summed over all inputs for join layers).
    output_elems_per_sample:
        Number of scalar elements in this layer's output activation.
    bwd_flops_multiplier:
        Ratio of backward-pass FLOPs to forward-pass FLOPs.  Roughly 2.0 for
        layers with weights (grad w.r.t. input + grad w.r.t. weights) and 1.0
        for element-wise / pooling layers.
    output_shape:
        Optional (C, H, W) or (features,) shape of the output, recorded for
        reporting (Table 1) and debugging.
    """

    name: str
    op: str
    flops_per_sample: float
    params: int
    input_elems_per_sample: int
    output_elems_per_sample: int
    bwd_flops_multiplier: float = 2.0
    output_shape: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.flops_per_sample < 0:
            raise ValueError(f"layer {self.name!r}: negative flops")
        if self.params < 0:
            raise ValueError(f"layer {self.name!r}: negative params")
        if self.input_elems_per_sample < 0 or self.output_elems_per_sample < 0:
            raise ValueError(f"layer {self.name!r}: negative activation size")

    @property
    def has_weights(self) -> bool:
        """Whether this layer owns learnable parameters (needs gradient sync)."""
        return self.params > 0

    def total_flops_per_sample(self) -> float:
        """Forward + backward FLOPs for one sample."""
        return self.flops_per_sample * (1.0 + self.bwd_flops_multiplier)

    def with_name(self, name: str) -> "LayerSpec":
        """Return a copy of this spec under a different name."""
        return replace(self, name=name)


@dataclass(frozen=True)
class BranchBlock:
    """A branch/join region between two consecutive trunk layers (Figure 7).

    Each entry of ``branches`` is one parallel branch (a weakly connected
    component of the layers strictly between the two trunk layers), itself
    reduced to a chain; branches are ordered by the id of their first layer.
    A direct edge from the branching to the joining layer (e.g. a residual
    shortcut) is not a branch of its own; it sets ``has_identity_branch``.
    """

    branch_layer: int
    join_layer: int
    branches: Tuple[Tuple["ChainElement", ...], ...]
    has_identity_branch: bool


#: One element of a reduced chain: a trunk layer id or a branch/join block.
ChainElement = Union[int, BranchBlock]


class ModelGraph:
    """A static DNN computation graph.

    Nodes are integer layer ids in insertion order; each id maps to a
    :class:`LayerSpec`.  Edges carry activations from producer to consumer.
    The graph must be a single-source, single-sink DAG — the structure
    DeepPool's planner assumes (an ``input`` pseudo-layer is the source and
    the final classifier/softmax is the sink).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._g = nx.DiGraph()
        self._specs: Dict[int, LayerSpec] = {}
        self._next_id = 0
        #: Bumped by every add_layer, so memos derived from the graph (cost
        #: models, plan fingerprints) can tell a grown graph from the one
        #: they were built for.
        self.version = 0
        # Topology memos.  The planner asks for the topological order, the
        # edges and the chain reduction on every search; the answers only
        # change when a layer is added, so they are cached here and
        # invalidated by add_layer.  List accessors return copies so a caller
        # mutating its result cannot corrupt the memo.
        self._topo_cache: Optional[List[int]] = None
        self._edges_cache: Optional[List[Tuple[int, int]]] = None
        self._reduction_cache: Optional[Tuple[ChainElement, ...]] = None

    # ------------------------------------------------------------------ build
    def add_layer(self, spec: LayerSpec, inputs: Sequence[int] = ()) -> int:
        """Add a layer fed by the given producer layer ids, returning its id."""
        for src in inputs:
            if src not in self._specs:
                raise GraphValidationError(
                    f"layer {spec.name!r} references unknown input id {src}"
                )
        lid = self._next_id
        self._next_id += 1
        self._specs[lid] = spec
        self._g.add_node(lid)
        for src in inputs:
            self._g.add_edge(src, lid)
        self.version += 1
        self._topo_cache = None
        self._edges_cache = None
        self._reduction_cache = None
        return lid

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, layer_id: int) -> bool:
        return layer_id in self._specs

    def __iter__(self) -> Iterator[int]:
        return iter(self.topological_order())

    def spec(self, layer_id: int) -> LayerSpec:
        """The :class:`LayerSpec` for a layer id."""
        return self._specs[layer_id]

    def specs(self) -> List[LayerSpec]:
        """All layer specs in topological order."""
        return [self._specs[i] for i in self.topological_order()]

    def layer_ids(self) -> List[int]:
        """All layer ids in topological order."""
        return self.topological_order()

    def predecessors(self, layer_id: int) -> List[int]:
        return sorted(self._g.predecessors(layer_id))

    def successors(self, layer_id: int) -> List[int]:
        return sorted(self._g.successors(layer_id))

    def in_degree(self, layer_id: int) -> int:
        return self._g.in_degree(layer_id)

    def out_degree(self, layer_id: int) -> int:
        return self._g.out_degree(layer_id)

    def topological_order(self) -> List[int]:
        """Layer ids in a deterministic topological order (by id)."""
        if self._topo_cache is None:
            self._topo_cache = list(nx.lexicographical_topological_sort(self._g))
        return list(self._topo_cache)

    def source(self) -> int:
        """The unique source layer (usually the ``input`` pseudo-layer)."""
        sources = [n for n in self._g.nodes if self._g.in_degree(n) == 0]
        if len(sources) != 1:
            raise GraphValidationError(
                f"model {self.name!r} has {len(sources)} sources; expected 1"
            )
        return sources[0]

    def sink(self) -> int:
        """The unique sink layer (usually the classifier / softmax)."""
        sinks = [n for n in self._g.nodes if self._g.out_degree(n) == 0]
        if len(sinks) != 1:
            raise GraphValidationError(
                f"model {self.name!r} has {len(sinks)} sinks; expected 1"
            )
        return sinks[0]

    def is_chain(self) -> bool:
        """True if every layer has at most one predecessor and successor."""
        return all(
            self._g.in_degree(n) <= 1 and self._g.out_degree(n) <= 1
            for n in self._g.nodes
        )

    def branch_layers(self) -> List[int]:
        """Layers whose output fans out to more than one consumer."""
        return sorted(n for n in self._g.nodes if self._g.out_degree(n) > 1)

    def join_layers(self) -> List[int]:
        """Layers consuming more than one producer's output."""
        return sorted(n for n in self._g.nodes if self._g.in_degree(n) > 1)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphValidationError`."""
        if len(self._specs) == 0:
            raise GraphValidationError(f"model {self.name!r} is empty")
        if not nx.is_directed_acyclic_graph(self._g):
            raise GraphValidationError(f"model {self.name!r} contains a cycle")
        if not nx.is_weakly_connected(self._g):
            raise GraphValidationError(f"model {self.name!r} is disconnected")
        self.source()
        self.sink()
        names = [s.name for s in self._specs.values()]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise GraphValidationError(
                f"model {self.name!r} has duplicate layer names: {dupes}"
            )

    # ------------------------------------------------------------- aggregates
    def total_params(self) -> int:
        """Total learnable parameters across all layers."""
        return sum(s.params for s in self._specs.values())

    def total_flops_per_sample(self) -> float:
        """Total forward-pass FLOPs for one sample."""
        return sum(s.flops_per_sample for s in self._specs.values())

    def num_operator_layers(self) -> int:
        """Number of layers excluding the ``input`` pseudo-layer."""
        return sum(1 for s in self._specs.values() if s.op != "input")

    def num_weight_layers(self) -> int:
        """Number of layers owning learnable parameters."""
        return sum(1 for s in self._specs.values() if s.has_weights)

    # ------------------------------------------------------------ chain views
    def as_chain(self) -> List[int]:
        """Return the layer ids as a single chain.

        Raises
        ------
        GraphValidationError
            If the graph branches; callers should then use the planner's
            graph-reduction path instead.
        """
        if not self.is_chain():
            raise GraphValidationError(
                f"model {self.name!r} is not a simple chain; "
                "use graph reduction for branch/join graphs"
            )
        return self.topological_order()

    def subgraph_between(self, start: int, end: int) -> List[int]:
        """Layer ids on any path from ``start`` to ``end`` (inclusive)."""
        if start == end:
            return [start]
        nodes = (nx.descendants(self._g, start) | {start}) & (
            nx.ancestors(self._g, end) | {end}
        )
        return [n for n in self.topological_order() if n in nodes]

    def edges(self) -> List[Tuple[int, int]]:
        if self._edges_cache is None:
            self._edges_cache = sorted(self._g.edges())
        return list(self._edges_cache)

    def chain_reduction(self) -> Tuple[ChainElement, ...]:
        """The graph reduced to a chain of trunk layers and blocks (Figure 7).

        The *trunk* is the dominator chain of the sink: the layers every
        input-to-output path passes through.  Consecutive trunk layers with
        other layers between them become a :class:`BranchBlock` whose
        branches are reduced recursively, so nested branch/join structures
        (the split tails inside InceptionE) reduce naturally.  A chain model
        reduces to its layer ids.

        The graph is validated first.  The result is immutable and memoized
        until the next :meth:`add_layer`.

        Raises
        ------
        GraphValidationError
            If the graph is invalid or a branch has several entries or exits.
        """
        if self._reduction_cache is None:
            self.validate()
            order = self.topological_order()
            self._reduction_cache = self._reduce(
                set(order), self.source(), self.sink(), order,
                {lid: i for i, lid in enumerate(order)},
            )
        return self._reduction_cache

    def _reduce(
        self,
        nodes: Set[int],
        source: int,
        sink: int,
        order: List[int],
        position: Dict[int, int],
    ) -> Tuple[ChainElement, ...]:
        """Chain reduction of the single-entry, single-exit subgraph ``nodes``.

        ``order`` is the graph's topological order and ``position`` each
        layer's index in it.
        """
        if len(nodes) == 1:
            return (source,)
        idom = nx.immediate_dominators(self._g.subgraph(nodes), source)
        trunk = [sink]
        while trunk[-1] != source:
            trunk.append(idom[trunk[-1]])
        trunk.reverse()

        chain: List[ChainElement] = [trunk[0]]
        for upper, lower in zip(trunk, trunk[1:]):
            # Every layer of the subgraph lies on a source-to-sink path, and
            # every such path passes through both trunk layers; so the layers
            # on a path from upper to lower are exactly those ordered
            # strictly between them.
            between = [
                n for n in order[position[upper] + 1 : position[lower]] if n in nodes
            ]
            if not between:
                chain.append(lower)
                continue
            components = [
                sorted(comp, key=position.__getitem__)
                for comp in nx.weakly_connected_components(self._g.subgraph(between))
            ]
            components.sort(key=lambda c: c[0])
            chain.append(
                BranchBlock(
                    branch_layer=upper,
                    join_layer=lower,
                    branches=tuple(
                        self._reduce_branch(comp, order, position) for comp in components
                    ),
                    has_identity_branch=self._g.has_edge(upper, lower),
                )
            )
        return tuple(chain)

    def _reduce_branch(
        self, component: List[int], order: List[int], position: Dict[int, int]
    ) -> Tuple[ChainElement, ...]:
        comp_set = set(component)
        sources = [
            n for n in component if not any(p in comp_set for p in self._g.predecessors(n))
        ]
        sinks = [
            n for n in component if not any(s in comp_set for s in self._g.successors(n))
        ]
        if len(sources) != 1 or len(sinks) != 1:
            raise GraphValidationError(
                f"branch component {sorted(component)} has {len(sources)} sources and "
                f"{len(sinks)} sinks; the graph reduction requires single-entry "
                "single-exit branches"
            )
        return self._reduce(comp_set, sources[0], sinks[0], order, position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelGraph(name={self.name!r}, layers={len(self)}, "
            f"params={self.total_params():,})"
        )
