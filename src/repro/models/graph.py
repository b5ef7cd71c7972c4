"""Static DNN computation graphs.

DeepPool's burst-parallel planner requires the model's execution graph to be
static (paper, section 3.2).  This module provides the graph representation
used throughout the reproduction: a DAG of :class:`LayerSpec` nodes with
explicit branch/join structure, plus the helpers the planner's graph-reduction
step (paper, Figure 7) needs to decompose a graph into a chain of
branch/join blocks.

A layer can only be fed by layers added before it, so every edge runs from
a lower id to a higher one: the ids are a topological order by
construction, and the graph cannot hold a cycle.  The graph is stored as
sorted per-layer predecessor and successor lists, and the reduction finds
dominators in one pass over a region in id order.

The graph intentionally stores *static per-sample* quantities (FLOPs,
parameter counts, activation sizes).  Everything batch- or hardware-dependent
(kernel times, memory traffic in bytes for a given dtype) is computed by
``repro.profiler`` from these quantities, mirroring how DeepPool profiles a
PyTorch module description rather than embedding device costs in the model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Container, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
        if self.bwd_flops_multiplier < 0:
            raise ValueError(f"layer {self.name!r}: negative backward flops multiplier")

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

    Nodes are integer layer ids ``0..n-1`` in insertion order; each id maps
    to a :class:`LayerSpec`.  Edges carry activations from producer to
    consumer, always from a lower id to a higher one.  The graph must be a
    single-source, single-sink DAG — the structure DeepPool's planner
    assumes (an ``input`` pseudo-layer is the source and the final
    classifier/softmax is the sink).

    Every per-layer query raises :class:`KeyError` for an id outside
    ``0..n-1``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._specs: Dict[int, LayerSpec] = {}
        # Sorted producer and consumer ids per layer; an input listed twice
        # is one edge.
        self._preds: Dict[int, List[int]] = {}
        self._succs: Dict[int, List[int]] = {}
        #: Bumped by every add_layer, so memos derived from the graph (cost
        #: models, plan fingerprints) can tell a grown graph from the one
        #: they were built for.
        self.version = 0
        # Topology memos.  The planner asks for the edges and the chain
        # reduction on every search; the answers only change when a layer is
        # added, so they are cached here and invalidated by add_layer.  List
        # accessors return copies so a caller mutating its result cannot
        # corrupt the memo.
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
        lid = len(self._specs)
        self._specs[lid] = spec
        self._preds[lid] = sorted(set(inputs))
        self._succs[lid] = []
        for src in self._preds[lid]:
            # The new id is the largest so far, so each list stays sorted.
            self._succs[src].append(lid)
        self.version += 1
        self._edges_cache = None
        self._reduction_cache = None
        return lid

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, layer_id: int) -> bool:
        return layer_id in self._specs

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._specs)))

    def spec(self, layer_id: int) -> LayerSpec:
        """The :class:`LayerSpec` for a layer id."""
        return self._specs[layer_id]

    def specs(self) -> List[LayerSpec]:
        """All layer specs in topological order."""
        return list(self._specs.values())

    def layer_ids(self) -> List[int]:
        """All layer ids in topological order."""
        return self.topological_order()

    def predecessors(self, layer_id: int) -> List[int]:
        return list(self._preds[layer_id])

    def successors(self, layer_id: int) -> List[int]:
        return list(self._succs[layer_id])

    def in_degree(self, layer_id: int) -> int:
        return len(self._preds[layer_id])

    def out_degree(self, layer_id: int) -> int:
        return len(self._succs[layer_id])

    def topological_order(self) -> List[int]:
        """Layer ids in topological order: ``0..n-1``, by construction."""
        return list(range(len(self._specs)))

    def source(self) -> int:
        """The unique source layer (usually the ``input`` pseudo-layer)."""
        sources = [lid for lid, preds in self._preds.items() if not preds]
        if len(sources) != 1:
            raise GraphValidationError(
                f"model {self.name!r} has {len(sources)} sources; expected 1"
            )
        return sources[0]

    def sink(self) -> int:
        """The unique sink layer (usually the classifier / softmax)."""
        sinks = [lid for lid, succs in self._succs.items() if not succs]
        if len(sinks) != 1:
            raise GraphValidationError(
                f"model {self.name!r} has {len(sinks)} sinks; expected 1"
            )
        return sinks[0]

    def is_chain(self) -> bool:
        """True if every layer has at most one predecessor and successor."""
        return all(len(preds) <= 1 for preds in self._preds.values()) and all(
            len(succs) <= 1 for succs in self._succs.values()
        )

    def branch_layers(self) -> List[int]:
        """Layers whose output fans out to more than one consumer."""
        return [lid for lid, succs in self._succs.items() if len(succs) > 1]

    def join_layers(self) -> List[int]:
        """Layers consuming more than one producer's output."""
        return [lid for lid, preds in self._preds.items() if len(preds) > 1]

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphValidationError`.

        No cycle check: add_layer only accepts inputs that already exist, so
        every edge runs from a lower id to a higher one.
        """
        if len(self._specs) == 0:
            raise GraphValidationError(f"model {self.name!r} is empty")
        if len(self._weak_component(0, self._specs)) != len(self._specs):
            raise GraphValidationError(f"model {self.name!r} is disconnected")
        self.source()
        self.sink()
        names = [s.name for s in self._specs.values()]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise GraphValidationError(
                f"model {self.name!r} has duplicate layer names: {dupes}"
            )

    def _weak_component(self, start: int, inside: Container[int]) -> List[int]:
        """Sorted layers of ``inside`` linked to ``start`` by edges within it."""
        component = [start]
        seen = {start}
        for lid in component:  # grows while it is walked: a BFS
            for other in self._preds[lid] + self._succs[lid]:
                if other in inside and other not in seen:
                    seen.add(other)
                    component.append(other)
        component.sort()
        return component

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
        for lid in (start, end):
            if lid not in self._specs:
                raise KeyError(lid)
        if start == end:
            return [start]
        # Every path from start to end runs through ids between the two.
        reached = {start}
        for lid in range(start, end):
            if lid in reached:
                reached.update(s for s in self._succs[lid] if s <= end)
        if end not in reached:
            return []
        on_path = {end}
        for lid in range(end, start, -1):
            if lid in on_path:
                on_path.update(p for p in self._preds[lid] if p in reached)
        return sorted(on_path)

    def edges(self) -> List[Tuple[int, int]]:
        if self._edges_cache is None:
            self._edges_cache = [
                (src, dst) for src, succs in self._succs.items() for dst in succs
            ]
        return list(self._edges_cache)

    def chain_reduction(self) -> Tuple[ChainElement, ...]:
        """The graph reduced to a chain of trunk layers and blocks (Figure 7).

        The *trunk* is the dominator chain of the sink: the layers every
        input-to-output path passes through.  Consecutive trunk layers with
        other layers between them become a :class:`BranchBlock` whose
        branches are reduced recursively, so nested branch/join structures
        (the split tails inside InceptionE) reduce naturally.  A chain model
        reduces to its layer ids.

        Layer ids are a topological order by construction, so each region's
        immediate dominators come from one pass over its layers in id order,
        and its entry and exit are its lowest and highest ids.

        The graph is validated first.  The result is immutable and memoized
        until the next :meth:`add_layer`.

        Raises
        ------
        GraphValidationError
            If the graph is invalid or a branch has several entries or exits.
        """
        if self._reduction_cache is None:
            self.validate()
            self._reduction_cache = self._reduce(self.topological_order())
        return self._reduction_cache

    def _reduce(self, region: List[int]) -> Tuple[ChainElement, ...]:
        """Chain reduction of a single-entry, single-exit region.

        ``region`` holds the region's layer ids in ascending order: every
        other layer has a predecessor in the region, so the entry is the
        first id, and likewise the exit is the last.
        """
        source, sink = region[0], region[-1]
        if len(region) == 1:
            return (source,)
        idom = self._immediate_dominators(region)
        trunk = [sink]
        while trunk[-1] != source:
            trunk.append(idom[trunk[-1]])
        trunk.reverse()

        reduced: List[ChainElement] = [source]
        for upper, lower in zip(trunk, trunk[1:]):
            # Every layer of the region lies on a source-to-sink path, and
            # every such path passes through both trunk layers; so the layers
            # on a path from upper to lower are exactly those ordered
            # strictly between them.
            between = region[bisect_right(region, upper) : bisect_left(region, lower)]
            if not between:
                reduced.append(lower)
                continue
            # Each component is found from its lowest id, so they come out
            # ordered by first layer.
            unassigned = set(between)
            components = []
            for lid in between:
                if lid in unassigned:
                    component = self._weak_component(lid, unassigned)
                    unassigned.difference_update(component)
                    components.append(component)
            reduced.append(
                BranchBlock(
                    branch_layer=upper,
                    join_layer=lower,
                    branches=tuple(self._reduce_branch(comp) for comp in components),
                    has_identity_branch=upper in self._preds[lower],
                )
            )
        return tuple(reduced)

    def _immediate_dominators(self, region: List[int]) -> Dict[int, int]:
        """Each layer's immediate dominator in a single-entry region (sorted ids).

        The entry maps to itself.  A layer's immediate dominator is the
        nearest common dominator of its in-region predecessors, all of which
        come before it, so one pass in id order finds them all.  A dominator
        has a lower id than the layers it dominates, so the walk up to the
        common one compares ids.
        """
        idom = {region[0]: region[0]}
        for lid in region[1:]:
            dom = None
            for pred in self._preds[lid]:
                if pred not in idom:  # outside the region
                    continue
                if dom is None:
                    dom = pred
                    continue
                while pred != dom:
                    while pred > dom:
                        pred = idom[pred]
                    while dom > pred:
                        dom = idom[dom]
            idom[lid] = dom
        return idom

    def _reduce_branch(self, component: List[int]) -> Tuple[ChainElement, ...]:
        members = set(component)
        sources = [
            n for n in component if not any(p in members for p in self._preds[n])
        ]
        sinks = [
            n for n in component if not any(s in members for s in self._succs[n])
        ]
        if len(sources) != 1 or len(sinks) != 1:
            raise GraphValidationError(
                f"branch component {component} has {len(sources)} sources and "
                f"{len(sinks)} sinks; the graph reduction requires single-entry "
                "single-exit branches"
            )
        return self._reduce(component)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelGraph(name={self.name!r}, layers={len(self)}, "
            f"params={self.total_params():,})"
        )
