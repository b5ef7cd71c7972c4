"""Content fingerprints for cacheable planner/profiler inputs.

The persistent artifact cache (:mod:`repro.cache.store`) is content-addressed:
an entry's key is a SHA-256 digest of everything that determines its value —
the model-graph topology, the GPU specification, the profiler configuration,
the network fabric, the planner configuration, and the workload parameters
(batch, GPU budget, amplification limit).  Two processes that derive the same
inputs derive the same key and therefore share one entry; *any* change to an
input (an edited graph, a different GPU, a bumped schema) produces a different
key, which is how invalidation works — stale entries are simply never looked
up again.

All fingerprints go through :func:`canonical_json`, which serializes with
sorted keys and exact float representations so the digest is stable across
processes, platforms and Python versions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "canonical_json",
    "fingerprint",
    "graph_fingerprint",
    "gpu_spec_fingerprint",
    "fabric_fingerprint",
    "profiler_fingerprint",
    "planner_config_fingerprint",
    "fleet_fingerprint",
    "trace_fingerprint",
    "snapshot_digest",
    "snapshot_fingerprint",
]


#: The one encoder behind :func:`canonical_json`: ``json.dumps`` with these
#: arguments builds a fresh ``JSONEncoder`` on every call.
_CANONICAL_ENCODE = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
).encode


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact float reprs.

    ``repr``-based float serialization (the ``json`` default) round-trips
    exactly, so numerically identical inputs always produce byte-identical
    canonical strings.  NaN/Infinity are rejected: they have no canonical
    JSON form and would silently produce unshareable keys.  The output is
    ``json.dumps(data, sort_keys=True, separators=(",", ":"),
    allow_nan=False)``, from one module-level encoder shared by every call.
    """
    return _CANONICAL_ENCODE(data)


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``parts``."""
    digest = hashlib.sha256()
    digest.update(canonical_json(list(parts)).encode("utf-8"))
    return digest.hexdigest()


def graph_fingerprint(graph) -> str:
    """Fingerprint of a :class:`~repro.models.graph.ModelGraph`.

    Covers the graph name, every layer's full static spec, and the edge
    list — any topology or per-layer change (an added layer, an edited FLOP
    count) changes the digest.  The digest is memoized on the graph object;
    ``add_layer`` after fingerprinting is not expected (planning operates on
    finished graphs), but the memo is keyed by layer/edge counts so a grown
    graph re-fingerprints rather than serving a stale digest.
    """
    memo = getattr(graph, "_fingerprint_memo", None)
    shape = (len(graph), len(graph.edges()))
    if memo is not None and memo[0] == shape:
        return memo[1]
    payload = {
        "name": graph.name,
        "layers": [
            [lid, asdict(graph.spec(lid))] for lid in graph.layer_ids()
        ],
        "edges": [list(edge) for edge in graph.edges()],
    }
    digest = fingerprint("model-graph", payload)
    try:
        graph._fingerprint_memo = (shape, digest)
    except AttributeError:  # pragma: no cover - exotic graph stand-ins
        pass
    return digest


def gpu_spec_fingerprint(gpu) -> str:
    """Fingerprint of a :class:`~repro.profiler.gpu_spec.GPUSpec`."""
    return fingerprint("gpu-spec", asdict(gpu))


def fabric_fingerprint(fabric) -> str:
    """Fingerprint of a :class:`~repro.network.fabric.NetworkFabric`."""
    return fingerprint("fabric", asdict(fabric))


def profiler_fingerprint(profiler) -> str:
    """Fingerprint of everything a profiler folds into a layer timing."""
    return fingerprint(
        "profiler",
        asdict(profiler.gpu),
        profiler.use_cuda_graphs,
        profiler.dtype_bytes,
    )


def fleet_fingerprint(fleet) -> str:
    """Fingerprint of a :class:`~repro.sched.fleet.ClusterFleet`.

    Pools are serialized sorted by name, so two fleets that differ only in
    pool declaration order — which cannot change scheduling outcomes —
    share a fingerprint, while any change to a pool's GPU spec, size or
    host shape produces a new one.
    """
    payload = sorted(
        [pool.name, asdict(pool.gpu), pool.num_gpus, pool.gpus_per_host]
        for pool in fleet.pools
    )
    return fingerprint("fleet", payload)


#: ``fingerprint("trace", rows)`` hashes exactly these bytes around the rows.
_TRACE_HEAD = b'["trace",['
_TRACE_TAIL = b"]]"
#: A trace row's keys in the order :func:`canonical_json` sorts them, each
#: mapped to the text that precedes its value in the row.
_TRACE_KEYS = {
    key: ("," if i else "{") + canonical_json(key) + ":"
    for i, key in enumerate(sorted((
        "name", "model", "global_batch", "arrival_time", "iterations",
        "kind", "amplification_limit", "max_gpus",
    )))
}
#: Jobs per streamed block of :func:`trace_fingerprint`: bounds the text
#: held at once, whatever the trace's length.
_TRACE_BLOCK = 4096


def _encode_column(values: List[Any]) -> List[str]:
    """``[canonical_json(v) for v in values]``, from one encoder call.

    The canonical array is split at its commas.  A JSON number, ``null`` or
    ``true``/``false`` never contains one, so for a column of those the
    split gives exactly one piece per value.  Any other value may (a string
    or a list with a comma in it); then the piece count is off and the
    column is encoded value by value instead.
    """
    pieces = canonical_json(values)[1:-1].split(",")
    if len(pieces) == len(values):
        return pieces
    return [canonical_json(value) for value in values]


def _encode_shared(values: List[Any], encode: Callable[[Any], str]) -> List[str]:
    """``[encode(v) for v in values]``, calling ``encode`` once per object.

    Jobs share their model name and kind objects, so a trace has only a
    few distinct ones.  The memo is keyed by object identity, which is
    exact while ``values`` holds them alive; a memo keyed by value would
    merge objects that are equal but encode differently (``1 == True``).
    """
    ids = list(map(id, values))
    text = {key: encode(value) for key, value in dict(zip(ids, values)).items()}
    return list(map(text.__getitem__, ids))


def trace_fingerprint(trace) -> str:
    """Fingerprint of a :class:`~repro.sched.traces.TraceJob` arrival log.

    Order-sensitive: the same jobs submitted in a different order are a
    different workload (trace order breaks exact-time ties in the event
    queue).  The online service uses this to label a bridged replay with
    the identity of the arrival log it reproduced.

    The digest is ``fingerprint("trace", rows)``, where each row is the
    dict of a job's eight fields (``kind`` by its value).  It is computed
    without building those dicts.  Each numeric field (``arrival_time``,
    ``iterations``, ``global_batch``, ``amplification_limit``,
    ``max_gpus``) is encoded as one column by one :func:`canonical_json`
    call and split at its commas (:func:`_encode_column`).  Each distinct
    ``model`` and ``kind`` object is encoded once (:func:`_encode_shared`),
    and each ``name`` by its own call.  The rows are laid out with their
    keys in sorted order, exactly as :func:`canonical_json` lays out a
    dict, and hashed a block of jobs at a time.  Non-finite numbers raise
    ``ValueError``, as they do in :func:`canonical_json`.

    The fixed text between two per-job fields is memoized per shape.  Those
    memos are keyed by the encoded texts of the fields, never by their
    values: ``2 == 2.0 == True`` and ``0.0 == -0.0``, but each pair
    encodes differently.
    """
    jobs = list(trace)
    key = _TRACE_KEYS
    digest = hashlib.sha256(_TRACE_HEAD)
    # In key order (amplification_limit, arrival_time, global_batch,
    # iterations, kind, max_gpus, model, name), a row alternates fixed
    # text and per-job values: the text before arrival_time depends only
    # on amplification_limit, the text before iterations on global_batch,
    # and the text before name on (kind, max_gpus, model).
    heads: Dict[str, str] = {}
    mids: Dict[str, str] = {}
    tails: Dict[Tuple[str, str, str], str] = {}
    for start in range(0, len(jobs), _TRACE_BLOCK):
        block = jobs[start:start + _TRACE_BLOCK]
        limits = _encode_column([job.amplification_limit for job in block])
        for text in set(limits).difference(heads):
            heads[text] = key["amplification_limit"] + text + key["arrival_time"]
        batches = _encode_column([job.global_batch for job in block])
        for text in set(batches).difference(mids):
            mids[text] = key["global_batch"] + text + key["iterations"]
        shapes = list(zip(
            _encode_shared(
                [job.kind for job in block], lambda kind: canonical_json(kind.value)
            ),
            _encode_column([job.max_gpus for job in block]),
            _encode_shared([job.model for job in block], canonical_json),
        ))
        for kind, max_gpus, model in set(shapes).difference(tails):
            tails[kind, max_gpus, model] = (
                key["kind"] + kind + key["max_gpus"] + max_gpus
                + key["model"] + model + key["name"]
            )
        # Seven pieces per row; the last closes the row and separates it
        # from the next.
        pieces = ["},"] * (7 * len(block))
        pieces[0::7] = map(heads.__getitem__, limits)
        pieces[1::7] = _encode_column([job.arrival_time for job in block])
        pieces[2::7] = map(mids.__getitem__, batches)
        pieces[3::7] = _encode_column([job.iterations for job in block])
        pieces[4::7] = map(tails.__getitem__, shapes)
        pieces[5::7] = map(canonical_json, [job.name for job in block])
        pieces[-1] = "}"
        if start:
            digest.update(b",")
        digest.update("".join(pieces).encode("utf-8"))
    digest.update(_TRACE_TAIL)
    return digest.hexdigest()


# ``fingerprint("engine-snapshot", payload)`` hashes exactly these bytes
# around the payload's canonical encoding.
_SNAPSHOT_HEAD = b'["engine-snapshot",'
_SNAPSHOT_TAIL = b"]"


def snapshot_digest(*pieces: bytes) -> str:
    """:func:`snapshot_fingerprint` of a payload already canonically encoded.

    The ``pieces``, in order, are ``canonical_json(payload).encode("utf-8")``
    (one piece or many).  A caller that needs those bytes anyway (the
    service writes them to its snapshot file, and reads them back) hashes
    them here instead of encoding the payload a second time.
    """
    digest = hashlib.sha256(_SNAPSHOT_HEAD)
    for piece in pieces:
        digest.update(piece)
    digest.update(_SNAPSHOT_TAIL)
    return digest.hexdigest()


def snapshot_fingerprint(payload) -> str:
    """Fingerprint of an :class:`~repro.sched.snapshot.EngineSnapshot` payload.

    Content-addresses a captured engine state: two runs that froze the same
    simulation at the same event boundary share a digest, and a persisted
    snapshot whose recorded fingerprint no longer matches its payload has
    been corrupted — the recovery path verifies this before applying a
    single field.
    """
    return snapshot_digest(canonical_json(payload).encode("utf-8"))


def planner_config_fingerprint(config) -> str:
    """Fingerprint of a :class:`~repro.core.planner.planner.PlannerConfig`.

    An unbounded amplification limit (``float('inf')``) is legal in a config
    but has no canonical JSON form, so it is named explicitly.
    """
    payload = {
        key: "inf" if isinstance(value, float) and math.isinf(value) else value
        for key, value in asdict(config).items()
    }
    return fingerprint("planner-config", payload)
