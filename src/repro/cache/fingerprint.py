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
from typing import Any

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


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact float reprs.

    ``repr``-based float serialization (the ``json`` default) round-trips
    exactly, so numerically identical inputs always produce byte-identical
    canonical strings.  NaN/Infinity are rejected: they have no canonical
    JSON form and would silently produce unshareable keys.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


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


def trace_fingerprint(trace) -> str:
    """Fingerprint of a :class:`~repro.sched.traces.TraceJob` arrival log.

    Order-sensitive: the same jobs submitted in a different order are a
    different workload (trace order breaks exact-time ties in the event
    queue).  The online service uses this to label a bridged replay with
    the identity of the arrival log it reproduced.
    """
    payload = [
        {
            "name": job.name,
            "model": job.model,
            "global_batch": job.global_batch,
            "arrival_time": job.arrival_time,
            "iterations": job.iterations,
            "kind": job.kind.value,
            "amplification_limit": job.amplification_limit,
            "max_gpus": job.max_gpus,
        }
        for job in trace
    ]
    return fingerprint("trace", payload)


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
