"""``repro.cache`` — persistent, content-addressed planner/profiler artifacts.

The planner's value proposition is that burst-parallel planning is cheap
enough to run per job, online, at cluster scale — but the in-process memo
tables built by PR 2 die with the interpreter.  This package makes those
artifacts durable and shareable: an :class:`~repro.cache.store.ArtifactCache`
keyed by content fingerprints (:mod:`repro.cache.fingerprint`) of the
model-graph topology, GPU spec, profiler config, planner config, batch and
GPU budget, with schema-versioned invalidation.  Cold-start planner grids,
repeated bench/CI runs, sweep worker processes and the scheduler's plan
pre-warming all read and write the same on-disk entries.

Public API:

* :class:`~repro.cache.store.ArtifactCache` / ``CacheStats`` /
  :data:`~repro.cache.store.CACHE_SCHEMA_VERSION` /
  :func:`~repro.cache.store.default_cache_dir`;
* :func:`~repro.cache.fingerprint.fingerprint` and the typed helpers
  (``graph_fingerprint``, ``gpu_spec_fingerprint``, ``fabric_fingerprint``,
  ``profiler_fingerprint``, ``planner_config_fingerprint``).
"""

from .fingerprint import (
    canonical_json,
    fabric_fingerprint,
    fingerprint,
    fleet_fingerprint,
    gpu_spec_fingerprint,
    graph_fingerprint,
    planner_config_fingerprint,
    profiler_fingerprint,
    snapshot_fingerprint,
    trace_fingerprint,
)
from .store import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    ArtifactCache,
    CacheStats,
    default_cache_dir,
)

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
    "snapshot_fingerprint",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "ArtifactCache",
    "CacheStats",
    "default_cache_dir",
]
