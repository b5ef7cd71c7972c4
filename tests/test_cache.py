"""Tests for the persistent content-addressed artifact cache (repro.cache)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    ArtifactCache,
    canonical_json,
    default_cache_dir,
    fingerprint,
    graph_fingerprint,
    profiler_fingerprint,
)
from repro.core.planner.planner import BurstParallelPlanner, PlannerConfig
from repro.models.graph import LayerSpec, ModelGraph
from repro.models.registry import build_model
from repro.network.fabric import get_fabric
from repro.profiler.gpu_spec import A100_40GB, V100_32GB
from repro.profiler.layer_profiler import LayerProfiler

#: JSON-able scalars as the fingerprints and snapshots carry them: ints far
#: past 64 bits, finite floats (``-0.0`` and subnormals included), and text
#: with non-ASCII and control characters.
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


def _tiny_graph(name="tiny", dense_flops=1000.0):
    g = ModelGraph(name)
    inp = g.add_layer(
        LayerSpec("input", "input", 0.0, 0, 0, 32, bwd_flops_multiplier=0.0)
    )
    g.add_layer(
        LayerSpec("fc", "dense", dense_flops, 32 * 8, 32, 8), inputs=[inp]
    )
    return g


class TestFingerprints:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    @given(_json_values)
    def test_canonical_json_equals_json_dumps(self, value):
        """The shared encoder writes what a fresh ``json.dumps`` writes."""
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @given(
        _json_values,
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.integers(0, 2),
    )
    def test_canonical_json_rejects_non_finite_floats_anywhere(
        self, value, bad, depth
    ):
        nested = [value, bad]
        for _ in range(depth):
            nested = {"k": nested, "v": value}
        with pytest.raises(ValueError):
            canonical_json(nested)
        # The rejection leaves the shared encoder fit for the next call.
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def test_fingerprint_is_stable_and_input_sensitive(self):
        assert fingerprint("x", 1) == fingerprint("x", 1)
        assert fingerprint("x", 1) != fingerprint("x", 2)

    def test_graph_edit_changes_fingerprint(self):
        base = graph_fingerprint(_tiny_graph())
        assert graph_fingerprint(_tiny_graph()) == base  # rebuild: same digest
        assert graph_fingerprint(_tiny_graph(dense_flops=2000.0)) != base

    def test_grown_graph_refingerprints(self):
        g = _tiny_graph()
        before = graph_fingerprint(g)
        g.add_layer(
            LayerSpec("relu", "relu", 8.0, 0, 8, 8, bwd_flops_multiplier=1.0),
            inputs=[1],
        )
        assert graph_fingerprint(g) != before

    def test_gpu_spec_change_changes_profiler_fingerprint(self):
        a100 = LayerProfiler(gpu=A100_40GB)
        v100 = LayerProfiler(gpu=V100_32GB)
        assert profiler_fingerprint(a100) != profiler_fingerprint(v100)
        assert a100.fingerprint() == LayerProfiler(gpu=A100_40GB).fingerprint()


class TestArtifactCacheStore:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = fingerprint("k")
        assert cache.get("ns", key) is None
        cache.put("ns", key, {"value": 1.5})
        assert cache.get("ns", key) == {"value": 1.5}
        assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (1, 1, 1)

    def test_get_or_compute_computes_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = fingerprint("k")
        calls = []

        def compute():
            calls.append(1)
            return {"v": 7}

        assert cache.get_or_compute("ns", key, compute) == {"v": 7}
        assert cache.get_or_compute("ns", key, compute) == {"v": 7}
        assert len(calls) == 1

    def test_rejects_non_hex_keys(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path).entry_path("ns", "../escape")

    def test_corrupted_entry_recovers_by_recompute(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = fingerprint("k")
        path = cache.put("ns", key, {"v": 1})
        path.write_text("{ not json at all")
        assert cache.get("ns", key) is None
        assert cache.stats.errors == 1
        assert not path.exists()  # bad file dropped, not re-parsed forever
        # Recompute path: the cache is usable again immediately.
        assert cache.get_or_compute("ns", key, lambda: {"v": 2}) == {"v": 2}
        assert cache.get("ns", key) == {"v": 2}

    def test_wrong_key_envelope_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key_a, key_b = fingerprint("a"), fingerprint("b")
        path_b = cache.entry_path("ns", key_b)
        path_b.parent.mkdir(parents=True)
        # A payload copied under the wrong name must not be served.
        envelope = {
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "namespace": "ns",
            "key": key_a,
            "payload": {"v": 1},
        }
        path_b.write_text(json.dumps(envelope))
        assert cache.get("ns", key_b) is None
        assert cache.stats.errors == 1

    def test_schema_bump_forces_miss(self, tmp_path):
        old = ArtifactCache(tmp_path, schema_version=CACHE_SCHEMA_VERSION)
        key = fingerprint("k")
        old.put("ns", key, {"v": 1})
        bumped = ArtifactCache(tmp_path, schema_version=CACHE_SCHEMA_VERSION + 1)
        assert bumped.get("ns", key) is None
        # The old version still sees its own entries.
        assert old.get("ns", key) == {"v": 1}

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        cache = ArtifactCache()
        assert str(cache.root).startswith(str(tmp_path / "elsewhere"))

    def test_tilde_roots_expand_to_home(self, monkeypatch):
        """'~/.cache/repro' must mean the home dir, not a literal './~'."""
        cache = ArtifactCache("~/.cache/repro-test")
        assert "~" not in str(cache.root)
        assert str(cache.base_dir).startswith(str(Path.home()))
        monkeypatch.setenv(CACHE_DIR_ENV, "~/elsewhere")
        assert default_cache_dir() == Path.home() / "elsewhere"


class TestProfilerPersistentCache:
    def test_disk_hit_matches_computed_timing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        spec = _tiny_graph().spec(1)
        first = LayerProfiler(persistent_cache=cache).layer_timing(spec, 4)
        reader = LayerProfiler(persistent_cache=ArtifactCache(tmp_path))
        second = reader.layer_timing(spec, 4)
        assert first == second
        assert reader.persistent_cache.stats.hits == 1

    def test_gpu_spec_change_is_a_disk_miss(self, tmp_path):
        spec = _tiny_graph().spec(1)
        a_cache = ArtifactCache(tmp_path)
        LayerProfiler(gpu=A100_40GB, persistent_cache=a_cache).layer_timing(spec, 4)
        v_cache = ArtifactCache(tmp_path)
        LayerProfiler(gpu=V100_32GB, persistent_cache=v_cache).layer_timing(spec, 4)
        assert v_cache.stats.hits == 0
        assert v_cache.stats.misses == 1


class TestPlanPersistentCache:
    def _planner(self, tmp_path, **kwargs):
        cache = ArtifactCache(tmp_path)
        return BurstParallelPlanner(
            get_fabric(kwargs.pop("fabric", "nvswitch")),
            LayerProfiler(
                gpu=kwargs.pop("gpu", A100_40GB), persistent_cache=cache
            ),
            kwargs.pop("config", None),
            cache=cache,
        )

    def test_warm_plan_is_identical_and_skips_search(self, tmp_path):
        graph = build_model("vgg11")
        cold = self._planner(tmp_path).plan(graph, 32, 4)
        warm_planner = self._planner(tmp_path)
        warm = warm_planner.plan(build_model("vgg11"), 32, 4)
        assert warm.to_json() == cold.to_json()
        assert warm_planner.cache.stats.hits >= 1
        assert warm_planner.profiler.cache_stats.queries == 0  # no search ran

    def test_graph_edit_invalidates_plan(self, tmp_path):
        planner = self._planner(tmp_path)
        planner.plan(_tiny_graph(), 8, 2)
        writes_before = planner.cache.stats.writes
        planner.plan(_tiny_graph(dense_flops=2000.0), 8, 2)
        assert planner.cache.stats.writes > writes_before  # recomputed, re-stored

    def test_grown_graph_replans(self, tmp_path):
        """A layer added after planning must not be served the old plan."""
        graph = build_model("vgg16")
        planner = self._planner(tmp_path)
        before = planner.plan(graph, 32, 8)
        assert len(before.assignments) == len(graph)
        sink = graph.sink()
        out = graph.spec(sink).output_elems_per_sample
        graph.add_layer(
            LayerSpec("extra.relu", "relu", float(out), 0, out, out,
                      bwd_flops_multiplier=1.0),
            inputs=[sink],
        )
        after = planner.plan(graph, 32, 8)
        assert len(after.assignments) == len(graph) == len(before.assignments) + 1
        assert planner.cache.stats.hits == 0
        # A fresh planner over a rebuilt copy of the grown graph agrees.
        twin = build_model("vgg16")
        twin.add_layer(graph.spec(len(graph) - 1), inputs=[twin.sink()])
        fresh = BurstParallelPlanner(
            get_fabric("nvswitch"), LayerProfiler()
        ).plan(twin, 32, 8)
        assert after.assignments == fresh.assignments
        assert after.iteration_time == fresh.iteration_time

    def test_gpu_spec_change_invalidates_plan(self, tmp_path):
        graph = _tiny_graph()
        self._planner(tmp_path, gpu=A100_40GB).plan(graph, 8, 2)
        v100 = self._planner(tmp_path, gpu=V100_32GB)
        v100.plan(graph, 8, 2)
        assert v100.cache.stats.hits == 0

    def test_planner_config_changes_fingerprint(self):
        fabric = get_fabric("nvswitch")
        profiler = LayerProfiler()
        default = BurstParallelPlanner(fabric, profiler)
        loose = BurstParallelPlanner(
            fabric, profiler, PlannerConfig(amplification_limit=4.0)
        )
        full_grid = BurstParallelPlanner(
            fabric, profiler, PlannerConfig(powers_of_two_only=False)
        )
        prints = {p.fingerprint() for p in (default, loose, full_grid)}
        assert len(prints) == 3

    def test_unbounded_amplification_limit_fingerprints(self):
        """float('inf') is a legal config value and must not break hashing."""
        fabric = get_fabric("nvswitch")
        unbounded = BurstParallelPlanner(
            fabric, LayerProfiler(), PlannerConfig(float("inf"))
        )
        assert unbounded.fingerprint() != BurstParallelPlanner(
            fabric, LayerProfiler()
        ).fingerprint()

    def test_corrupted_plan_entry_recomputes(self, tmp_path):
        graph = _tiny_graph()
        planner = self._planner(tmp_path)
        reference = planner.plan(graph, 8, 2)
        # Corrupt every plan entry on disk.
        plan_dir = planner.cache.root / "plan"
        corrupted = 0
        for entry in plan_dir.rglob("*.json"):
            entry.write_text("garbage")
            corrupted += 1
        assert corrupted >= 1
        again = self._planner(tmp_path)
        plan = again.plan(graph, 8, 2)
        assert plan.iteration_time == reference.iteration_time
        assert again.cache.stats.errors >= 1


_CROSS_PROCESS_SCRIPT = """
import sys
from repro.cache import ArtifactCache
from repro.core.planner.planner import BurstParallelPlanner
from repro.models.registry import build_model
from repro.network.fabric import get_fabric
from repro.profiler.layer_profiler import LayerProfiler

cache = ArtifactCache(sys.argv[1])
planner = BurstParallelPlanner(
    get_fabric("nvswitch"),
    LayerProfiler(persistent_cache=cache),
    cache=cache,
)
plan = planner.plan(build_model("vgg11"), 32, 4)
sys.stdout.write(plan.to_json())
"""


class TestCrossProcessDeterminism:
    def test_two_processes_sharing_a_cache_yield_identical_plans(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: byte-identical plans across interpreter processes."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        monkeypatch.setenv("PYTHONPATH", src_dir)
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", _CROSS_PROCESS_SCRIPT, str(tmp_path)],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert '"model_name": "vgg11"' in outputs[0]


_CRASH_DURING_PUT_SCRIPT = """
import json
import os
import signal
import sys

from repro.cache import ArtifactCache

cache = ArtifactCache(sys.argv[1])
mode = sys.argv[2]
key = sys.argv[3]
payload = {"rows": list(range(20000))}

if mode == "before-publish":
    # Crash between the temp-file write and the atomic rename.
    def kill(src, dst):
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = kill
elif mode == "mid-write":
    # Crash halfway through serializing the entry: fsync what is there so
    # the partial temp file genuinely hits the disk, then die.
    def partial_dump(obj, fh, **kwargs):
        text = json.dumps(obj, **kwargs)
        fh.write(text[: len(text) // 2])
        fh.flush()
        os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    json.dump = partial_dump

cache.put("chaos", key, payload)
raise SystemExit("unreachable: the put above must crash")
"""


class TestCrashDuringPut:
    """A writer killed mid-``put`` must never leave a servable corrupt entry.

    ``put`` publishes via write-temp-then-rename, so whichever instant the
    SIGKILL lands at — mid-serialization or just before the rename — readers
    see a clean miss, recompute, and the cache heals in place.
    """

    @pytest.mark.parametrize("mode", ["mid-write", "before-publish"])
    def test_killed_writer_leaves_a_clean_miss(self, tmp_path, monkeypatch, mode):
        import signal

        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        monkeypatch.setenv("PYTHONPATH", src_dir)
        key = fingerprint(f"chaos-{mode}")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _CRASH_DURING_PUT_SCRIPT,
                str(tmp_path),
                mode,
                key,
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stdout + proc.stderr

        cache = ArtifactCache(tmp_path)
        # The entry was never published: no file at the final path, and the
        # lookup is a miss — never a partial payload.
        assert not cache.entry_path("chaos", key).exists()
        assert cache.get("chaos", key) is None
        assert cache.stats.errors == 0
        # Recovery is plain recomputation; afterwards the entry serves.
        value = cache.get_or_compute("chaos", key, lambda: {"v": 42})
        assert value == {"v": 42}
        assert cache.get("chaos", key) == {"v": 42}
