"""Tests for the repro.bench performance harness."""

import json
import statistics
import time

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchArtifact,
    artifact_filename,
    compare_artifacts,
    grid_jobs,
    load_artifacts,
    run_jobs,
    run_scenario,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import available_scenarios, get_scenario
from repro.bench.sweep import SweepJob
from repro.models import vgg16
from repro.profiler import LayerProfiler

#: Small parameterizations so the suite stays fast.
SMALL_GRID = {"models": ["vgg11"], "gpu_counts": [1, 2, 4]}
SMALL_SCHED = {"num_gpus": 8, "num_jobs": 12, "seed": 3}
SMALL_MATRIX = {"sim_time": 0.01}
SMALL_SERVE = {
    "num_gpus": 16,
    "num_jobs": 40,
    "seed": 3,
    "quota_gpu_seconds": 2000.0,
    "max_pending": 4,
}
SMALL_PARAMS = {
    "planner_grid": SMALL_GRID,
    "sched_sim": SMALL_SCHED,
    "collocation_matrix": SMALL_MATRIX,
    "sched_service": SMALL_SERVE,
}


def _artifact(name, **kwargs):
    defaults = dict(
        name=name,
        params={"x": 1},
        ops=100,
        wall_time_s=1.0,
        wall_times_s=(1.0,),
        metrics={"m": 2.0},
        git_sha="abc",
    )
    defaults.update(kwargs)
    return BenchArtifact(**defaults)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = available_scenarios()
        assert {"planner_grid", "sched_sim", "collocation_matrix"} <= set(names)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            get_scenario("not_a_scenario")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            run_scenario("sched_sim", overrides={"bogus_param": 1})

    def test_scalar_override_of_sequence_param_is_wrapped(self):
        """`--param models=vgg11` must mean [\"vgg11\"], not iterate chars."""
        artifact = run_scenario(
            "planner_grid", overrides={"models": "vgg11", "gpu_counts": 2}
        )
        assert artifact.params["models"] == ["vgg11"]
        assert artifact.params["gpu_counts"] == [2]
        assert artifact.ops > 0


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
    def test_same_params_same_ops_and_metrics(self, name):
        first = run_scenario(name, overrides=SMALL_PARAMS[name])
        second = run_scenario(name, overrides=SMALL_PARAMS[name])
        assert first.ops == second.ops
        assert first.ops > 0
        assert first.metrics == second.metrics

    def test_repeats_share_one_ops_count(self):
        artifact = run_scenario("sched_sim", overrides=SMALL_SCHED, repeats=2)
        assert len(artifact.wall_times_s) == 2
        assert artifact.wall_time_s == min(artifact.wall_times_s)


class TestArtifactIO:
    def test_round_trip(self, tmp_path):
        artifact = run_scenario("planner_grid", overrides=SMALL_GRID)
        path = artifact.write(tmp_path)
        assert path.name == artifact_filename("planner_grid")
        loaded = BenchArtifact.read(path)
        assert loaded == artifact

    def test_json_is_sorted_and_versioned(self, tmp_path):
        path = _artifact("x").write(tmp_path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert list(data) == sorted(data)

    def test_load_artifacts_from_directory(self, tmp_path):
        _artifact("a").write(tmp_path)
        _artifact("b").write(tmp_path)
        loaded = load_artifacts(tmp_path)
        assert sorted(loaded) == ["a", "b"]

    def test_load_artifacts_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifacts(tmp_path / "nope")


class TestCompare:
    def test_identical_sets_pass(self):
        base = {"s": _artifact("s")}
        assert compare_artifacts(base, {"s": _artifact("s")}).ok

    def test_time_regression_beyond_threshold_fails(self):
        base = {"s": _artifact("s")}
        slow = {"s": _artifact("s", wall_time_s=1.11, wall_times_s=(1.11,))}
        comparison = compare_artifacts(base, slow, max_time_regress_pct=10.0)
        assert not comparison.ok
        assert "wall time regressed" in comparison.failures[0].reason

    def test_time_regression_within_threshold_passes(self):
        base = {"s": _artifact("s")}
        ok = {"s": _artifact("s", wall_time_s=1.05, wall_times_s=(1.05,))}
        assert compare_artifacts(base, ok, max_time_regress_pct=10.0).ok

    def test_ignore_time_skips_wall_clock(self):
        base = {"s": _artifact("s")}
        slow = {"s": _artifact("s", wall_time_s=9.9, wall_times_s=(9.9,))}
        assert compare_artifacts(base, slow, ignore_time=True).ok

    def test_ops_change_fails_even_when_faster(self):
        base = {"s": _artifact("s")}
        drift = {"s": _artifact("s", ops=99, wall_time_s=0.5, wall_times_s=(0.5,))}
        comparison = compare_artifacts(base, drift, ignore_time=True)
        assert not comparison.ok
        assert "op count changed" in comparison.failures[0].reason

    def test_metric_fingerprint_change_fails(self):
        base = {"s": _artifact("s")}
        drift = {"s": _artifact("s", metrics={"m": 2.5})}
        comparison = compare_artifacts(base, drift, ignore_time=True)
        assert not comparison.ok
        assert "fingerprint" in comparison.failures[0].reason

    def test_metric_check_survives_nonzero_ops_tolerance(self):
        """Relaxing op tolerance must not disable the fingerprint gate."""
        base = {"s": _artifact("s")}
        drift = {"s": _artifact("s", metrics={"m": 20.0})}  # 10x drift
        comparison = compare_artifacts(
            base, drift, ops_tolerance_pct=1.0, ignore_time=True
        )
        assert not comparison.ok
        assert "fingerprint" in comparison.failures[0].reason
        # Drift within the tolerance still passes.
        small = {"s": _artifact("s", metrics={"m": 2.0 * 1.005})}
        assert compare_artifacts(
            base, small, ops_tolerance_pct=1.0, ignore_time=True
        ).ok

    def test_missing_scenario_fails_new_scenario_passes(self):
        base = {"s": _artifact("s")}
        current = {"t": _artifact("t")}
        comparison = compare_artifacts(base, current, ignore_time=True)
        assert not comparison.ok
        reasons = {row.name: row for row in comparison.rows}
        assert not reasons["s"].ok
        assert reasons["t"].ok

    def test_param_mismatch_fails(self):
        base = {"s": _artifact("s")}
        other = {"s": _artifact("s", params={"x": 2})}
        assert not compare_artifacts(base, other, ignore_time=True).ok

    def test_require_counters_gates_counterless_artifacts(self):
        base = {"s": _artifact("s")}
        bare = {"s": _artifact("s")}  # info block has no counters
        # Off by default: a counterless artifact still passes.
        assert compare_artifacts(base, bare, ignore_time=True).ok
        comparison = compare_artifacts(
            base, bare, ignore_time=True, require_counters=True
        )
        assert not comparison.ok
        assert "no counters" in comparison.failures[0].reason
        wired = {
            "s": _artifact("s", info={"counters": {"sched.events.arrival": 3}})
        }
        assert compare_artifacts(
            base, wired, ignore_time=True, require_counters=True
        ).ok
        # Only the *current* side is checked; counterless baselines are fine.
        assert compare_artifacts(
            bare, wired, ignore_time=True, require_counters=True
        ).ok

    def test_throughput_drop_beyond_threshold_fails(self):
        """submissions_per_sec is gated like wall time: a >10% drop fails."""
        base = {"s": _artifact("s", info={"submissions_per_sec": 20_000.0})}
        slow = {"s": _artifact("s", info={"submissions_per_sec": 15_000.0})}
        comparison = compare_artifacts(base, slow, max_time_regress_pct=10.0)
        assert not comparison.ok
        assert "submissions_per_sec regressed" in comparison.failures[0].reason

    def test_throughput_drop_within_threshold_passes(self):
        base = {"s": _artifact("s", info={"submissions_per_sec": 20_000.0})}
        ok = {"s": _artifact("s", info={"submissions_per_sec": 19_000.0})}
        assert compare_artifacts(base, ok, max_time_regress_pct=10.0).ok
        # Gains never fail, however large.
        fast = {"s": _artifact("s", info={"submissions_per_sec": 90_000.0})}
        assert compare_artifacts(base, fast, max_time_regress_pct=10.0).ok

    def test_ignore_time_skips_throughput(self):
        """Rates are wall-clock figures: cross-machine gates must skip them."""
        base = {"s": _artifact("s", info={"submissions_per_sec": 20_000.0})}
        slow = {"s": _artifact("s", info={"submissions_per_sec": 1_000.0})}
        assert compare_artifacts(base, slow, ignore_time=True).ok

    def test_throughput_missing_on_either_side_passes(self):
        """Baselines recorded before a scenario grew the rate are exempt."""
        with_rate = {"s": _artifact("s", info={"submissions_per_sec": 9_000.0})}
        without = {"s": _artifact("s")}
        assert compare_artifacts(without, with_rate).ok
        assert compare_artifacts(with_rate, without).ok


class TestSweep:
    def test_grid_jobs_unique_names(self):
        jobs = grid_jobs("sched_sim", {"num_gpus": [8, 16], "seed": [1, 2]})
        names = [j.artifact_name for j in jobs]
        assert len(jobs) == 4
        assert len(set(names)) == 4
        assert all(n.startswith("sched_sim--") for n in names)

    def test_grid_jobs_rejects_key_both_swept_and_fixed(self):
        with pytest.raises(ValueError):
            grid_jobs(
                "planner_grid",
                {"cache_dir": ["a", "b"]},
                fixed={"cache_dir": "c"},
            )

    def test_grid_jobs_fixed_overrides_stay_out_of_names(self):
        jobs = grid_jobs(
            "planner_grid",
            {"gpu_counts": [[1], [1, 2]]},
            fixed={"cache_dir": "/tmp/shared"},
        )
        assert len(jobs) == 2
        assert all(j.overrides["cache_dir"] == "/tmp/shared" for j in jobs)
        assert all("cache_dir" not in (j.artifact_name or "") for j in jobs)
        assert all("tmp" not in (j.artifact_name or "") for j in jobs)

    def test_sweep_cli_cache_dir_shared_across_workers(self, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", "planner_grid",
            "--grid", "gpu_counts=1,2",
            "--grid", "models=vgg11",
            "--out", str(tmp_path / "out"),
            "--processes", "2",
            "--cache-dir", str(cache_dir),
        ]
        assert bench_main(argv) == 0
        assert cache_dir.is_dir()
        artifacts = load_artifacts(tmp_path / "out")
        assert len(artifacts) >= 1
        for artifact in artifacts.values():
            assert artifact.params["cache_dir"] == str(cache_dir)
            assert "cache" not in artifact.name

    def test_run_jobs_serial_matches_multiprocess(self):
        jobs = [
            SweepJob("sched_sim", overrides=dict(SMALL_SCHED, seed=s),
                     artifact_name=f"sched_sim--seed-{s}")
            for s in (1, 2)
        ]
        serial = run_jobs(jobs, processes=1)
        parallel = run_jobs(jobs, processes=2)
        assert [a.ops for a in serial] == [a.ops for a in parallel]
        assert [a.metrics for a in serial] == [a.metrics for a in parallel]


class TestCLI:
    def test_run_and_compare_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run1"
        argv = ["run", "sched_sim", "--out", str(out)]
        for key, value in SMALL_SCHED.items():
            argv += ["--param", f"{key}={value}"]
        assert bench_main(argv) == 0
        assert (out / artifact_filename("sched_sim")).exists()
        assert bench_main(
            ["compare", str(out), str(out), "--ignore-time"]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_records_counters_in_info(self, tmp_path):
        """Every artifact carries the run's registry delta in the info block."""
        out = tmp_path / "run"
        argv = ["run", "sched_sim", "--out", str(out)]
        for key, value in SMALL_SCHED.items():
            argv += ["--param", f"{key}={value}"]
        assert bench_main(argv) == 0
        with open(out / artifact_filename("sched_sim")) as fh:
            artifact = json.load(fh)
        counters = artifact["info"]["counters"]
        assert counters
        # The delta is scoped to this run: one arrival per trace job.
        assert counters["sched.events.arrival"] == SMALL_SCHED["num_jobs"]
        assert counters["planner.plan_requests"] > 0

    def test_run_verbose_prints_progress_lines(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "sched_sim", "--out", str(out), "--verbose"]
        for key, value in SMALL_SCHED.items():
            argv += ["--param", f"{key}={value}"]
        assert bench_main(argv) == 0
        stdout = capsys.readouterr().out
        assert "[done] sched_sim: wall=" in stdout
        assert "ops=" in stdout

    def test_hetero_trace_out_writes_loadable_trace(self, tmp_path):
        from repro.obs.report import report

        out = tmp_path / "run"
        trace = tmp_path / "trace.json"
        argv = [
            "run", "sched_sim_hetero", "--out", str(out),
            "--param", "num_jobs=30", "--param", f"trace_out={trace}",
        ]
        assert bench_main(argv) == 0
        with open(trace) as fh:
            data = json.load(fh)
        assert data["traceEvents"]
        with open(out / artifact_filename("sched_sim_hetero")) as fh:
            artifact = json.load(fh)
        assert artifact["info"]["trace_events"] == data["otherData"]["recorded_events"]
        assert report(str(trace)) == 0

    def test_compare_exits_nonzero_on_injected_regression(self, tmp_path, capsys):
        """Acceptance: an injected >10% wall-time regression gates the PR."""
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        _artifact("s").write(base)
        _artifact(
            "s", wall_time_s=1.2, wall_times_s=(1.2,)
        ).write(cur)  # +20% > the 10% default threshold
        assert bench_main(["compare", str(base), str(cur)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_requires_scenario_or_all(self):
        with pytest.raises(SystemExit):
            bench_main(["run"])

    def test_multi_scenario_run_applies_params_where_they_fit(self, tmp_path):
        """A --param only some scenarios take must not abort the run."""
        argv = [
            "run", "planner_grid", "sched_sim", "--out", str(tmp_path),
            "--param", "models=vgg11", "--param", "gpu_counts=1,2",
            "--param", "num_gpus=8", "--param", "num_jobs=10",
            "--param", "seed=3",
        ]
        assert bench_main(argv) == 0
        assert (tmp_path / artifact_filename("planner_grid")).exists()
        assert (tmp_path / artifact_filename("sched_sim")).exists()

    def test_param_unknown_to_every_scenario_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(
                ["run", "planner_grid", "sched_sim", "--out", str(tmp_path),
                 "--param", "definitely_bogus=1"]
            )

    def test_list_prints_scenarios(self, capsys):
        assert bench_main(["list"]) == 0
        assert "planner_grid" in capsys.readouterr().out

    def test_run_filter_selects_subset(self, tmp_path):
        argv = [
            "run", "--all", "--filter", "sched_sim", "--out", str(tmp_path),
        ]
        for key, value in SMALL_SCHED.items():
            argv += ["--param", f"{key}={value}"]
        assert bench_main(argv) == 0
        assert (tmp_path / artifact_filename("sched_sim")).exists()
        # The glob matched exactly one scenario; nothing else ran.
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 1

    def test_run_filter_without_match_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(
                ["run", "--all", "--filter", "no_such_*", "--out", str(tmp_path)]
            )

    def test_run_cache_dir_applies_to_cache_aware_scenarios(self, tmp_path, capsys):
        out = tmp_path / "out"
        cache_dir = tmp_path / "cache"
        argv = [
            "run", "planner_grid", "--out", str(out),
            "--cache-dir", str(cache_dir),
            "--param", "models=vgg11", "--param", "gpu_counts=1,2",
        ]
        assert bench_main(argv) == 0
        assert cache_dir.is_dir()
        assert "cache[" in capsys.readouterr().out
        artifact = load_artifacts(out)["planner_grid"]
        assert artifact.params["cache_dir"] == str(cache_dir)
        assert artifact.info["cache_writes"] > 0

    def test_run_rejects_conflicting_cache_dir_sources(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(
                ["run", "planner_grid", "--out", str(tmp_path),
                 "--param", "cache_dir=/a", "--cache-dir", "/b"]
            )

    def test_compare_write_baselines_copies_current(self, tmp_path, capsys):
        base = tmp_path / "base"
        cur = tmp_path / "cur"
        new_baselines = tmp_path / "fresh-baselines"
        _artifact("s").write(base)
        # Current run regressed ops (would normally fail the gate)...
        _artifact("s", ops=120).write(cur)
        # ...but --write-baselines declares it the new baseline and exits 0.
        assert bench_main(
            ["compare", str(base), str(cur), "--ignore-time",
             "--write-baselines", str(new_baselines)]
        ) == 0
        refreshed = load_artifacts(new_baselines)
        assert refreshed["s"].ops == 120
        assert "baseline <- s" in capsys.readouterr().out

    def test_compare_ignores_environment_params(self, tmp_path):
        """A CI run with its own cache dir gates against a cache-less baseline."""
        base = {"s": _artifact("s", params={"x": 1, "cache_dir": None})}
        cur = {"s": _artifact("s", params={"x": 1, "cache_dir": "/tmp/ci"})}
        assert compare_artifacts(base, cur, ignore_time=True).ok
        drift = {"s": _artifact("s", params={"x": 2, "cache_dir": None})}
        assert not compare_artifacts(base, drift, ignore_time=True).ok


class TestCachedProfileSpeedup:
    """The planner-grid speedup the harness was built to prove."""

    def test_uncached_mode_bypasses_persistent_cache(self, tmp_path):
        """cached=False measures the cold path; a warm disk cache must not
        short-circuit it (and it must not populate the cache either)."""
        cache_dir = str(tmp_path)
        warm_setup = run_scenario(
            "planner_grid", overrides=dict(SMALL_GRID, cache_dir=cache_dir)
        )
        assert warm_setup.info["cache_writes"] > 0
        uncached = run_scenario(
            "planner_grid",
            overrides=dict(SMALL_GRID, cached=False, cache_dir=cache_dir),
        )
        assert uncached.info["persistent_cache"] is False
        assert "cache_hits" not in uncached.info
        # Same deterministic results either way.
        assert uncached.ops == warm_setup.ops
        assert uncached.metrics == warm_setup.metrics

    def test_caching_reduces_profile_computations(self):
        """Deterministic core of the speedup: fewer timings are computed."""
        cached = run_scenario(
            "planner_grid", overrides=dict(SMALL_GRID, cached=True)
        )
        uncached = run_scenario(
            "planner_grid", overrides=dict(SMALL_GRID, cached=False)
        )
        # Identical results and op counts, strictly less recomputation.
        assert cached.metrics["plans"] == uncached.metrics["plans"]
        assert cached.ops == uncached.ops
        assert (
            cached.info["profile_computations"]
            < uncached.info["profile_computations"]
        )

    def test_warm_profile_lookups_beat_cold_computation(self):
        """Wall-clock: repeated layer-timing queries hit the memo table."""
        profiler = LayerProfiler()
        graph = vgg16()
        queries = [
            (spec, batch) for spec in graph.specs() for batch in (1, 2, 4, 8, 16, 32)
        ]
        start = time.perf_counter()
        for spec, batch in queries:
            profiler.layer_timing(spec, batch)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        for spec, batch in queries:
            profiler.layer_timing(spec, batch)
        warm = time.perf_counter() - start
        assert profiler.cache_stats.hits >= len(queries)
        # Lookups are ~10x cheaper than kernel-model math; 0.8 margins the
        # assertion against scheduler noise on busy CI runners.
        assert warm < cold * 0.8

    def test_grid_scenario_not_slower_with_caches(self):
        """End-to-end guard: the cached grid never loses to the cold path.

        One run takes a few tens of milliseconds, so a single slow run says
        more about the host than about the caches: the guard compares the
        medians of alternated cached and uncached runs.
        """
        overrides = {"models": ["resnet50"], "gpu_counts": [1, 2, 4, 8]}
        cached, uncached = [], []
        for _ in range(9):
            for enabled, times in ((True, cached), (False, uncached)):
                artifact = run_scenario(
                    "planner_grid", overrides=dict(overrides, cached=enabled)
                )
                times.append(artifact.wall_time_s)
        # Generous margin: the win is ~10% locally, but CI machines are noisy.
        assert statistics.median(cached) <= statistics.median(uncached) * 1.2


#: Scaled-down sched_sim_xxl parameters (the defaults simulate 16k GPUs).
XXL_SMALL = {
    "pools": ["a100:16", "v100:16"],
    "gpus_per_host": 4,
    "num_jobs": 30,
    "seed": 5,
    "failures": 2,
    "failure_seed": 3,
    "failure_window": [30.0, 240.0],
    "mean_downtime": 30.0,
}


class TestXXLScenario:
    """The sched_sim_xxl scenario, scaled down to suite speed."""

    def test_matches_direct_run(self):
        """The scenario reports exactly what a direct ``run`` produces."""
        from repro.profiler.gpu_spec import get_gpu_spec
        from repro.sched import (
            CheckpointModel,
            ClusterFleet,
            ClusterScheduler,
            GpuPoolSpec,
            inject_failures,
            mixed_trace,
        )
        from repro.serve.replay import result_fingerprint

        artifact = run_scenario("sched_sim_xxl", overrides=XXL_SMALL)
        fleet = ClusterFleet(
            (
                GpuPoolSpec("a100", get_gpu_spec("a100"), 16, 4),
                GpuPoolSpec("v100", get_gpu_spec("v100"), 16, 4),
            )
        )
        sched = ClusterScheduler(
            fleet, fabric="nvswitch", checkpoint=CheckpointModel(120.0, 15.0)
        )
        jobs = mixed_trace(30, seed=5)
        schedule = inject_failures(
            fleet, 2, seed=3, window=(30.0, 240.0), mean_downtime=30.0
        )
        serial = sched.run(jobs, "collocation", failures=schedule)
        assert artifact.info["result_fingerprint"] == result_fingerprint(serial)
        assert artifact.ops == serial.events_processed
        assert artifact.metrics["failures"] == float(serial.failures_injected)

    def test_cache_dir_does_not_move_the_fingerprint(self, tmp_path):
        """cache_dir is an environment param: cold and warm persistent
        caches produce the gated results of a run without one, and the
        compare gate treats the artifacts as the same workload."""
        overrides = dict(XXL_SMALL, cache_dir=str(tmp_path / "cache"))
        base = run_scenario("sched_sim_xxl", overrides=XXL_SMALL)
        cold = run_scenario("sched_sim_xxl", overrides=overrides)
        warm = run_scenario("sched_sim_xxl", overrides=overrides)
        assert base.metrics == cold.metrics == warm.metrics
        assert base.ops == cold.ops == warm.ops
        assert base.info["result_fingerprint"] == warm.info["result_fingerprint"]
        assert cold.info["cache_writes"] > 0
        assert warm.info["cache_hits"] > 0
        assert warm.info["cache_misses"] == 0
        comparison = compare_artifacts(
            {"sched_sim_xxl": base}, {"sched_sim_xxl": warm}, ignore_time=True
        )
        assert comparison.ok

    def test_failure_window_must_be_a_pair(self):
        with pytest.raises(ValueError, match="failure_window"):
            run_scenario(
                "sched_sim_xxl",
                overrides=dict(XXL_SMALL, failure_window=[1.0]),
            )
