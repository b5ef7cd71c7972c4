"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay_idle --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes one untraced and one traced pass of the measured phase
and reports the per-layer metrics (self time per layer, work counters from
``repro.obs.metrics``, the tracing overhead).  Every metric is printed on
its own line with its unit; the last line is one JSON object.  The exit
code is non-zero when a correctness check fails or the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from meter import reference_s, timed_scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The seed whose fingerprints are recorded in ``expected.json``.
DEFAULT_SEED = 1
#: A seed kept out of development, to confirm a claimed gain on.
HELD_OUT_SEED = 4099
#: Set up at least this often, and a cheap set-up until it has taken
#: ``SETUP_MIN_S`` in all (at most ``SETUP_MAX_REPEATS`` times).
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
MIN_ITERATIONS = 2

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def percentile_us(samples, q):
    """Percentile of durations in seconds, in microseconds (0 if none)."""
    from repro.sched.metrics import percentile

    return percentile(samples, q) * 1e6 if samples else 0.0


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_identity(workload, iteration, seed, expected) -> list:
    """Recorded fingerprints at the default seed (or every seed if seed-free)."""
    from workloads import SEED_FREE

    if seed != DEFAULT_SEED and workload.name not in SEED_FREE:
        return []
    recorded = expected.get(workload.name, {})
    return [
        (f"{key} fingerprint matches the recorded one", recorded.get(key) == value)
        for key, value in sorted(iteration.identity.items())
    ]


def timed_run(workload, seed, seconds, workdir):
    """Set up several times, then repeat the measured phase for ``seconds``.

    Times are medians over the run, scaled to the reference host (see
    ``meter.py``).  The medians as measured are returned in ``info``.
    """
    setups, raw_setups = [], []
    while len(setups) < SETUP_REPEATS or (
        sum(raw_setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        ctx = None
        gc.collect()
        raw, scaled, ctx = timed_scaled(lambda: workload.setup(seed, workdir))
        raw_setups.append(raw)
        setups.append(scaled)
    iterations = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        gc.collect()
        iterations.append(workload.measure(ctx, None))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "ops_per_s": statistics.median(it.rate for it in iterations),
        "peak_rss_mb": peak_rss_mb(),
    }
    # Latency percentiles per pass, median over passes, as measured; printed
    # but not bounded, as they spread too widely on a shared host.
    info = {
        "raw.setup_s": statistics.median(raw_setups),
        "raw.wall_s": statistics.median(it.raw_wall_s for it in iterations),
        "raw.ops_per_s": statistics.median(it.raw_rate for it in iterations),
        "reference_s": statistics.median(reference_s() for _ in range(9)),
        "passes": len(iterations),
        "op_samples_per_pass": statistics.median(len(it.latencies) for it in iterations),
        "op_p50_us": statistics.median(percentile_us(it.latencies, 50) for it in iterations),
        "op_p99_us": statistics.median(percentile_us(it.latencies, 99) for it in iterations),
    }
    for key in iterations[0].info:
        info[key] = statistics.median(it.info[key] for it in iterations)
    return metrics, info, iterations


def install_spans(recorder):
    """Wrap the public entry points of every layer in spans."""
    import repro.models.registry as registry
    import repro.sched.scheduler as scheduler_module
    import repro.serve.recovery as recovery
    from repro.core.planner.planner import BurstParallelPlanner
    from repro.sched import ClusterScheduler, SchedulerEngine
    from repro.serve import IntentJournal, SchedulerService
    from spans import Patches

    def step_kind(rec, event, own):
        rec.breakdown["engine.step." + event.kind.value.replace("-", "_")] += own

    def snapshot_size(rec, path, own):
        rec.breakdown["snapshot.bytes"] += path.stat().st_size

    patches = Patches(recorder)
    patches.wrap(SchedulerEngine, "step", "engine.step", after=step_kind)
    patches.wrap(SchedulerEngine, "add_job", "engine.add_job")
    patches.wrap(SchedulerEngine, "add_failures", "engine.add_failures")
    patches.wrap(SchedulerEngine, "result", "metrics.result")
    patches.wrap(ClusterScheduler, "prewarm_plans", "planner.prewarm")
    patches.wrap(BurstParallelPlanner, "plan", "planner.plan")
    patches.wrap(registry, "build_model", "models.build")
    patches.wrap(scheduler_module, "build_model", "models.build")
    patches.wrap(SchedulerService, "submit", "service.submit")
    patches.wrap(SchedulerService, "advance_to", "service.advance")
    patches.wrap(SchedulerService, "drain", "service.drain")
    patches.wrap(SchedulerService, "durable_state", "snapshot.capture")
    patches.wrap(SchedulerService, "restore_durable_state", "recovery.restore")
    patches.wrap(IntentJournal, "append", "journal.append")
    patches.wrap(recovery, "write_snapshot", "snapshot.write", after=snapshot_size)
    return patches


def _ratio(num, den):
    return num / den if den else 0.0


def traced_run(workload, seed, workdir):
    """One traced setup, one untraced pass, then one traced pass."""
    from repro.obs.metrics import global_registry
    from spans import SpanRecorder

    registry = global_registry()
    recorder = SpanRecorder()
    before_all = registry.snapshot()
    with install_spans(recorder):
        ctx = workload.setup(seed, workdir)
    setup = recorder.take()
    gc.collect()
    untraced = workload.measure(ctx, None)
    gc.collect()
    before = registry.snapshot()
    with install_spans(recorder):
        traced = workload.measure(ctx, recorder)
    moved = registry.delta_since(before)
    moved_all = registry.delta_since(before_all)
    m = traced.spans["measure"]
    wall = traced.raw_wall_s

    def count(key):
        return float(moved.get(key, 0))

    def count_all(key):
        return float(moved_all.get(key, 0))

    step = m.samples["engine.step"]
    journal = m.samples["journal.append"]
    recover = traced.spans.get("recover")
    plan_requests = count_all("planner.plan_requests")
    profile_hits = count_all("profiler.hits")
    profile_misses = count_all("profiler.misses")
    info = traced.info
    layers = {
        "traced.wall_s": (wall, "s"),
        "trace.overhead_ratio": (traced.wall_s / untraced.wall_s, "ratio"),
        "unattributed.self_s": (wall - m.attributed_s(), "s"),
        "engine.step.count": (float(m.count["engine.step"]), "count"),
        "engine.step.self_s": (m.self_s["engine.step"], "s"),
        "engine.step.p50_us": (percentile_us(step, 50), "us"),
        "engine.step.p99_us": (percentile_us(step, 99), "us"),
    }
    for kind in ("arrival", "finish", "node_failure", "node_recovery"):
        layers[f"engine.step.{kind}.self_s"] = (m.breakdown[f"engine.step.{kind}"], "s")
    layers.update(
        {
            "engine.stale_ratio": (
                _ratio(count("sched.events.stale"), count("sched.heap.pops")),
                "ratio",
            ),
            "engine.add_job.self_s": (m.self_s["engine.add_job"], "s"),
            "events.heap_pushes": (count("sched.heap.pushes"), "count"),
            "events.heap_pops": (count("sched.heap.pops"), "count"),
            "fleet.takes": (count("sched.gpu_pool.takes"), "count"),
            "fleet.releases": (count("sched.gpu_pool.releases"), "count"),
            "metrics.result_s": (m.self_s["metrics.result"], "s"),
            "planner.plan.count": (float(m.count["planner.plan"]), "count"),
            "planner.plan.self_s": (m.self_s["planner.plan"], "s"),
            "planner.prewarm_s": (sum(setup.samples["planner.prewarm"]), "s"),
            "planner.solve_calls": (count_all("planner.solve_calls"), "count"),
            "planner.relaxations": (count_all("planner.relaxations"), "count"),
            "planner.cache_hit_ratio": (
                _ratio(count_all("planner.plan_cache_hits"), plan_requests),
                "ratio",
            ),
            "profiler.misses": (profile_misses, "count"),
            "profiler.hit_ratio": (
                _ratio(profile_hits, profile_hits + profile_misses),
                "ratio",
            ),
            "models.build_s": (
                setup.self_s["models.build"] + m.self_s["models.build"],
                "s",
            ),
            "service.submit.self_s": (m.self_s["service.submit"], "s"),
            "service.advance.self_s": (m.self_s["service.advance"], "s"),
            "service.drain_s": (sum(m.samples["service.drain"]), "s"),
            "admission.accept_ratio": (info.get("admission.accept_ratio", 0.0), "ratio"),
            "admission.queued": (info.get("admission.queued", 0.0), "count"),
            "admission.rejected": (info.get("admission.rejected", 0.0), "count"),
            "journal.append.count": (float(m.count["journal.append"]), "count"),
            "journal.append.self_s": (m.self_s["journal.append"], "s"),
            "journal.append.p99_us": (percentile_us(journal, 99), "us"),
            "journal.bytes": (info.get("journal.bytes", 0.0), "bytes"),
            "snapshot.write.count": (float(m.count["snapshot.write"]), "count"),
            "snapshot.write.self_s": (m.self_s["snapshot.write"], "s"),
            "snapshot.capture.self_s": (m.self_s["snapshot.capture"], "s"),
            "snapshot.bytes": (m.breakdown["snapshot.bytes"], "bytes"),
            "recovery.restore.self_s": (
                recover.self_s["recovery.restore"] if recover else 0.0,
                "s",
            ),
            "recovery.replayed_records": (
                info.get("recovery.replayed_records", 0.0),
                "count",
            ),
        }
    )
    return layers, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        if args.trace:
            layers, iterations = traced_run(workload, args.seed, Path(scratch))
            metrics = {name: value for name, (value, _) in layers.items()}
            units = {name: unit for name, (_, unit) in layers.items()}
            info = {}
        else:
            metrics, info, iterations = timed_run(
                workload, args.seed, args.seconds, Path(scratch)
            )
            units = END_TO_END

    checks = list(iterations[0].checks)
    checks += check_identity(workload, iterations[0], args.seed, expected)
    checks.append(
        (
            "repeated passes agree",
            len({it.fingerprint for it in iterations}) == 1,
        )
    )
    for it in iterations[1:]:
        checks += [(name, ok) for name, ok in it.checks if not ok]
    failed = sum(1 for _, ok in checks if not ok)
    attempted = sum(it.ops for it in iterations)

    ident = machine()
    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"(default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})"
    )
    print(
        f"machine nproc={ident['nproc']} cpu={ident['cpu']!r} "
        f"python={ident['python']}"
    )
    aliases = {} if args.trace else workload.aliases
    for key, value in info.items():
        alias = f"  ({aliases[key]})" if key in aliases else ""
        print(f"info {key} = {value:.6g}{alias}")
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"metric {name} = {value:.6g} {units[name]}{alias}")
    print(f"metric error_rate = {failed / attempted:.6g} failed/op ({attempted} ops)")
    for key, value in sorted(iterations[0].identity.items()):
        print(f"fingerprint {key} {value}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
