"""Command-line entry point: ``python -m repro.serve``.

``smoke`` runs the replay-to-live parity check CI gates on: the same trace
is simulated twice — offline through ``ClusterScheduler.run`` and live
through a bridged :class:`~repro.serve.service.SchedulerService` — and the
two :func:`~repro.serve.replay.result_fingerprint` digests must match byte
for byte.  The service side records its full obs event stream (engine
events *and* service submit markers) and writes it as a Chrome trace next
to a JSON summary, which CI uploads as a workflow artifact.

``smoke --crash N`` additionally runs the crash-fault harness
(:mod:`repro.serve.chaos`) first: the same workload parameters drive a
durable service through N seeded SIGKILL/recover cycles in subprocesses,
and the recovered end state must match the uninterrupted one byte for
byte.  ``chaos-worker`` is the internal subcommand those subprocesses run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from ..obs.trace import TraceRecorder
from ..sched import ClusterScheduler, alibaba_trace, mixed_trace, synthetic_trace
from .chaos import CrashPlan, CrashPoint, default_spec, run_chaos_worker, run_crash_plan
from .replay import replay_trace_sync, result_fingerprint
from .service import SchedulerService

_GENERATORS = {
    "synthetic": synthetic_trace,
    "alibaba": alibaba_trace,
    "mixed": mixed_trace,
}


def _cmd_smoke(args: argparse.Namespace) -> int:
    trace = _GENERATORS[args.trace](args.num_jobs, seed=args.seed)
    print(
        f"smoke: trace={args.trace} jobs={len(trace)} gpus={args.num_gpus} "
        f"policy={args.policy} seed={args.seed}"
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.crash:
        code = _run_crash_smoke(args, out)
        if code != 0:
            return code

    offline = ClusterScheduler(args.num_gpus, fabric=args.fabric).run(
        trace, args.policy
    )
    offline_fp = result_fingerprint(offline)
    print(f"offline : events={offline.events_processed} fp={offline_fp}")

    recorder = TraceRecorder()
    service = SchedulerService(
        ClusterScheduler(args.num_gpus, fabric=args.fabric),
        policy=args.policy,
        recorder=recorder,
    )
    report = replay_trace_sync(service, trace)
    service_fp = report.fingerprint()
    print(
        f"service : events={report.result.events_processed} fp={service_fp} "
        f"(submit path: {report.jobs} jobs in {report.submit_seconds:.4f}s, "
        f"{report.submissions_per_sec:,.0f}/s)"
    )

    trace_path = recorder.write_chrome_trace(out / "serve_trace.json")
    summary = {
        "trace": args.trace,
        "num_jobs": args.num_jobs,
        "num_gpus": args.num_gpus,
        "policy": args.policy,
        "seed": args.seed,
        "trace_fingerprint": report.trace_fingerprint,
        "offline_fingerprint": offline_fp,
        "service_fingerprint": service_fp,
        "match": offline_fp == service_fp,
        "completed": report.completed,
        "submissions_per_sec": report.submissions_per_sec,
        "recorded_events": len(recorder),
    }
    summary_path = out / "serve_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"artifacts: {trace_path}, {summary_path}")

    if offline_fp != service_fp:
        print("FAIL: bridged replay diverged from the offline run")
        return 1
    print("OK: bridged replay matches the offline run byte for byte")
    return 0


def _run_crash_smoke(args: argparse.Namespace, out: Path) -> int:
    """Kill-loop smoke: N seeded crash/recover cycles must end byte-identical."""
    spec = default_spec(
        num_jobs=min(args.num_jobs, 150),
        num_gpus=args.num_gpus,
        seed=args.seed,
        policy=args.policy,
        generator=args.trace,
        fabric=args.fabric,
    )
    plan = CrashPlan.seeded(args.crash_seed, args.crash)
    print(
        f"chaos   : {len(plan.points)} seeded crash points "
        f"(seed={args.crash_seed}): "
        + ", ".join(
            f"{p.kind}@{p.at}" + (f"+{p.torn_bytes}b" if p.kind == "append" else "")
            for p in plan.points
        )
    )
    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as workdir:
        report = run_crash_plan(
            plan, spec, workdir, trace_out=out / "chaos_recovery_trace.json"
        )
    summary = {
        "crash_points": [
            {"kind": p.kind, "at": p.at, "torn_bytes": p.torn_bytes}
            for p in plan.points
        ],
        "crashes": report.crashes,
        "unreached": report.unreached,
        "baseline_fingerprint": report.baseline_fingerprint,
        "final_fingerprint": report.final_fingerprint,
        "tenants_match": report.tenants_match,
        "recoveries": report.recoveries,
        "ok": report.ok,
    }
    (out / "chaos_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"chaos   : crashes={report.crashes} unreached={report.unreached} "
        f"baseline={report.baseline_fingerprint} final={report.final_fingerprint} "
        f"tenants_match={report.tenants_match}"
    )
    if not report.ok:
        print("FAIL: recovered run diverged from the uninterrupted run")
        return 1
    print("OK: every crash/recover cycle converged to the uninterrupted state")
    return 0


def _cmd_chaos_worker(args: argparse.Namespace) -> int:
    """Internal: one crash-harness worker run (may SIGKILL itself)."""
    spec = json.loads(args.spec)
    crash = None
    if args.crash_kind:
        crash = CrashPoint(args.crash_kind, args.crash_at, args.torn_bytes)
    state = run_chaos_worker(
        spec,
        args.dir if args.dir != "-" else None,
        crash=crash,
        trace_out=args.trace_out,
    )
    print(json.dumps(state, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Online scheduler service utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    smoke = sub.add_parser(
        "smoke",
        help="bridge a trace through the service and assert offline parity",
    )
    smoke.add_argument(
        "--trace", choices=sorted(_GENERATORS), default="synthetic"
    )
    smoke.add_argument("--num-jobs", type=int, default=500)
    smoke.add_argument("--num-gpus", type=int, default=256)
    smoke.add_argument("--seed", type=int, default=11)
    smoke.add_argument("--policy", default="collocation")
    smoke.add_argument("--fabric", default="nvswitch")
    smoke.add_argument(
        "--out", default="serve-artifacts", help="artifact output directory"
    )
    smoke.add_argument(
        "--crash",
        type=int,
        default=0,
        metavar="N",
        help="run the crash-fault harness first: N seeded SIGKILL/recover "
        "cycles that must end byte-identical to the uninterrupted run",
    )
    smoke.add_argument("--crash-seed", type=int, default=1337)
    smoke.set_defaults(fn=_cmd_smoke)

    worker = sub.add_parser(
        "chaos-worker",
        help="internal: one crash-harness worker run (may SIGKILL itself)",
    )
    worker.add_argument(
        "--dir",
        required=True,
        help="durable state directory ('-' = baseline, no journal)",
    )
    worker.add_argument("--spec", required=True, help="workload spec as JSON")
    worker.add_argument("--crash-kind", choices=["step", "append"], default="")
    worker.add_argument("--crash-at", type=int, default=0)
    worker.add_argument("--torn-bytes", type=int, default=0)
    worker.add_argument("--trace-out", default=None)
    worker.set_defaults(fn=_cmd_chaos_worker)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
