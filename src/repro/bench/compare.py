"""The regression gate: diff two sets of benchmark artifacts.

``compare_artifacts`` matches a *current* artifact set against a *baseline*
(typically the committed ``benchmarks/baselines/`` directory) and flags:

* **determinism breaches** — op counts or metric fingerprints that differ
  from the baseline beyond ``ops_tolerance_pct`` (default 0: exact match);
* **wall-time regressions** — best-repeat wall time more than
  ``max_time_regress_pct`` slower than the baseline (default 10%).  Wall
  times are only comparable on the same machine; cross-machine gates (CI
  against a committed baseline) should pass ``ignore_time=True`` and rely on
  the deterministic op counts;
* **throughput regressions** — higher-is-better rates in ``info`` (see
  ``THROUGHPUT_INFO_KEYS``, e.g. the service bench's
  ``submissions_per_sec``) that dropped more than ``max_time_regress_pct``.
  Like wall time they are machine-dependent, so ``ignore_time=True`` skips
  them and they never join the metric fingerprint;
* **missing scenarios** — anything in the baseline absent from the current
  run fails; scenarios new in the current run are reported but pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .artifact import BenchArtifact

__all__ = [
    "ComparisonRow",
    "Comparison",
    "compare_artifacts",
    "format_report",
    "THROUGHPUT_INFO_KEYS",
]

#: Default allowed wall-time regression, in percent.
DEFAULT_MAX_TIME_REGRESS_PCT = 10.0

#: ``info`` entries that measure throughput (higher is better).  They stay
#: out of the metric fingerprint — wall-clock rates are machine-dependent —
#: but the gate treats them like wall time: a drop beyond
#: ``max_time_regress_pct`` fails, and ``ignore_time`` skips the check.
THROUGHPUT_INFO_KEYS = ("submissions_per_sec",)

#: Scenario parameters that describe the *execution environment* rather than
#: the workload: where the persistent cache lives, where an observability
#: trace is written, whether the service journals intents / writes durable
#: snapshots.  Results are proven
#: independent of them (the determinism regression tests), so a CI run
#: pointing at its own cache directory still gates cleanly against a
#: baseline recorded with none.
ENVIRONMENT_PARAMS = frozenset(
    {
        "cache_dir",
        "trace_out",
        "journal_dir",
        "snapshot_every",
    }
)


def _workload_params(params: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in params.items() if k not in ENVIRONMENT_PARAMS}


@dataclass(frozen=True)
class ComparisonRow:
    """Verdict for one scenario name."""

    name: str
    ok: bool
    reason: str
    ops_delta_pct: float = 0.0
    time_delta_pct: float = 0.0


@dataclass(frozen=True)
class Comparison:
    """Outcome of one baseline/current diff."""

    rows: Tuple[ComparisonRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def failures(self) -> List[ComparisonRow]:
        return [row for row in self.rows if not row.ok]


def _pct_delta(baseline: float, current: float) -> float:
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - baseline) / baseline * 100.0


def _changed_metrics(
    base: Dict[str, float], cur: Dict[str, float], tolerance_pct: float
) -> List[str]:
    """Metric keys missing from either side or drifting beyond the tolerance."""
    changed = []
    for key in set(base) | set(cur):
        if key not in base or key not in cur:
            changed.append(key)
        elif abs(_pct_delta(base[key], cur[key])) > tolerance_pct:
            changed.append(key)
    return sorted(changed)


def _throughput_regression(
    base: BenchArtifact, cur: BenchArtifact, max_regress_pct: float
) -> "str | None":
    """Failure message if a throughput ``info`` entry dropped too far.

    Checked only when both artifacts report the key (it lives in ``info``,
    so baselines recorded before a scenario grew the measurement are
    exempt), and only for numeric, positive baselines — a rate is
    higher-is-better, so the sign test is the mirror of wall time's.
    """
    for key in THROUGHPUT_INFO_KEYS:
        base_rate = base.info.get(key)
        cur_rate = cur.info.get(key)
        if not isinstance(base_rate, (int, float)) or not isinstance(
            cur_rate, (int, float)
        ):
            continue
        if base_rate <= 0:
            continue
        delta = _pct_delta(float(base_rate), float(cur_rate))
        if delta < -max_regress_pct:
            return (
                f"{key} regressed {delta:+.1f}% "
                f"({base_rate:,.0f}/s -> {cur_rate:,.0f}/s, "
                f"limit -{max_regress_pct:.1f}%)"
            )
    return None


def compare_artifacts(
    baseline: Dict[str, BenchArtifact],
    current: Dict[str, BenchArtifact],
    max_time_regress_pct: float = DEFAULT_MAX_TIME_REGRESS_PCT,
    ops_tolerance_pct: float = 0.0,
    ignore_time: bool = False,
    require_counters: bool = False,
) -> Comparison:
    """Diff ``current`` against ``baseline`` and return per-scenario verdicts.

    ``require_counters`` additionally fails any *current* artifact whose
    ``info`` block lacks a non-empty ``counters`` entry — CI's check that
    the observability registry stays wired through the harness.  Baselines
    are exempt (they may predate the registry).
    """
    if max_time_regress_pct < 0:
        raise ValueError("max_time_regress_pct must be non-negative")
    if ops_tolerance_pct < 0:
        raise ValueError("ops_tolerance_pct must be non-negative")

    rows: List[ComparisonRow] = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            assert cur is not None
            rows.append(ComparisonRow(name, True, "new scenario (no baseline)"))
            continue
        if cur is None:
            rows.append(ComparisonRow(name, False, "missing from current run"))
            continue
        if base.schema_version != cur.schema_version:
            rows.append(
                ComparisonRow(
                    name, False,
                    f"schema version mismatch ({base.schema_version} vs "
                    f"{cur.schema_version})",
                )
            )
            continue
        if _workload_params(base.params) != _workload_params(cur.params):
            rows.append(
                ComparisonRow(name, False, "scenario params differ; not comparable")
            )
            continue
        if require_counters and not cur.info.get("counters"):
            rows.append(
                ComparisonRow(
                    name, False,
                    "info block has no counters (observability registry "
                    "not threaded through this scenario)",
                )
            )
            continue

        ops_delta = _pct_delta(base.ops, cur.ops)
        time_delta = _pct_delta(base.wall_time_s, cur.wall_time_s)

        if abs(ops_delta) > ops_tolerance_pct:
            rows.append(
                ComparisonRow(
                    name, False,
                    f"op count changed: {base.ops} -> {cur.ops} "
                    f"({ops_delta:+.2f}%)",
                    ops_delta_pct=ops_delta,
                    time_delta_pct=time_delta,
                )
            )
            continue
        changed = _changed_metrics(base.metrics, cur.metrics, ops_tolerance_pct)
        if changed:
            rows.append(
                ComparisonRow(
                    name, False,
                    f"metric fingerprint changed: {', '.join(changed)}",
                    ops_delta_pct=ops_delta,
                    time_delta_pct=time_delta,
                )
            )
            continue
        if not ignore_time and time_delta > max_time_regress_pct:
            rows.append(
                ComparisonRow(
                    name, False,
                    f"wall time regressed {time_delta:+.1f}% "
                    f"({base.wall_time_s:.3f}s -> {cur.wall_time_s:.3f}s, "
                    f"limit +{max_time_regress_pct:.1f}%)",
                    ops_delta_pct=ops_delta,
                    time_delta_pct=time_delta,
                )
            )
            continue
        throughput_fail = _throughput_regression(
            base, cur, max_time_regress_pct
        ) if not ignore_time else None
        if throughput_fail is not None:
            rows.append(
                ComparisonRow(
                    name, False, throughput_fail,
                    ops_delta_pct=ops_delta,
                    time_delta_pct=time_delta,
                )
            )
            continue
        rows.append(
            ComparisonRow(
                name, True,
                "ok" if ignore_time else f"ok ({time_delta:+.1f}% wall time)",
                ops_delta_pct=ops_delta,
                time_delta_pct=time_delta,
            )
        )
    return Comparison(rows=tuple(rows))


def format_report(comparison: Comparison) -> str:
    """Human-readable verdict table for the CLI and CI logs."""
    lines = [f"{'scenario':<28} {'status':<6} detail"]
    lines.append("-" * 72)
    for row in comparison.rows:
        status = "PASS" if row.ok else "FAIL"
        lines.append(f"{row.name:<28} {status:<6} {row.reason}")
    verdict = "PASS" if comparison.ok else "FAIL"
    lines.append("-" * 72)
    lines.append(
        f"overall: {verdict} "
        f"({len(comparison.rows) - len(comparison.failures)}/{len(comparison.rows)} "
        "scenarios ok)"
    )
    return "\n".join(lines)
