"""Bench-history trends: ``python -m repro.obs trend``.

``scripts/bench_engine.py --append-history`` has been appending one
compact JSON line per measurement to ``BENCH_history.jsonl`` since
PR 5 -- write-only until now.  This module is its consumer: it turns
the history into per-metric trend reports and a CI gate, so a perf
regression fails the build instead of waiting for someone to eyeball
the file.

**Grouping.**  Rows are comparable only within the same workload, so
they are grouped by ``(preset, days, seed)`` -- a quick-preset CI row
never gets judged against a default-preset workstation row.

**Baseline rule.**  Within a group, the newest row is the candidate
and its baseline is the **median of the last K prior rows**
(:data:`DEFAULT_BASELINE_K`, per metric, not per row -- medians of
each metric independently).  Median-of-K absorbs one-off machine
hiccups that a single-predecessor comparison would inherit; a group
with no prior rows has no baseline and is reported (and gated) as
``n/a`` rather than failing retroactively.

**Metrics.**  Phase wall-clock seconds (``population_s``,
``market_build_s``, ``auctions_s``) and ``total_s``, where *larger is
worse*; and throughput (``rows_per_sec``,
``columnar_write_rows_per_sec``), where *smaller is worse* -- both
kinds normalize to a "regression fraction" that is positive when the
candidate is worse, so one threshold convention covers everything.

``--fail-on`` rules (repeatable / comma-separable):

``phase=FRAC``
    Fail if any individual phase regressed by more than ``FRAC``
    relative to its baseline median.
``total=FRAC``
    Fail if ``total_s`` regressed by more than ``FRAC``.
``throughput=FRAC``
    Fail if any throughput metric dropped by more than ``FRAC``.

Exit codes mirror ``repro.obs diff``: 0 -- reported (and every rule
held), 1 -- a rule violated, 2 -- unreadable history or malformed
rule.  The history file is append-only (plain ``open("a")``, not the
atomic rewrite protocol), so a torn final line is possible after a
crash; like the ledger reader, trailing garbage is skipped with one
notice instead of failing the gate.
"""

from __future__ import annotations

import json
from pathlib import Path

from .logsetup import get_logger

__all__ = [
    "DEFAULT_HISTORY_NAME",
    "DEFAULT_BASELINE_K",
    "load_history",
    "trend_report",
    "TREND_RULES",
    "evaluate_trend_fail_on",
    "render_trend",
]

log = get_logger("obs.history")

#: Default history file name (resolved against the current directory,
#: which for CI and the bench script is the repository root).
DEFAULT_HISTORY_NAME = "BENCH_history.jsonl"

#: Rows (per group) the rolling baseline median is computed over.
DEFAULT_BASELINE_K = 5

#: Rule names ``trend --fail-on`` accepts.
TREND_RULES = ("phase", "total", "throughput")

#: Time metrics (seconds; larger is a regression).  ``total_s`` is
#: carried separately because the gate thresholds it independently.
_PHASE_METRICS = ("population_s", "market_build_s", "auctions_s")

#: Throughput metrics (rows/s; smaller is a regression).
_THROUGHPUT_METRICS = ("rows_per_sec", "columnar_write_rows_per_sec")


def load_history(path: str | Path) -> list[dict]:
    """Parse a benchmark history JSONL file into row dicts.

    Raises ``FileNotFoundError`` when the file is missing.  Trailing
    malformed lines (the file is appended without the atomic-rewrite
    protocol, so a crash can tear the tail) are skipped with one
    logged notice; a malformed line *followed by healthy rows* is real
    corruption and raises ``ValueError``.
    """
    path = Path(path)
    rows: list[dict] = []
    bad: list[int] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            bad.append(lineno)
            continue
        if not isinstance(row, dict) or "phases" not in row:
            bad.append(lineno)
            continue
        if bad:
            raise ValueError(
                f"{path}:{bad[0]}: malformed history line followed by "
                f"healthy rows (corruption, not a torn tail)"
            )
        rows.append(row)
    if bad:
        log.warning(
            "%s: skipped %d malformed trailing line(s) starting at line %d "
            "(torn append tail)",
            path,
            len(bad),
            bad[0],
        )
    return rows


def _group_key(row: dict) -> tuple:
    return (
        str(row.get("preset", "?")),
        row.get("days"),
        row.get("seed"),
    )


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _metric_value(row: dict, metric: str) -> float | None:
    if metric in _THROUGHPUT_METRICS:
        value = row.get(metric)
    else:
        value = (row.get("phases") or {}).get(metric)
    return float(value) if isinstance(value, (int, float)) else None


def _baseline(prior: list[dict], metric: str, k: int) -> float | None:
    values = [
        v
        for row in prior[-k:]
        if (v := _metric_value(row, metric)) is not None
    ]
    return _median(values) if values else None


def trend_report(rows: list[dict], baseline_k: int = DEFAULT_BASELINE_K) -> dict:
    """Per-group trend of the newest row against its rolling baseline.

    Returns ``{"groups": [...], "latest_key": str | None}`` where each
    group record carries the candidate row's metrics, the baseline
    medians, and the signed regression fraction per metric (positive =
    worse).  ``latest_key`` names the group of the newest row overall
    (by file order) -- the measurement a CI gate just appended.
    Raises ``ValueError`` when ``baseline_k`` is below 1.
    """
    if baseline_k < 1:
        raise ValueError(f"baseline_k must be >= 1, got {baseline_k}")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(_group_key(row), []).append(row)

    records = []
    for key in sorted(groups, key=lambda k: (k[0], str(k[1]), str(k[2]))):
        members = groups[key]
        candidate = members[-1]
        prior = members[:-1]
        metrics: dict[str, dict] = {}
        for metric in (*_PHASE_METRICS, "total_s", *_THROUGHPUT_METRICS):
            value = _metric_value(candidate, metric)
            base = _baseline(prior, metric, baseline_k) if prior else None
            regression = None
            if value is not None and base is not None and base > 0:
                if metric in _THROUGHPUT_METRICS:
                    regression = base / value - 1.0 if value > 0 else None
                else:
                    regression = value / base - 1.0
            metrics[metric] = {
                "value": value,
                "baseline": base,
                "regression": regression,
            }
        records.append(
            {
                "preset": key[0],
                "days": key[1],
                "seed": key[2],
                "rows": len(members),
                "measured_at": candidate.get("measured_at"),
                "metrics": metrics,
            }
        )

    latest_key = _group_key(rows[-1]) if rows else None
    return {
        "baseline_k": baseline_k,
        "groups": records,
        "latest_key": (
            f"{latest_key[0]}/days={latest_key[1]}/seed={latest_key[2]}"
            if latest_key
            else None
        ),
    }


def evaluate_trend_fail_on(report: dict, rules: dict[str, float]) -> list[str]:
    """Violation messages for a trend report under the gate rules.

    Every group's candidate is gated (CI may interleave quick and
    default measurements); a metric with no baseline is skipped --
    the first measurement of a workload cannot regress.
    """
    violations: list[str] = []
    for group in report["groups"]:
        label = (
            f"{group['preset']}/days={group['days']}/seed={group['seed']}"
        )
        metrics = group["metrics"]

        def check(metric: str, threshold: float, kind: str) -> None:
            data = metrics[metric]
            regression = data["regression"]
            if regression is None or regression <= threshold:
                return
            if kind == "throughput":
                detail = (
                    f"{data['baseline']:.1f} -> {data['value']:.1f} rows/s"
                )
            else:
                detail = f"{data['baseline']:.3f}s -> {data['value']:.3f}s"
            violations.append(
                f"{kind}: {label} {metric} regressed {detail} "
                f"(+{regression:.0%} > {threshold:.0%})"
            )

        if "phase" in rules:
            for metric in _PHASE_METRICS:
                check(metric, rules["phase"], "phase")
        if "total" in rules:
            check("total_s", rules["total"], "total")
        if "throughput" in rules:
            for metric in _THROUGHPUT_METRICS:
                check(metric, rules["throughput"], "throughput")
    return violations


def render_trend(report: dict) -> str:
    """Human-readable trend table."""
    groups = report["groups"]
    if not groups:
        return "no benchmark history rows"
    lines = [
        f"bench trend (baseline: median of last {report['baseline_k']} "
        f"prior rows per group)"
    ]
    for group in groups:
        lines.append("")
        lines.append(
            f"{group['preset']}/days={group['days']}/seed={group['seed']}: "
            f"{group['rows']} row(s), latest {group['measured_at']}"
        )
        header = (
            f"  {'metric':<28} {'latest':>12} {'baseline':>12} {'delta':>8}"
        )
        lines.append(header)
        for metric, data in group["metrics"].items():
            value = data["value"]
            base = data["baseline"]
            regression = data["regression"]
            fv = f"{value:,.1f}" if value is not None else "-"
            fb = f"{base:,.1f}" if base is not None else "n/a"
            fr = f"{regression:+.1%}" if regression is not None else "-"
            lines.append(f"  {metric:<28} {fv:>12} {fb:>12} {fr:>8}")
    return "\n".join(lines)
