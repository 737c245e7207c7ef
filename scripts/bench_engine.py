"""Simulation-engine phase benchmark.

Runs one fully traced simulation (``repro.obs`` spans captured with a
memory sink) and records the per-phase timings as JSON so the perf
trajectory is tracked across PRs::

    PYTHONPATH=src python scripts/bench_engine.py                  # default config
    PYTHONPATH=src python scripts/bench_engine.py --quick          # test-scale config
    PYTHONPATH=src python scripts/bench_engine.py --compare-scalar # also time the oracle

Phase timings come from the engine's own span instrumentation
(``phase1.population`` / ``phase2.market`` / ``phase3.auctions``), so
the bench measures exactly what ``python -m repro.obs report`` shows
for a real run, and ``phases_detail`` breaks each phase into its
hottest sub-spans (gather, kernel, per-day loop).

``--compare-scalar`` additionally runs the retained scalar auction loop
(:meth:`SimulationEngine.run_auctions_scalar`) on an identically-seeded
engine and records the batched-vs-scalar speedup.  The default output
file is ``BENCH_engine.json`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro import obs
from repro.config import default_config, small_config
from repro.records.columnar import read_columns
from repro.records.impressions import ImpressionBuilder
from repro.runner.chunkstore import chunk_to_bytes, load_chunk
from repro.simulator.engine import SimulationEngine
from repro.simulator.market import MarketIndex

# v3: phase-1 sub-spans renamed for the whole-horizon path
# (phase1.draws / phase1.build replace phase1.day) and a `columnar`
# section measuring the .npc chunk codec's throughput.
# v4: a `resources` section (repro.obs.resources summary: peak/mean
# RSS, CPU utilization, GC pauses) sampled over the traced run.
SCHEMA = "repro.bench_engine/v4"
_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = _REPO_ROOT / "BENCH_engine.json"
DEFAULT_HISTORY = _REPO_ROOT / "BENCH_history.jsonl"

#: Span name of each reported phase (JSON key -> engine span).
PHASE_SPANS = {
    "population_s": "phase1.population",
    "market_build_s": "phase2.market",
    "auctions_s": "phase3.auctions",
}

#: Sub-spans reported per phase in ``phases_detail``.
DETAIL_TOP_N = 5


def _build_config(quick: bool, seed: int | None):
    if quick:
        return small_config() if seed is None else small_config(seed=seed)
    return default_config() if seed is None else default_config(seed=seed)


def _descendant_totals(spans: list[dict], root_id: int) -> dict[str, dict]:
    """Aggregate every descendant of ``root_id`` by span name."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals: dict[str, dict] = {}
    frontier = [root_id]
    while frontier:
        parent = frontier.pop()
        for span in children.get(parent, ()):
            bucket = totals.setdefault(
                span["name"], {"count": 0, "total_s": 0.0}
            )
            bucket["count"] += 1
            bucket["total_s"] += span["dur"]
            frontier.append(span["id"])
    return {
        name: {"count": agg["count"], "total_s": round(agg["total_s"], 4)}
        for name, agg in totals.items()
    }


def _run_phases(config) -> dict:
    engine = SimulationEngine(config)
    sampler = obs.ResourceSampler()
    sampler.start()
    try:
        with obs.capture() as sink:
            result = engine.run()
    finally:
        resources = sampler.stop()
    spans = [e for e in sink.events if e["kind"] == "span"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    phases: dict[str, float] = {}
    detail: dict[str, dict] = {}
    for key, span_name in PHASE_SPANS.items():
        phase_spans = by_name.get(span_name, [])
        phases[key] = round(sum(s["dur"] for s in phase_spans), 4)
        sub = {}
        for phase_span in phase_spans:
            for name, agg in _descendant_totals(spans, phase_span["id"]).items():
                bucket = sub.setdefault(name, {"count": 0, "total_s": 0.0})
                bucket["count"] += agg["count"]
                bucket["total_s"] = round(
                    bucket["total_s"] + agg["total_s"], 4
                )
        top = sorted(sub.items(), key=lambda kv: -kv[1]["total_s"])
        detail[span_name] = dict(top[:DETAIL_TOP_N])
    phases["total_s"] = round(sum(s["dur"] for s in by_name.get("run", [])), 4)

    rows = len(result.impressions)
    auctions_s = phases["auctions_s"]
    return {
        "phases": phases,
        "phases_detail": detail,
        "impressions": {
            "rows": rows,
            "rows_per_sec": (
                round(rows / auctions_s, 1) if auctions_s > 0 else None
            ),
        },
        "columnar": _bench_columnar(result, config.days),
        "resources": resources,
    }


def _bench_columnar(result, days: int) -> dict:
    """Throughput of the ``.npc`` chunk codec on this run's rows.

    Measures the three operations the durable-run machinery performs:
    serializing a chunk, replaying it whole, and the analysis layer's
    two-column seekable read.
    """
    columns = result.impressions.to_columns()
    rows = len(result.impressions)
    t0 = time.perf_counter()
    blob = chunk_to_bytes(columns, 0, days)
    write_s = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench-chunk.npc"
        path.write_bytes(blob)
        t0 = time.perf_counter()
        load_chunk(path)
        read_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        read_columns(path, names=["day", "spend"])
        subset_s = time.perf_counter() - t0

    def _rate(seconds: float):
        return round(rows / seconds, 1) if seconds > 0 else None

    return {
        "rows": rows,
        "bytes": len(blob),
        "write_rows_per_sec": _rate(write_s),
        "read_rows_per_sec": _rate(read_s),
        "subset_read_s": round(subset_s, 4),
    }


def _run_scalar_oracle(config) -> float:
    """Phase-3 wall-clock of the scalar loop on a fresh same-seed engine."""
    engine = SimulationEngine(config)
    accounts, _ = engine.generate_population()
    market = MarketIndex(accounts)
    builder = ImpressionBuilder()
    t0 = time.perf_counter()
    engine.run_auctions_scalar(market, builder)
    return time.perf_counter() - t0


def _print_trend(history_path: Path) -> None:
    """One line placing the just-appended row against its baseline.

    Best-effort: the bench must never fail because the trend reader
    choked on an old history layout.  Full tables (and the CI gate)
    live in ``python -m repro.obs trend``.
    """
    from repro.obs.history import load_history, trend_report

    try:
        report = trend_report(load_history(history_path))
    except (OSError, ValueError):
        return
    latest = next(
        (
            group
            for group in report["groups"]
            if f"{group['preset']}/days={group['days']}/seed={group['seed']}"
            == report["latest_key"]
        ),
        None,
    )
    if latest is None:
        return
    total = latest["metrics"]["total_s"]
    if total["regression"] is None:
        print(
            "trend: first measurement for this workload "
            "(no baseline yet; gate with `python -m repro.obs trend`)"
        )
    else:
        print(
            f"trend: total {total['value']:.2f}s vs baseline median "
            f"{total['baseline']:.2f}s ({total['regression']:+.1%})"
        )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="bench-engine", description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the fast test-scale configuration",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help="output JSON path (default: BENCH_engine.json at repo root)",
    )
    parser.add_argument(
        "--compare-scalar",
        action="store_true",
        help="also run the scalar oracle auction loop and record the speedup",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="also append a compact record to the benchmark history file",
    )
    parser.add_argument(
        "--history-out",
        type=Path,
        default=DEFAULT_HISTORY,
        help=(
            "history JSONL path for --append-history "
            "(default: BENCH_history.jsonl at repo root)"
        ),
    )
    args = parser.parse_args(argv)

    config = _build_config(args.quick, args.seed)
    record = {
        "schema": SCHEMA,
        # timezone-aware UTC: time.strftime's %z is empty on platforms
        # whose struct_time carries no offset, yielding a naive stamp.
        "measured_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "preset": "quick" if args.quick else "default",
            "seed": config.seed,
            "days": config.days,
            "auctions_per_day": config.query.auctions_per_day,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    record.update(_run_phases(config))
    if args.compare_scalar:
        scalar_s = _run_scalar_oracle(config)
        batched_s = record["phases"]["auctions_s"]
        record["scalar_oracle"] = {
            "auctions_s": round(scalar_s, 4),
            "speedup_batched_over_scalar": (
                round(scalar_s / batched_s, 2) if batched_s > 0 else None
            ),
        }

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    if args.append_history:
        # One compact line per measurement: enough to plot the perf
        # trajectory across PRs (and for `repro.obs diff` consumers)
        # without carrying the full nested detail of BENCH_engine.json.
        history_line = {
            "measured_at": record["measured_at"],
            "preset": record["config"]["preset"],
            "seed": record["config"]["seed"],
            "days": record["config"]["days"],
            "phases": record["phases"],
            "rows": record["impressions"]["rows"],
            "rows_per_sec": record["impressions"]["rows_per_sec"],
            "columnar_write_rows_per_sec": record["columnar"][
                "write_rows_per_sec"
            ],
        }
        with args.history_out.open("a") as handle:
            handle.write(
                json.dumps(history_line, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        print(f"appended history -> {args.history_out}")
        _print_trend(args.history_out)
    phases = record["phases"]
    print(
        f"population {phases['population_s']:.2f}s | "
        f"market {phases['market_build_s']:.2f}s | "
        f"auctions {phases['auctions_s']:.2f}s | "
        f"{record['impressions']['rows']} rows "
        f"({record['impressions']['rows_per_sec']} rows/s)"
    )
    if "scalar_oracle" in record:
        oracle = record["scalar_oracle"]
        print(
            f"scalar oracle auctions {oracle['auctions_s']:.2f}s "
            f"-> batched speedup {oracle['speedup_batched_over_scalar']}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
