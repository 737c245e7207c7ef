"""Tests for bench-history trends and the perf gate (``repro.obs trend``)."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs.__main__ import main as obs_main, parse_fail_on
from repro.obs.history import (
    TREND_RULES,
    evaluate_trend_fail_on,
    load_history,
    render_trend,
    trend_report,
)


@pytest.fixture
def propagate_repro_logs(monkeypatch):
    # The ``repro`` logger tree runs with propagate=False once its
    # handler is attached; let records reach caplog's root handler.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)


def _row(
    total=10.0,
    population=6.0,
    market=1.0,
    auctions=3.0,
    rows_per_sec=1000.0,
    columnar=5000.0,
    preset="default",
    days=728,
    seed=1,
    measured_at="2026-01-01T00:00:00+00:00",
) -> dict:
    return {
        "measured_at": measured_at,
        "preset": preset,
        "days": days,
        "seed": seed,
        "phases": {
            "population_s": population,
            "market_build_s": market,
            "auctions_s": auctions,
            "total_s": total,
        },
        "rows": 1000,
        "rows_per_sec": rows_per_sec,
        "columnar_write_rows_per_sec": columnar,
    }


def _write(path, rows) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                for r in rows)
    )


class TestLoadHistory:
    def test_round_trips_rows(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        _write(path, [_row(), _row(total=11.0)])
        rows = load_history(path)
        assert len(rows) == 2
        assert rows[1]["phases"]["total_s"] == 11.0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_history(tmp_path / "absent.jsonl")

    def test_torn_tail_skipped_with_notice(
        self, tmp_path, caplog, propagate_repro_logs
    ):
        path = tmp_path / "hist.jsonl"
        path.write_text(
            json.dumps(_row()) + "\n" + '{"measured_at":"2026-01-02","pha'
        )
        with caplog.at_level("WARNING", logger="repro.obs.history"):
            rows = load_history(path)
        assert len(rows) == 1
        assert any("torn append tail" in r.getMessage() for r in caplog.records)

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("garbage\n" + json.dumps(_row()) + "\n")
        with pytest.raises(ValueError, match="corruption"):
            load_history(path)


class TestTrendReport:
    def test_groups_by_preset_days_seed(self):
        rows = [
            _row(preset="default", total=10.0),
            _row(preset="quick", days=40, total=1.0),
            _row(preset="default", total=12.0),
        ]
        report = trend_report(rows)
        labels = [
            (g["preset"], g["days"], g["rows"]) for g in report["groups"]
        ]
        assert labels == [("default", 728, 2), ("quick", 40, 1)]
        assert report["latest_key"] == "default/days=728/seed=1"

    def test_baseline_is_median_of_last_k(self):
        # Priors 10,20,30,40,50,60 with k=5 -> median of last 5 = 40.
        rows = [_row(total=t) for t in (10, 20, 30, 40, 50, 60)] + [
            _row(total=50.0)
        ]
        report = trend_report(rows, baseline_k=5)
        total = report["groups"][0]["metrics"]["total_s"]
        assert total["baseline"] == 40.0
        assert total["value"] == 50.0
        assert total["regression"] == pytest.approx(0.25)

    @pytest.mark.parametrize("k", [0, -3])
    def test_baseline_k_below_one_raises(self, k):
        rows = [_row(total=10.0), _row(total=20.0)]
        with pytest.raises(ValueError, match="baseline_k must be >= 1"):
            trend_report(rows, baseline_k=k)

    def test_first_measurement_has_no_baseline(self):
        report = trend_report([_row()])
        total = report["groups"][0]["metrics"]["total_s"]
        assert total["baseline"] is None and total["regression"] is None

    def test_throughput_regression_positive_when_slower(self):
        rows = [_row(rows_per_sec=1000.0), _row(rows_per_sec=800.0)]
        metrics = trend_report(rows)["groups"][0]["metrics"]
        assert metrics["rows_per_sec"]["regression"] == pytest.approx(0.25)
        # Faster candidate -> negative (improvement).
        rows = [_row(rows_per_sec=1000.0), _row(rows_per_sec=1250.0)]
        metrics = trend_report(rows)["groups"][0]["metrics"]
        assert metrics["rows_per_sec"]["regression"] == pytest.approx(-0.2)


class TestFailOn:
    def test_parse_rules(self):
        assert parse_fail_on(["total=0.25,phase=0.5"], TREND_RULES) == {
            "total": 0.25,
            "phase": 0.5,
        }
        with pytest.raises(ValueError, match="unknown"):
            parse_fail_on(["speed=1"], TREND_RULES)
        with pytest.raises(ValueError, match="not a number"):
            parse_fail_on(["total=slow"], TREND_RULES)

    def test_total_rule_fires_on_regression(self):
        report = trend_report([_row(total=10.0), _row(total=14.0)])
        violations = evaluate_trend_fail_on(report, {"total": 0.25})
        assert violations and "total_s regressed" in violations[0]
        assert evaluate_trend_fail_on(report, {"total": 0.5}) == []

    def test_phase_rule_names_the_phase(self):
        report = trend_report(
            [_row(auctions=3.0), _row(auctions=6.0)]
        )
        violations = evaluate_trend_fail_on(report, {"phase": 0.5})
        assert violations and "auctions_s" in violations[0]

    def test_throughput_rule_fires_on_drop(self):
        report = trend_report(
            [_row(columnar=5000.0), _row(columnar=2000.0)]
        )
        violations = evaluate_trend_fail_on(report, {"throughput": 0.5})
        assert violations and "columnar_write_rows_per_sec" in violations[0]

    def test_no_baseline_never_violates(self):
        report = trend_report([_row()])
        assert evaluate_trend_fail_on(
            report, {"total": 0.0, "phase": 0.0, "throughput": 0.0}
        ) == []


class TestCli:
    def test_trend_ok_exit_0(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(path, [_row(total=10.0), _row(total=10.5)])
        code = obs_main(
            ["trend", "--history", str(path), "--fail-on", "total=0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench trend" in out and "ok: 1 rule(s) held" in out

    def test_trend_violation_exit_1(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(path, [_row(total=10.0), _row(total=20.0)])
        code = obs_main(
            ["trend", "--history", str(path), "--fail-on", "total=0.25"]
        )
        assert code == 1
        assert "FAIL:" in capsys.readouterr().out

    def test_missing_history_exit_2(self, tmp_path, capsys):
        code = obs_main(["trend", "--history", str(tmp_path / "nope.jsonl")])
        assert code == 2
        capsys.readouterr()

    def test_bad_rule_exit_2(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        _write(path, [_row()])
        code = obs_main(
            ["trend", "--history", str(path), "--fail-on", "warp=9"]
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("k", [0, -3])
    def test_baseline_k_below_one_exit_2(self, tmp_path, capsys, k):
        # prior[-k:] with k <= 0 is every prior row, or all but the
        # first |k|, never "the last k": such a baseline is meaningless.
        path = tmp_path / "hist.jsonl"
        _write(path, [_row(total=10.0), _row(total=10.5)])
        code = obs_main(["trend", "--history", str(path), "--baseline-k", str(k)])
        assert code == 2
        assert "bench trend" not in capsys.readouterr().out

    def test_render_trend_no_rows(self):
        assert "no benchmark history rows" in render_trend(
            {"baseline_k": 5, "groups": [], "latest_key": None}
        )

    def test_committed_history_parses(self, capsys):
        # The repo's own BENCH_history.jsonl must stay loadable: CI gates
        # against it on every build.
        from pathlib import Path

        repo_history = Path(__file__).resolve().parents[2] / "BENCH_history.jsonl"
        rows = load_history(repo_history)
        assert len(rows) >= 2
        report = trend_report(rows)
        assert report["groups"]
