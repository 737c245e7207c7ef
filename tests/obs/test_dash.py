"""Tests for the self-contained HTML dashboards (``repro.obs dash``)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.__main__ import main as obs_main
from repro.obs.dash import DASHBOARD_NAME, render_compare, render_dashboard
from repro.obs.timeseries import DAYLEDGER_NAME

from .test_analyze import _spiked_ledger
from .test_diff import make_run


class TestRenderDashboard:
    def test_double_render_is_byte_identical(self, tmp_path):
        run_dir = make_run(
            tmp_path, "a", ledger=_spiked_ledger(policy_day=30),
            rss_peak_kb=65536.0,
        )
        first = render_dashboard(run_dir)
        second = render_dashboard(run_dir)
        assert first == second
        assert first.encode() == second.encode()

    def test_self_contained_html_with_inline_svg(self, tmp_path):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        html = render_dashboard(run_dir)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<style>" in html
        # No external references: the artifact must open offline.
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html
        # Every ledger series gets a sparkline cell.
        assert "fraud_click_share" in html
        assert "mean_cpc" in html

    def test_policy_rule_and_anomaly_markers(self, tmp_path):
        run_dir = make_run(
            tmp_path, "a",
            ledger=_spiked_ledger(days=70, spike_day=32, policy_day=30),
        )
        html = render_dashboard(run_dir)
        # Dashed vertical rule on the policy day, orange (near-policy)
        # anomaly dots for the in-window spike.
        assert 'class="policy"' in html
        assert 'class="anompol"' in html

    def test_unexplained_anomaly_renders_red(self, tmp_path):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        html = render_dashboard(run_dir)
        assert 'class="anom"' in html
        assert 'class="policy"' not in html

    def test_missing_artifacts_render_notices(self, tmp_path):
        run_dir = make_run(tmp_path, "a")
        (run_dir / DAYLEDGER_NAME).unlink()
        (run_dir / "validation.json").unlink()
        html = render_dashboard(run_dir)
        assert "no readable day ledger" in html
        assert "no validation artifact" in html

    def test_phase_bars_present(self, tmp_path):
        run_dir = make_run(tmp_path, "a", phase3_s=3.0)
        html = render_dashboard(run_dir)
        assert "phase3.auctions" in html
        assert 'class="bar"' in html


class TestRenderCompare:
    def test_matrix_has_one_column_per_run(self, tmp_path):
        run_a = make_run(tmp_path, "a", ledger=_spiked_ledger())
        run_b = make_run(tmp_path, "b", phase3_s=4.0)
        html = render_compare([run_a, run_b])
        assert "Comparison matrix" in html
        assert "<th>a</th>" in html and "<th>b</th>" in html
        assert "Health series per run" in html
        assert html == render_compare([run_a, run_b])

    def test_each_run_is_parsed_once(self, tmp_path, monkeypatch):
        run_a = make_run(tmp_path, "a", ledger=_spiked_ledger())
        run_b = make_run(tmp_path, "b")
        reads = []
        real_read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads.append(f"{self.parent.name}/{self.name}")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        render_compare([run_a, run_b])
        shared = ("MANIFEST.json", "telemetry.jsonl", DAYLEDGER_NAME)
        for run in ("a", "b"):
            for name in shared:
                assert reads.count(f"{run}/{name}") == 1, (run, name)

    def test_compare_tolerates_missing_ledger(self, tmp_path):
        run_a = make_run(tmp_path, "a")
        run_b = make_run(tmp_path, "b")
        (run_b / DAYLEDGER_NAME).unlink()
        html = render_compare([run_a, run_b])
        assert "no ledger" in html


class TestCli:
    def test_dash_writes_default_artifact(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        assert obs_main(["dash", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert f"wrote dashboard -> {run_dir / DASHBOARD_NAME}" in out
        assert (run_dir / DASHBOARD_NAME).read_text().startswith("<!DOCTYPE")

    def test_dash_cli_is_byte_deterministic(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        out_a = tmp_path / "one.html"
        out_b = tmp_path / "two.html"
        assert obs_main(["dash", str(run_dir), "--out", str(out_a)]) == 0
        assert obs_main(["dash", str(run_dir), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        capsys.readouterr()

    def test_dash_leaves_run_untouched(self, tmp_path, capsys):
        run_dir = make_run(tmp_path, "a", ledger=_spiked_ledger())
        before = {
            p.name: p.read_bytes() for p in run_dir.iterdir() if p.is_file()
        }
        assert obs_main(["dash", str(run_dir)]) == 0
        for name, payload in before.items():
            assert (run_dir / name).read_bytes() == payload
        capsys.readouterr()

    def test_compare_flag_writes_matrix(self, tmp_path, capsys):
        run_a = make_run(tmp_path, "a")
        run_b = make_run(tmp_path, "b")
        target = tmp_path / "matrix.html"
        code = obs_main(
            ["dash", str(run_a), "--compare", str(run_b), "--out", str(target)]
        )
        assert code == 0
        assert "wrote comparison (2 runs)" in capsys.readouterr().out
        assert "Comparison matrix" in target.read_text()

    def test_missing_run_exits_2(self, tmp_path, capsys):
        assert obs_main(["dash", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_manifest_only_dir_still_renders(self, tmp_path, capsys):
        run_dir = tmp_path / "bare"
        run_dir.mkdir()
        (run_dir / "MANIFEST.json").write_text(
            json.dumps({"seed": 1, "days": 2, "phase": "phase1", "chunks": []})
        )
        assert obs_main(["dash", str(run_dir)]) == 0
        html = (run_dir / DASHBOARD_NAME).read_text()
        assert "no readable day ledger" in html
        assert "no telemetry recorded" in html
        capsys.readouterr()
