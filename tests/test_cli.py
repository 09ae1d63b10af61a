"""Tests for the CLI and the report generator."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.registry import ExperimentResult
from repro.experiments.report import render_report, run_all, write_report


class TestCliList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("E-T1", "E-L9", "E-T14", "E-AB", "E-X1", "E-X2"):
            assert eid in out


class TestCliParams:
    def test_prints_derived_values(self, capsys):
        assert main(["params", "128"]) == 0
        out = capsys.readouterr().out
        assert "lam: 8" in out
        assert "dilation: 18" in out

    def test_overrides(self, capsys):
        assert main(["params", "128", "--c", "2.5", "--alpha", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "c: 2.5" in out
        assert "alpha: 0.25" in out


class TestCliProfile:
    # n=24: lam=5, dilation=12, so rounds 0..14 fill the routing pipeline.
    def test_splits_warm_up_from_steady_state(self, capsys):
        # 20 rounds leave five after the warm-up: two whole cycles, 15..18.
        assert main(["profile", "--n", "24", "--rounds", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "mean" not in lines[0]
        assert lines[1].startswith("warm-up  rounds 0..14: mean=")
        assert lines[2].startswith("steady   rounds 15..18 (2 cycles): mean=")

    def test_short_run_reports_no_steady_state(self, capsys):
        assert main(["profile", "--n", "24", "--rounds", "16"]) == 0
        out = capsys.readouterr().out
        assert "warm-up  rounds 0..14: mean=" in out
        assert "steady   no whole cycle after the warm-up (needs --rounds >= 17)" in out


class TestCliScenario:
    def test_list_shows_registry(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert len(names) >= 10
        assert "calm" in names
        assert "loss30-delay50" in names

    def test_run_requires_names(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])

    def test_no_action_errors(self):
        with pytest.raises(SystemExit):
            main(["scenario"])

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "run", "bogus"]) == 2

    def test_run_writes_validated_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["scenario", "run", "calm", "--seed", "2", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "calm" in out
        import json

        from repro.scenarios import validate_scenario_report

        doc = json.loads(out_path.read_text())
        validate_scenario_report(doc)
        assert doc["cells"][0]["seed"] == 2


class TestCliChaosScenario:
    def test_unknown_scenario(self, capsys):
        assert main(["chaos", "--scenario", "bogus"]) == 2

    def test_runs_registry_scenario(self, capsys):
        assert main(["chaos", "--scenario", "calm", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "calm" in out
        assert "fingerprint" in out


class TestCliRun:
    def test_runs_fast_experiment(self, capsys):
        assert main(["run", "E-F1"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_unknown_id(self, capsys):
        assert main(["run", "E-NOPE"]) == 2

    def test_seed_forwarded(self, capsys):
        assert main(["run", "E-F1", "--seed", "5"]) == 0


class TestReport:
    def make_result(self, eid="E-X", passed=True):
        return ExperimentResult(
            experiment_id=eid,
            title="demo",
            claim="c",
            header=["a"],
            rows=[[1]],
            passed=passed,
        )

    def test_render_report(self):
        text = render_report([self.make_result(), self.make_result("E-Y", False)])
        assert "| E-X | demo | PASS |" in text
        assert "| E-Y | demo | FAIL |" in text
        assert "### E-X" in text

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "r.md", [self.make_result()])
        assert path.read_text().startswith("# Experiment report")

    def test_run_all_subset(self):
        results = run_all(quick=True, only=["E-F1"])
        assert len(results) == 1
        assert results[0].experiment_id == "E-F1"

    def test_run_all_rejects_unknown(self):
        with pytest.raises(KeyError):
            run_all(only=["E-NOPE"])
