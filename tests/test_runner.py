"""Smoke tests for the experiment runner (the table/figure CLI)."""

import pytest

from repro.evaluation import runner


class TestTable1:
    def test_tiny_scale_renders_all_rows(self):
        report = runner.run_table1(scale=0.05)
        for name in ("PBLOG", "GOV", "KEGG", "BERLIN", "IMDB", "LUBM",
                     "UOBM", "DBLP"):
            assert name in report
        assert "Table 1" in report
        assert "|HV|" in report


class TestScalabilityPanels:
    def test_fig7b_small(self):
        report = runner.run_fig7b(scale=0.1)
        assert "trendline" in report
        assert "Fig. 7b" in report

    def test_fig7c_small(self):
        report = runner.run_fig7c(scale=0.1)
        assert "Fig. 7c" in report


class TestRR:
    def test_rr_report_small(self):
        report = runner.run_rr(scale=0.15)
        assert "Reciprocal rank" in report
        assert "Q1" in report


class TestCli:
    def test_main_runs_one_experiment(self, capsys):
        assert runner.main(["table1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["fig99"])

    def test_seed_flag_accepted(self, capsys):
        assert runner.main(["table1", "--scale", "0.05", "--seed", "3"]) == 0


class TestAblations:
    def test_weights_ablation_renders(self):
        report = runner.run_weights_ablation(scale=0.15)
        assert "paper" in report
        assert "structure-only" in report
        assert "mean RR" in report

    def test_extensions_report(self):
        report = runner.run_extensions(scale=0.3)
        assert "paths.log bytes per record" in report
        assert "labels.dict bytes" in report
        assert "incremental update" in report
