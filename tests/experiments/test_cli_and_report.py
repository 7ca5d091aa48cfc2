"""Tests for the CLI and the report generator."""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.report import SHAPE_CHECKS, generate_report


class TestCli:
    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig09", "fig19"):
            assert fig in out

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "doc-net" in out
        assert "peers" in out

    def test_run_command(self, capsys):
        assert main(["run", "fig18", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out
        assert "interval" in out

    def test_run_with_seed(self, capsys):
        assert main(["run", "fig18", "--scale", "small", "--seed", "3"]) == 0

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--scale", "small", "--figures", "fig18", "--output", str(target)]) == 0
        text = target.read_text()
        assert "fig18" in text
        assert "PASS" in text

    def test_report_exit_code_follows_the_checks(self, monkeypatch, capsys):
        argv = ["report", "--scale", "small", "--figures", "fig18"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setitem(
            SHAPE_CHECKS, "fig18", lambda result, figure: [("forced", False, "why")]
        )
        assert main(argv) == 1
        assert capsys.readouterr().err == "[FAIL] forced (why)\n"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_chaos_takes_no_result_cache(self, capsys):
        # Its fault-injecting engine runs every query: a cache would be unused.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--result-cache", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --result-cache 8" in capsys.readouterr().err

    def test_chaos_draws_origins_from_the_live_ring(self, capsys):
        # Nodes crash during the run; at this size and seed a query after a
        # crash would otherwise start at a node that is gone.
        argv = ["chaos", "--queries", "16", "--drop-rate", "0.1",
                "--crash-rate", "0.05", "--seed", "1", "--assert-complete"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mean recall 1.000, 16/16 complete" in out
        assert "13 crashed" in out

    @pytest.mark.parametrize(
        "env,argv,expected",
        [
            ({"REPRO_CURVE": "bogus"}, ["demo"], "'gray', 'hilbert', 'onion', 'zorder']"),
            ({"REPRO_STORE": "bogus"}, ["demo"], "['local', 'sqlite']"),
            ({}, ["run", "fig09", "--result-cache", "0"], "capacity must be >= 1"),
        ],
    )
    def test_bad_setting_is_a_message_not_a_traceback(
        self, monkeypatch, capsys, env, argv, expected
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and err.count("\n") == 1
        assert expected in err and "Traceback" not in err


class TestReportGenerator:
    def test_every_figure_has_checks_and_claims(self):
        from repro.experiments import EXTENSIONS, FIGURES

        rows = {**FIGURES, **EXTENSIONS}
        assert set(SHAPE_CHECKS) == set(rows)
        assert all(row.id == name and row.title and row.claim for name, row in rows.items())

    def test_extension_report(self):
        text = generate_report(scale="small", figures=["extB"])
        assert "extB" in text
        assert "FAIL" not in text

    def test_subset_report(self):
        text = generate_report(scale="small", figures=["fig18", "fig19"])
        assert "fig18" in text and "fig19" in text
        assert "fig09" not in text

    def test_report_checks_pass_at_small_scale(self):
        text = generate_report(scale="small")  # every paper figure
        assert "FAIL" not in text
        assert text.count("[PASS]") == 37

    def test_cross_figure_check_runs_the_other_sweep_once(self, monkeypatch):
        from repro.experiments import report

        ran = []
        real = report.run_figure

        def counting(name, scale):
            ran.append(name)
            return real(name, scale=scale)

        monkeypatch.setattr(report, "run_figure", counting)
        text = generate_report(scale="small", figures=["fig11"])
        assert ran == ["fig11", "fig09"]
        assert "cheaper than the Q1 queries of fig09" in text
        assert "## fig09" not in text
        ran.clear()
        generate_report(scale="small", figures=["fig11", "fig09"])
        assert ran == ["fig11", "fig09"]  # the run's own fig09 is the one reused

    def test_snapshot_cuts_the_run_s_own_sweep(self, monkeypatch):
        from repro.experiments import figures, run_figure

        sweeps = []
        real = figures.growth_sweep

        def counting(figure, *args, **kwargs):
            sweeps.append(figure)
            return real(figure, *args, **kwargs)

        monkeypatch.setattr(figures, "growth_sweep", counting)
        text = generate_report(scale="small", figures=["fig09", "fig10"])
        assert sweeps == ["fig09"]
        assert "## fig10" in text and "FAIL" not in text
        alone = run_figure("fig10")  # no report around it: runs fig09 itself
        assert sweeps == ["fig09", "fig09"]
        assert alone.notes == ["snapshots at [(320, 6000), (540, 10000)] from fig09"]

    def test_not_monotone_needs_a_majority_of_sizes(self):
        from repro.experiments.report import _check_not_monotone
        from repro.experiments.runner import FigureResult

        def sweep(costs_by_size):
            result = FigureResult("fig09", "", [])
            for nodes, costs in costs_by_size.items():
                for matches, cost in enumerate(costs):
                    result.add_row(nodes=nodes, matches=matches, processing_nodes=cost)
            return result

        inverted, ordered = [5, 3, 9], [3, 5, 9]
        _, ok, detail = _check_not_monotone(sweep({10: inverted, 20: inverted, 30: ordered}))
        assert ok and detail == "2/3 sizes non-monotone"
        _, ok, detail = _check_not_monotone(sweep({10: inverted, 20: ordered}))
        assert not ok and detail == "1/2 sizes non-monotone"
        tied = FigureResult("fig09", "", [])
        for cost in (7, 4):  # equal matches: no order to violate
            tied.add_row(nodes=10, matches=1, processing_nodes=cost)
        assert not _check_not_monotone(tied)[1]


class TestCurveFlag:
    def test_run_with_curve_flag(self, capsys, monkeypatch):
        from repro import cli
        from repro.config import current

        before, during = current(), []
        monkeypatch.setattr(cli, "_cmd_run", lambda args: during.append(current()) or 0)
        assert main(["run", "fig18", "--scale", "small", "--curve", "onion"]) == 0
        assert during == [replace(before, curve="onion")]
        assert current() == before  # the flag does not outlive the command

    def test_rejects_unknown_curve(self):
        for name in ("peano", "auto"):  # there is no selector behind "auto"
            with pytest.raises(SystemExit) as exc:  # argparse choices
                main(["run", "fig18", "--curve", name])
            assert exc.value.code == 2

    def test_curve_ablation_runs(self, capsys):
        assert main(["run", "extH", "--scale", "small", "--csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0].split(",")
        assert "curve" in header and "mean_clusters" in header
        body = out.splitlines()[1:]
        families = {line.split(",")[0] for line in body if line}
        assert families == {"hilbert", "zorder", "gray", "onion"}


class TestNewCliCommands:
    def test_run_csv(self, capsys):
        from repro.cli import main

        assert main(["run", "fig18", "--scale", "small", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "interval,keys"

    def test_replicate_command(self, capsys):
        from repro.cli import main

        assert main(["replicate", "fig18", "--scale", "small", "--seeds", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "seed-spread" in out
        assert "keys" in out
