"""Tests for the rtdvs command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "laedf" in out
        assert "machine0" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestSimulate:
    def test_paper_example(self, capsys):
        code = main(["simulate", "--tasks", "3:8,3:10,1:14",
                     "--policy", "laEDF", "--duration", "16"])
        assert code == 0
        assert "laEDF" in capsys.readouterr().out

    def test_trace_output(self, capsys):
        code = main(["simulate", "--tasks", "2:10", "--policy", "ccEDF",
                     "--duration", "20", "--trace"])
        assert code == 0
        assert "freq" in capsys.readouterr().out

    def test_fractional_demand(self, capsys):
        code = main(["simulate", "--tasks", "3:8", "--demand", "0.5",
                     "--duration", "16"])
        assert code == 0

    def test_machine_choice(self, capsys):
        code = main(["simulate", "--tasks", "3:8", "--machine", "k6-2+",
                     "--duration", "16"])
        assert code == 0

    def test_bad_task_spec(self, capsys):
        assert main(["simulate", "--tasks", "oops"]) == 2

    def test_misses_reported_as_failure(self, capsys):
        # Overloaded set at a fixed half speed: misses -> exit code 1.
        code = main(["simulate", "--tasks", "9:10,5:10",
                     "--policy", "EDF", "--duration", "20"])
        assert code == 1


class TestRun:
    def test_run_table4(self, capsys):
        assert main(["run", "table4", "--no-charts"]) == 0
        out = capsys.readouterr().out
        assert "0.440" in out

    def test_run_with_csv(self, capsys, tmp_path):
        code = main(["run", "table1", "--csv", str(tmp_path)])
        assert code == 0
        assert list(tmp_path.glob("table1*.csv"))


class TestRunEngineSummary:
    def test_run_prints_engine_and_fallback_ledger(self, capsys,
                                                   monkeypatch):
        import repro.cli as cli_module
        from repro.experiments.common import ExperimentResult

        def fake_run(experiment, **kwargs):
            result = ExperimentResult(experiment_id=experiment,
                                      title="t", description="")
            result.engine_fallbacks = {"wakeup-timer": 3}
            assert kwargs["engine"] == "batch"
            return result

        monkeypatch.setattr(cli_module, "run_experiment", fake_run)
        assert main(["run", "fig9", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "engine: batch · engine fallbacks: wakeup-timer=3" in out

    def test_run_prints_the_lane_ledger(self, capsys, monkeypatch):
        """The summary says how many cells lanes served and why the other
        runs took none — fig9 keeps residency on every policy, so no lane
        ever runs there and the line says so."""
        from types import SimpleNamespace

        import repro.cli as cli_module
        from repro.experiments.common import ExperimentResult

        def sweep(cells, fallbacks):
            return SimpleNamespace(engine_fallbacks={}, block_cells=cells,
                                   block_fallbacks=fallbacks)

        def fake_run(experiment, **kwargs):
            result = ExperimentResult(experiment_id=experiment,
                                      title="t", description="")
            result.record_sweep(sweep(0, {"instrumented": 480}))
            result.record_sweep(sweep(5, {"instrumented": 20,
                                          "below-floor": 3}))
            return result

        monkeypatch.setattr(cli_module, "run_experiment", fake_run)
        assert main(["run", "fig9", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert ("engine: batch · engine fallbacks: none · lane cells: 5 · "
                "lane fallbacks: below-floor=3, instrumented=500") in out
        assert main(["run", "fig9", "--no-cache", "--engine", "scalar"]) \
            == 0
        out = capsys.readouterr().out
        assert "engine: scalar · engine fallbacks: none\n" in out
        assert "lane" not in out.splitlines()[-1]


class TestSubmitEngine:
    """``submit`` forwards ``--engine`` whenever it is given, so an
    explicit reference request is never replaced by the server default."""

    @staticmethod
    def _sent(monkeypatch, argv):
        import repro.cli as cli_module
        sent = []
        monkeypatch.setattr(cli_module, "_submit_request",
                            lambda args, request: sent.append(request) or 0)
        assert main(["submit", "fig9"] + argv) == 0
        return sent[0]

    def test_explicit_scalar_is_forwarded(self, monkeypatch):
        request = self._sent(monkeypatch, ["--engine", "scalar"])
        assert request["engine"] == "scalar"

    def test_explicit_default_is_forwarded(self, monkeypatch):
        request = self._sent(monkeypatch, ["--engine", "batch"])
        assert request["engine"] == "batch"

    def test_omitted_engine_leaves_the_server_default(self, monkeypatch):
        assert "engine" not in self._sent(monkeypatch, [])


class TestRunAll:
    def test_run_all_with_output(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.runall as runall_module
        from repro.experiments import table1
        monkeypatch.setattr(runall_module, "ALL_EXPERIMENTS",
                            {"table1": table1.run})
        code = main(["run-all", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.md").exists()
        assert "table1" in capsys.readouterr().out


class TestWorkloads:
    def test_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "camcorder" in out and "U=" in out

    def test_simulate_named(self, capsys):
        assert main(["workloads", "medical", "--policy", "ccEDF"]) == 0
        assert "ccEDF" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["workloads", "toaster"]) == 2


class TestCompare:
    def test_compare_tasks(self, capsys):
        code = main(["compare", "--tasks", "3:8,3:10,1:14",
                     "--demand", "0.5",
                     "--policies", "EDF,laEDF"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| EDF |" in out and "| laEDF |" in out

    def test_compare_workload(self, capsys):
        code = main(["compare", "--workload", "medical"])
        assert code == 0
        assert "vs ref" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["compare", "--workload", "toaster"]) == 2

    def test_bad_tasks(self, capsys):
        assert main(["compare", "--tasks", "zzz"]) == 2


class TestValidate:
    def test_valid_schedule(self, capsys):
        code = main(["validate", "--tasks", "3:8,3:10,1:14",
                     "--policy", "laEDF", "--duration", "56"])
        assert code == 0
        assert "validated" in capsys.readouterr().out

    def test_bad_spec(self, capsys):
        assert main(["validate", "--tasks", "nope"]) == 2

    def test_fractional_demand(self, capsys):
        code = main(["validate", "--tasks", "2:10", "--demand", "0.5",
                     "--duration", "40"])
        assert code == 0


class TestObs:
    def _archive(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        for policy in ("ccEDF", "laEDF"):
            code = main(["simulate", "--tasks", "3:8,3:10,1:14",
                         "--policy", policy, "--duration", "56",
                         "--metrics", str(path)])
            assert code == 0
        return path

    def test_simulate_metrics_to_stdout(self, capsys):
        code = main(["simulate", "--tasks", "3:8,3:10,1:14",
                     "--policy", "ccEDF", "--duration", "56",
                     "--metrics", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frequency residency:" in out

    def test_simulate_metrics_appends_jsonl(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "appended metrics to" in capsys.readouterr().out

    def test_summarize_archive(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-policy rollup:" in out
        assert "ccEDF" in out and "laEDF" in out

    def test_summarize_exports_csvs(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        csv_path = tmp_path / "runs.csv"
        res_path = tmp_path / "residency.csv"
        code = main(["obs", "summarize", str(path),
                     "--csv", str(csv_path),
                     "--residency-csv", str(res_path)])
        assert code == 0
        assert csv_path.read_text().startswith("policy,")
        assert "frequency" in res_path.read_text().splitlines()[0]

    def test_summarize_missing_file(self, capsys, tmp_path):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2

    def test_summarize_empty_archive(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "summarize", str(path)]) == 1
        assert "no metrics records" in capsys.readouterr().out

    def test_obs_without_subcommand_shows_help(self, capsys):
        assert main(["obs"]) == 2
