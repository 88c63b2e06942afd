"""Tests for the command-line interface."""


from repro.cli import EXPERIMENTS, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestVersion:
    def test_prints_version_and_paper(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "Couler" in out
        assert "2.0.0" in out


class TestRun:
    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_a_cheap_experiment(self, capsys):
        assert main(["run", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "couler" in out

    def test_runs_multiple(self, capsys):
        assert main(["run", "fig17", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Fig 17a" in out and "Table IV" in out


class TestRegistry:
    def test_every_entry_importable_with_run_and_report(self):
        import importlib

        for name, (module_path, _desc) in EXPERIMENTS.items():
            module = importlib.import_module(module_path)
            assert callable(module.run), name
            assert callable(module.report), name
