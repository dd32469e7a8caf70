"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["migrate-everything"])


class TestCommands:
    def test_plan(self, capsys):
        assert main(["plan", "acoustic", "512", "512", "512"]) == 0
        out = capsys.readouterr().out
        assert "Tesla M2090" in out and "Tesla K40" in out
        assert "swap" in out  # the Fermi acoustic-3D verdict

    def test_plan_vti(self, capsys):
        assert main(["plan", "vti", "256", "256"]) == 0
        assert "resident" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "fission" in out
        assert "M2090" in out

    def test_figures_fig10(self, capsys):
        assert main(["figures", "fig10"]) == 0
        assert "registers" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--nt", "20"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "table3_modeling" in data
        assert data["fig10_best_maxregcount"] == 64


class TestTuneCommand:
    def test_tune_writes_plan(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main([
            "tune", "acoustic-2d", "--budget", "2", "--out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "TuningPlan" in out and "step time" in out
        data = json.loads(path.read_text())
        assert data["case"] == "acoustic-2d"
        assert data["tuned_step_seconds"] <= data["baseline_step_seconds"]
        assert data["kernels"], "plan must carry per-kernel entries"
        for entry in data["kernels"].values():
            assert entry["vector_length"] >= 1
            assert "model_error" in entry

    def test_tune_unknown_compiler(self, tmp_path):
        import pytest

        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main([
                "tune", "iso2d", "--compiler", "gcc-4.9",
                "--out", str(tmp_path / "p.json"),
            ])

    def test_figures_tuned_study(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main([
            "tune", "el2d", "--mode", "modeling", "--budget", "2",
            "--out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["figures", "tuned", "--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Auto-tuned" in out
        assert "default" in out and "auto-tuned" in out


#: every subcommand that takes a seed-case spelling
CASE_COMMANDS = (
    "trace", "lint", "deps", "sanitize", "chaos",
    "tune", "scale", "serve", "compile", "validate",
)


class TestMalformedInput:
    """``python -m repro`` turns a ConfigurationError into one stderr line
    and exit status 2 — never a traceback."""

    @pytest.mark.parametrize("command", CASE_COMMANDS)
    def test_unknown_case_exits_two(self, command, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command, "bogus"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"repro {command}: unknown case 'bogus'")
        assert "iso{2d,3d}, ac{2d,3d}, el{2d,3d}" in proc.stderr

    def test_all_is_case_insensitive(self, capsys):
        assert main(["lint", "ALL", "--no-ledger", "--format", "json"]) == 0
        upper = capsys.readouterr().out
        assert main(["lint", "all", "--no-ledger", "--format", "json"]) == 0
        assert capsys.readouterr().out == upper

    def test_validate_fail_on_none(self, capsys):
        assert main([
            "validate", "iso2d", "--mode", "rtm", "--nt", "8",
            "--fail-on", "none", "--no-ledger",
        ]) == 0
        assert "repro validate" in capsys.readouterr().out

    def test_bad_severity_is_typed(self):
        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown severity"):
            main(["validate", "iso2d", "--mode", "rtm", "--nt", "8",
                  "--fail-on", "fatal", "--no-ledger"])
