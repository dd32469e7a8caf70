"""``python -m repro sanitize`` — CLI targets, formats and --fix."""

import json

import pytest

from repro.__main__ import main
from tests.sanitize.seeded import SCRIPTS

DIRTY = SCRIPTS["stale-device-read"]
CLEAN = SCRIPTS["sizeless-clean"]


@pytest.fixture
def dirty_script(tmp_path):
    p = tmp_path / "dirty.acc"
    p.write_text(DIRTY)
    return p


class TestTargets:
    def test_case_clean_exits_zero(self, capsys):
        assert main(["sanitize", "iso2d", "--ranks", "2"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_script_with_hazard_exits_one(self, tmp_path, capsys):
        p = tmp_path / "s.acc"
        p.write_text(DIRTY)
        assert main(["sanitize", "--script", str(p)]) == 1
        assert "stale-device-read" in capsys.readouterr().out

    def test_fail_on_none_always_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "s.acc"
        p.write_text(DIRTY)
        assert main(["sanitize", "--script", str(p), "--fail-on", "none"]) == 0

    def test_clean_script(self, tmp_path, capsys):
        p = tmp_path / "s.acc"
        p.write_text(CLEAN)
        assert main(["sanitize", "--script", str(p)]) == 0


class TestFormats:
    def test_json(self, tmp_path, capsys):
        p = tmp_path / "s.acc"
        p.write_text(DIRTY)
        main(["sanitize", "--script", str(p), "--json", "--fail-on", "none"])
        doc = json.loads(capsys.readouterr().out)
        rules = [d["rule"] for r in doc for d in r["diagnostics"]]
        assert rules == ["stale-device-read"]
        assert all(d["fix"] for r in doc for d in r["diagnostics"])

    def test_sarif(self, tmp_path, capsys):
        p = tmp_path / "s.acc"
        p.write_text(DIRTY)
        main(["sanitize", "--script", str(p), "--format", "sarif",
              "--fail-on", "none"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["coherence/stale-device-read"]


class TestFix:
    def test_fix_writes_output_and_revalidates(self, dirty_script, tmp_path, capsys):
        out = tmp_path / "fixed.acc"
        code = main(["sanitize", "--script", str(dirty_script),
                     "--fix", "--output", str(out)])
        assert code == 0
        assert "re-sanitized: clean" in capsys.readouterr().out
        fixed = out.read_text()
        assert "update device(u)" in fixed
        # the original is untouched when --output is given
        assert dirty_script.read_text() == DIRTY
        assert main(["sanitize", "--script", str(out)]) == 0

    def test_fix_in_place(self, dirty_script):
        assert main(["sanitize", "--script", str(dirty_script), "--fix"]) == 0
        assert "update device(u)" in dirty_script.read_text()
        assert main(["sanitize", "--script", str(dirty_script)]) == 0
