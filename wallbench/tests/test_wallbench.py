"""Smoke tests of the wall-clock benchmark, at the tiny size.

Run from the repository root::

    python3 -m pytest wallbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args] if cwd == ROOT
        else [sys.executable, "wallbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_benchmark_json_meets_the_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(isinstance(w["why"], str) and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert [w["name"] for w in doc["workloads"]] == [
        "tables", "rtm", "serve", "check-compile"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_prints_every_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--size", "tiny")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {n: u for n, u, _, _ in spec.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in spec.FIGURES[workload]:
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}\s", proc.stdout, re.M)
    assert "error_rate" in proc.stdout


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_reports_layers_and_passes_coverage(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--size", "tiny")
    result = last_json(proc)
    assert result["correct"], proc.stdout
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(spec.PER_LAYER)
    assert "trace.overhead_s" in proc.stdout


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_checks_pass_and_negative_control_fails(workload):
    w = workloads.WORKLOADS[workload]
    state = w.setup(1, "tiny")
    out = w.run(state)
    w.check(state, out)
    assert not [op for op in out.ops if op.failed]
    control = w.perturb(out)
    w.check(state, control)
    assert any(op.failed for op in control.ops)
    # checking the control leaves the real verdicts alone
    assert not [op for op in out.ops if op.failed]


def test_golden_mismatch_counts_as_failed():
    w = workloads.WORKLOADS["check-compile"]
    state = w.setup(0, "tiny")
    name = next(iter(state["golden"]))
    state["golden"][name] = dict(state["golden"][name], launches=-1)
    out = w.run(state)
    w.check(state, out)
    assert [op.name for op in out.ops if op.failed] == [name]


def test_array_digest_has_array_equal_semantics():
    a = np.array([0.0, 1.5], dtype=np.float32)
    b = np.array([-0.0, 1.5], dtype=np.float32)
    assert np.array_equal(a, b)
    assert workloads.array_digest(a) == workloads.array_digest(b)
    assert workloads.array_digest(np.array([np.nan], np.float32)) == "non-finite"


def test_seed_draws_the_rtm_model():
    one = workloads.seeded_model((64, 64), 1, vs=False)
    assert np.array_equal(one.vp, workloads.seeded_model((64, 64), 1, vs=False).vp)
    assert not np.array_equal(one.vp, workloads.seeded_model((64, 64), 2, vs=False).vp)


def test_wrappers_replace_every_binding():
    import repro.propagators.acoustic as acoustic
    import repro.stencil.operators as ops
    from tracer import SpanRecorder

    original = ops.staggered_diff_forward
    rec = SpanRecorder("test")
    rec.install()
    try:
        assert acoustic.staggered_diff_forward is not original
        assert acoustic.staggered_diff_forward.__wrapped__ is original
        u = np.arange(64, dtype=np.float32).reshape(8, 8)
        acoustic.staggered_diff_forward(u, 0, 1.0, order=4)
    finally:
        rec.uninstall()
    assert acoustic.staggered_diff_forward is original
    assert rec.layer_totals()["stencil"]["calls"] == 1
    assert rec.stencil_bytes == 2 * u.nbytes


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "tables", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
