"""The multi-rank scaling observatory over the full seed-case set.

Sweeps every seed case's executed :class:`~repro.core.multigpu
.MultiGpuPipeline` over ranks {1, 2, 4, 8}, reduces each merged trace to
overlap fractions and a critical-path estimate, asserts the cluster
model's qualitative scaling shape, and publishes ``BENCH_scaling.json``
— the artifact of the ROADMAP's multi-GPU scaling-study item.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import emit, run_once
from repro.bench.workloads import SEED_CASES
from repro.observe.scaling import DEFAULT_RANKS, run_scale_sweep

OUT = "BENCH_scaling.json"


def _sweep() -> dict:
    return run_scale_sweep(cases=SEED_CASES, ranks=DEFAULT_RANKS,
                           mode="rtm", ledger_path=None)


@pytest.fixture(scope="module")
def doc():
    return _sweep()


def test_scaling_regenerates(benchmark):
    doc = run_once(benchmark, _sweep)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    lines = []
    for name, case in doc["cases"].items():
        for p in case["points"]:
            speedup = p["speedup"] if p["speedup"] is not None else 1.0
            lines.append(
                f"  {name:<6} ranks {p['ranks']:>2}: "
                f"{p['step_seconds'] * 1e3:8.4f} ms/step "
                f"speedup {speedup:5.2f} "
                f"comm overlap {100 * p['comm_overlap_fraction']:5.1f}%"
            )
    emit(
        "Multi-rank scaling observatory (executed pipeline, ranks 1-8)",
        "\n".join(lines) + f"\n  wrote {OUT}",
    )
    assert len(doc["cases"]) == len(SEED_CASES)


class TestShape:
    @pytest.mark.parametrize("name", SEED_CASES)
    def test_shape_holds(self, doc, name):
        case = doc["cases"][name]
        assert case["shape_ok"], case["violations"]

    @pytest.mark.parametrize("name", SEED_CASES)
    def test_every_point_carries_per_rank_overlap(self, doc, name):
        for p in doc["cases"][name]["points"]:
            assert len(p["per_rank"]) == p["ranks"]
            for rank in p["per_rank"]:
                assert 0.0 <= rank["comm_overlap_fraction"] <= 1.0
                assert 0.0 <= rank["transfer_overlap_fraction"] <= 1.0

    @pytest.mark.parametrize("name", SEED_CASES)
    def test_comm_appears_beyond_one_rank(self, doc, name):
        points = {p["ranks"]: p for p in doc["cases"][name]["points"]}
        assert points[1]["comm_s"] == 0.0
        for ranks in (2, 4, 8):
            assert points[ranks]["comm_s"] > 0.0

    def test_overlap_visible_somewhere(self, doc):
        """The observatory must actually observe hidden comm: at least one
        multi-rank point shows a positive comm-overlap fraction."""
        fractions = [
            p["comm_overlap_fraction"]
            for case in doc["cases"].values()
            for p in case["points"]
            if p["ranks"] > 1
        ]
        assert any(f > 0.0 for f in fractions)
