"""What the benchmark measures: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 wallbench/run.py --write-spec``) and the smoke tests check the
two agree.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_SECONDS = 6

#: name -> why; the why says whether the workload takes the seed
WORKLOADS: dict[str, str] = {
    "tables": (
        "Estimate-mode Table 3 plus Table 4 rows: pure device accounting "
        "(acc lowering, gpusim pricing, pipeline), no physics. Fixed paper "
        "cases; the seed is unused."
    ),
    "rtm": (
        "Execute-mode one-shot RTM, host-only and attached, on three stencil/"
        "boundary paths; physics dominates. The seed draws the earth model."
    ),
    "serve": (
        "SurveyScheduler, 2 workers, a dead worker, duplicate survey: small "
        "grids where per-call overhead rules. The seed sets faults and backoff."
    ),
    "check-compile": (
        "Cold compile, interpreted, compiled and gated estimate_rtm on six "
        "seed cases: dataflow, validator, lowering and gates. Fixed cases; "
        "the seed is unused."
    ),
}

#: end-to-end metrics every workload reports: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: workload-specific end-to-end figures, printed with the run (medians)
FIGURES: dict[str, tuple[tuple[str, str], ...]] = {
    "tables": (("launches_per_s", "1/s"),),
    "rtm": (("host_mcells_per_s", "Mcell/s"), ("attached_mcells_per_s", "Mcell/s"),
            ("launches_per_s", "1/s")),
    "serve": (("shots_per_h", "1/h"),),
    "check-compile": (("compile_cold_s", "s"), ("interpreted_run_s", "s"),
                      ("compiled_run_s", "s"), ("gated_run_s", "s"),
                      ("launches_per_s", "1/s")),
}

#: layer -> its self-time share metric (self seconds / traced wall)
SHARE_LAYERS = (
    "stencil", "boundary", "propagators", "source", "imaging", "pipeline",
    "acc", "acc.lower", "gpusim.estimate", "gpusim.device", "gpusim.profiler",
    "analyze.lint", "sanitize", "analyze.validate", "compile.record",
    "compile.select", "compile.validate", "compile", "compile.run", "serve",
    "resilience",
)

#: per-layer metrics of the traced run: (name, unit)
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("stencil.calls", "count"),
    ("stencil.bytes_computed", "B"),
    ("boundary.calls", "count"),
    ("propagators.steps", "count"),
    ("acc.launches", "count"),
    ("acc.lower.calls", "count"),
    ("acc.lower.distinct", "count"),
    ("gpusim.estimate.calls", "count"),
    ("gpusim.estimate.distinct", "count"),
    ("analyze.recordings", "count"),
    ("compile.applied", "count"),
    ("compile.skipped", "count"),
    ("compile.breakeven_runs", "runs"),
    ("serve.shots_executed", "count"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.requeued", "count"),
    ("resilience.recoveries", "count"),
    ("trace.overhead_s", "s"),
) + tuple((f"{layer}.self_share", "fraction") for layer in SHARE_LAYERS)

#: counters that must repeat exactly between traced runs of one seed
EXACT_COUNTERS = (
    "acc.launches", "acc.lower.calls", "acc.lower.distinct",
    "gpusim.estimate.calls", "gpusim.estimate.distinct", "stencil.calls",
    "stencil.bytes_computed", "analyze.recordings", "compile.applied",
    "compile.skipped", "serve.requeued",
)

_PHYSICS = ("stencil", "boundary", "propagators", "source", "imaging")
_ACCOUNTING = ("pipeline", "acc", "acc.lower", "gpusim.estimate", "gpusim.device")
_GATES = ("analyze.lint", "sanitize", "analyze.validate")
_COMPILE = ("compile.record", "compile.select", "compile.validate", "compile",
            "compile.run")

#: coverage: layers that must record calls on a workload (the layers whose
#: metrics it should move) ...
MUST_RECORD: dict[str, tuple[str, ...]] = {
    "tables": _ACCOUNTING,
    "rtm": _PHYSICS + _ACCOUNTING,
    "serve": _PHYSICS[:3] + ("serve", "resilience"),
    "check-compile": _ACCOUNTING + ("analyze",) + _GATES + _COMPILE,
}
#: ... and layers predicted bypassed, which must record none
MUST_NOT_RECORD: dict[str, tuple[str, ...]] = {
    "tables": _PHYSICS + _GATES + _COMPILE + ("serve", "resilience"),
    "rtm": _GATES + _COMPILE + ("serve", "resilience"),
    "serve": _GATES + _COMPILE,
    "check-compile": _PHYSICS + ("serve", "resilience"),
}
#: spans (by name suffix) under which these layers must record nothing:
#: host-only RTM bypasses all device accounting
SPAN_MUST_NOT_RECORD = {" host": _ACCOUNTING + ("gpusim.profiler",)}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "wallbench/run.py"],
        "paths": ["wallbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": _better(n)} for n, u in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    if name in ("serve.cache_hit_rate", "compile.applied"):
        return "higher"
    return "lower"


def write_benchmark_json(path: Path = ROOT / "BENCHMARK.json") -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
