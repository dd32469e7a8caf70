"""Driver behind ``python -m repro compile``.

Compiles seed cases (one, or ``all`` for the 12 seed programs) through
the fused-kernel lowering pipeline, prints what was applied and what was
refused, and optionally:

* ``--opportunities FILE`` — consume a ``repro deps`` artifact instead
  of running the dataflow engine in-process (hash-gated: a stale
  artifact is an error, not a fallback);
* ``--plan FILE`` — honour a ``repro tune`` plan for launch choices,
  including the shared configuration of fused launches;
* ``--bench FILE`` — wall-clock interpreted vs compiled and write the
  ``BENCH_step.json`` document.

Exit status: 0 when every target compiled and verified, 1 on a
compilation/verification failure, 2 on a stale or malformed artifact. A
malformed case spelling raises
:class:`~repro.utils.errors.ConfigurationError` (exit 2 under ``python -m
repro``).
"""

from __future__ import annotations

import json

from repro.bench.workloads import case_targets, is_all
from repro.compile.bench import DEFAULT_REPEATS, bench_document, measure_case
from repro.compile.compiler import (
    CompiledPipeline,
    CompileRequest,
    _default_runtime_factory,
    compile_case,
)
from repro.core.config import GPUOptions
from repro.utils.errors import CompileError, StaleArtifactError

__all__ = ["run_compile_command", "compile_targets"]


def compile_targets(args) -> list[tuple[str, CompileRequest]]:
    """Resolve the CLI namespace into ``(label, request)`` targets; one
    named case keeps its spelling in the label."""
    nt = int(getattr(args, "nt", 24) or 24)
    targets = []
    for physics, ndim, mode in case_targets(args.case, args.mode, "compile"):
        case = f"{physics}{ndim}d"
        label = case if is_all(args.case) else args.case
        targets.append(
            (f"{label} ({mode})", CompileRequest.from_case(case, mode, nt=nt))
        )
    return targets


def _compile_one(request: CompileRequest, artifact, plan) -> CompiledPipeline:
    return compile_case(request, plan=plan, artifact=artifact)


def _describe(label: str, compiled: CompiledPipeline, bench: dict | None) -> dict:
    doc = {
        "case": label,
        "name": compiled.request.name,
        "program_sha": compiled.program_sha,
        "verified": compiled.verified,
        "applied": [a.to_json() for a in compiled.applied],
        "skipped": {
            reason: count
            for reason, count in sorted(_skip_counts(compiled).items())
        },
        "launches_per_step": compiled.launches_per_step(),
    }
    if bench is not None:
        doc["bench"] = bench
    return doc


def _skip_counts(compiled: CompiledPipeline) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, _, reason in compiled.skipped:
        out[reason] = out.get(reason, 0) + 1
    return out


#: stable ledger keys for the selection gauntlet's refusal reasons; a
#: reason outside this table (dynamic text) is sanitized instead
_SKIP_KEYS = {
    "spans a phase boundary": "phase_boundary",
    "conflicts with an already-selected opportunity": "conflict",
    "periodic duplicate of a selected template offset": "periodic_duplicate",
    "not verified by the dataflow engine": "unverified",
    "failed the replay re-proof": "replay_refused",
    "refused by the translation validator": "validator_refused",
}


def _skip_metric_key(reason: str) -> str:
    key = _SKIP_KEYS.get(reason)
    if key is None:
        key = "".join(
            c if c.isalnum() else "_" for c in reason.lower()
        ).strip("_")
    return f"compile_skipped_{key}"


def _selection_metrics(compiled: CompiledPipeline) -> dict[str, float]:
    """Per-run selection outcome metrics (refusals by reason, plus the
    cross-phase admissions the translation validator unlocked)."""
    metrics = {
        _skip_metric_key(reason): float(count)
        for reason, count in _skip_counts(compiled).items()
    }
    metrics["applied_cross_phase"] = float(
        sum(1 for a in compiled.applied if "->" in a.phase)
    )
    return metrics


def _print_target(doc: dict) -> None:
    title = f"compile {doc['case']}"
    print(title)
    print("-" * len(title))
    launches = doc["launches_per_step"]
    print(
        f"  verified: {doc['verified']}  sha {doc['program_sha'][:12]}…  "
        f"launches/step {launches['interpreted']} -> {launches['compiled']}"
    )
    for a in doc["applied"]:
        extra = ""
        if a["modelled"]:
            extra = (
                f"  (model: {a['modelled']['saved_seconds']:.3e} s/launch saved)"
            )
        what = "+".join(a["kernels"]) if a["kernels"] else (a["var"] or "")
        print(f"  applied {a['kind']} [{a['phase']}] {what}{extra}")
    for reason, count in doc["skipped"].items():
        print(f"  skipped {count}: {reason}")
    if "bench" in doc:
        b = doc["bench"]
        print(
            f"  wall-clock/step: interpreted {b['interpreted_step_s']:.3e} s, "
            f"compiled {b['compiled_step_s']:.3e} s "
            f"(speedup {b['speedup']:.2f}x)"
        )


def run_compile_command(args) -> int:
    """``python -m repro compile`` entry point (argparse namespace in)."""
    from repro.observe.ledger import append_run, ledger_path_from_args
    from repro.observe.runlog import RunLog

    plan = None
    if getattr(args, "plan", None):
        from repro.optim.autotune import load_plan

        plan = load_plan(args.plan)
    artifact = None
    if getattr(args, "opportunities", None):
        with open(args.opportunities, encoding="utf-8") as fh:
            artifact = json.load(fh)
    targets = compile_targets(args)
    repeats = int(getattr(args, "repeats", DEFAULT_REPEATS) or DEFAULT_REPEATS)
    want_bench = bool(getattr(args, "bench", None))
    ledger_path = ledger_path_from_args(args)
    docs: list[dict] = []
    bench_cases: dict[str, dict] = {}
    failures = 0
    nt = int(getattr(args, "nt", 24) or 24)
    for label, request in targets:
        runlog = RunLog(
            command="compile", case=label, mode=request.mode, nt=request.nt
        )
        with runlog.activate():
            try:
                compiled = _compile_one(request, artifact, plan)
            except StaleArtifactError as exc:
                print(f"compile {label}: STALE ARTIFACT\n  {exc}")
                return 2
            except CompileError as exc:
                print(f"compile {label}: FAILED\n  {exc}")
                failures += 1
                continue
            bench = None
            if want_bench:
                options = GPUOptions()
                bench = measure_case(
                    request,
                    compiled,
                    options,
                    _default_runtime_factory(options, None),
                    repeats=repeats,
                )
                bench_cases[compiled.request.name] = bench
            metrics = {
                "applied": float(len(compiled.applied)),
                "launches_interpreted": float(
                    compiled.launches_per_step()["interpreted"]
                ),
                "launches_compiled": float(
                    compiled.launches_per_step()["compiled"]
                ),
                **_selection_metrics(compiled),
            }
            if bench is not None:
                metrics["interpreted_step_s"] = bench["interpreted_step_s"]
                metrics["compiled_step_s"] = bench["compiled_step_s"]
            append_run(ledger_path, runlog, metrics, plan=plan)
        docs.append(_describe(label, compiled, bench))
    if want_bench and bench_cases:
        doc = bench_document(
            bench_cases, nt=nt, snap_period=4, repeats=repeats
        )
        with open(args.bench, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"targets": docs}, indent=2))
    else:
        for doc in docs:
            _print_target(doc)
    return 1 if failures else 0
