"""Driver behind ``python -m repro lint``.

Three targets:

* ``lint CASE`` — record one seed case's offload schedule (estimate mode,
  reduced grid) and lint it; ``--mode`` picks modeling/rtm/both;
* ``lint all`` — the 12 seed-case programs (6 cases x both modes);
* ``lint --script FILE`` — lint a ``!$acc`` directive script without
  running anything.

``--fail-on SEVERITY`` exits non-zero when any finding reaches the gate
(default ``error``; ``none`` always exits 0); ``--json`` emits the
machine-readable report.

``--deep`` adds the whole-program dataflow engine
(:mod:`repro.analyze.dataflow`) to the pass list — fixed-point coherence
proofs with ``DF*`` codes and event-chain witnesses — and appends a
ledger record (diagnostic + opportunity counts) so ``repro report
--check`` can flag regressions in statically-proven schedule quality.
"""

from __future__ import annotations

from repro.analyze.framework import (
    LintResult,
    Severity,
    deep_passes,
    fail_on_status,
    lint_program,
)
from repro.analyze.frontend import program_from_script
from repro.analyze.program import ProgramMeta
from repro.bench.workloads import RECORD_SHAPES, case_targets, space_order


def lint_case(
    physics: str,
    ndim: int,
    mode: str,
    nt: int = 24,
    compiler: str | None = None,
    deep: bool = False,
) -> LintResult:
    """Record one seed case at a reduced grid and lint it."""
    from repro.acc.compiler import compiler_named
    from repro.analyze.drivers import lint_pipeline
    from repro.core.config import GPUOptions

    options = GPUOptions()
    if compiler is not None:
        options.compiler = compiler_named(compiler)
    return lint_pipeline(
        physics,
        RECORD_SHAPES[ndim],
        mode,
        nt=nt,
        snap_period=4,
        options=options,
        space_order=space_order(ndim),
        boundary_width=8,
        name=f"{physics.upper()} {ndim}D ({mode})",
        passes=deep_passes() if deep else None,
    )


def lint_targets(args) -> list[LintResult]:
    """Resolve the CLI namespace into one or more lint results."""
    deep = bool(getattr(args, "deep", False))
    if getattr(args, "script", None):
        with open(args.script, encoding="utf-8") as fh:
            program = program_from_script(
                fh.read(), meta=ProgramMeta(source="script", name=args.script)
            )
        return [lint_program(program, deep_passes() if deep else None)]
    return [
        lint_case(physics, ndim, mode, nt=args.nt, compiler=args.compiler,
                  deep=deep)
        for physics, ndim, mode in case_targets(
            getattr(args, "case", None), args.mode, "lint"
        )
    ]


def lint_ledger_metrics(results: list[LintResult]) -> dict[str, float]:
    """The statically-proven-quality metrics a ``lint --deep`` run records:
    diagnostic counts by severity, ``DF*`` findings, and the opportunity
    pass's verified fusion/hoisting count."""
    from repro.analyze.dataflow import find_opportunities

    diags = [d for r in results for d in r.diagnostics]
    opportunities = 0
    verified = 0
    for r in results:
        report = find_opportunities(r.program)
        opportunities += len(report.opportunities)
        verified += len(report.verified())
    return {
        "lint_errors": float(sum(
            1 for d in diags if d.severity == Severity.ERROR
        )),
        "lint_warnings": float(sum(
            1 for d in diags if d.severity == Severity.WARNING
        )),
        "lint_info": float(sum(
            1 for d in diags if d.severity == Severity.INFO
        )),
        "df_findings": float(sum(
            1 for d in diags if d.rule.startswith("DF")
        )),
        "opportunities": float(opportunities),
        "verified_opportunities": float(verified),
    }


def _append_lint_ledger(args, results: list[LintResult]) -> None:
    from repro.observe.ledger import append_run, ledger_path_from_args
    from repro.observe.runlog import RunLog

    path = ledger_path_from_args(args)
    if path is None:
        return
    case = getattr(args, "case", None) or getattr(args, "script", None)
    runlog = RunLog(
        command="lint",
        case=case,
        mode=getattr(args, "mode", None),
        ranks=1,
    )
    append_run(path, runlog, lint_ledger_metrics(results))


def run_lint_command(args) -> int:
    """``python -m repro lint`` entry point (argparse namespace in)."""
    from repro.analyze.report import print_report

    results = lint_targets(args)
    print_report(args, results)
    if getattr(args, "deep", False):
        _append_lint_ledger(args, results)
    return fail_on_status(results, args.fail_on)


__all__ = [
    "run_lint_command",
    "lint_targets",
    "lint_case",
    "lint_ledger_metrics",
]
