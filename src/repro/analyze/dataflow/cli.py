"""Driver behind ``python -m repro deps``.

Builds the dependence graph (and, at ``--ranks N``, the cross-rank
message graph) of a case's recorded schedule, reports the dataflow
engine's findings and optimization opportunities, and exports:

* ``--dot FILE`` — the Graphviz dependence graph of a single target;
* ``--opportunities FILE`` — the schema-validated JSON artifact of
  ``OptimizationOpportunity`` records (the fused-kernel compiler's
  input contract).

Targets mirror ``repro lint``: one seed case, ``all`` (the 12 seed
programs), or ``--script FILE``.
"""

from __future__ import annotations

import json

from repro.analyze.dataflow.absint import interpret_program
from repro.analyze.dataflow.crossrank import check_ranks
from repro.analyze.dataflow.graph import DependenceGraph
from repro.analyze.dataflow.opportunities import (
    OpportunityReport,
    find_opportunities,
    reports_to_json,
    validate_opportunities,
)
from repro.analyze.framework import Severity, parse_severity
from repro.analyze.frontend import program_from_script
from repro.analyze.program import DirectiveProgram, ProgramMeta
from repro.bench.workloads import RECORD_SHAPES, case_targets, space_order
from repro.utils.errors import ConfigurationError


def _record_case(
    physics: str, ndim: int, mode: str, nt: int, ranks: int
) -> list[DirectiveProgram]:
    from repro.analyze.drivers import record_pipeline_program
    from repro.sanitize.drivers import sanitize_pipeline

    kw = dict(
        nt=nt, snap_period=4, space_order=space_order(ndim),
        boundary_width=8, name=f"{physics.upper()} {ndim}D ({mode})",
    )
    if ranks <= 1:
        return [record_pipeline_program(
            physics, RECORD_SHAPES[ndim], mode, **kw
        )]
    return sanitize_pipeline(
        physics, RECORD_SHAPES[ndim], mode, ranks=ranks, **kw
    ).programs


def deps_targets(args) -> list[tuple[str, str | None, list[DirectiveProgram]]]:
    """Resolve the CLI namespace into ``(label, mode, per-rank programs)``
    targets."""
    ranks = int(getattr(args, "ranks", 1) or 1)
    if getattr(args, "script", None):
        with open(args.script, encoding="utf-8") as fh:
            program = program_from_script(
                fh.read(), meta=ProgramMeta(source="script", name=args.script)
            )
        return [(args.script, None, [program])]
    return [
        (
            f"{physics}{ndim}d", mode,
            _record_case(physics, ndim, mode, args.nt, ranks),
        )
        for physics, ndim, mode in case_targets(
            getattr(args, "case", None), args.mode, "deps"
        )
    ]


def run_deps_command(args) -> int:
    """``python -m repro deps`` entry point (argparse namespace in)."""
    targets = deps_targets(args)
    if getattr(args, "dot", None) and len(targets) != 1:
        raise ConfigurationError(
            "--dot exports one graph: give a single case and --mode"
        )
    verify = not getattr(args, "no_verify", False)
    reports: list[OpportunityReport] = []
    docs: list[dict] = []
    worst_error = False
    for label, mode, programs in targets:
        graph = DependenceGraph(programs)
        crossrank = check_ranks(programs) if len(programs) > 1 else None
        # one interpretation (and its loop regions) serves both the
        # opportunity scan and the report; a multi-rank graph is not the
        # single-program graph the scan reads
        coherence = interpret_program(programs[0])
        report = find_opportunities(
            programs[0], graph=graph if len(programs) == 1 else None,
            summary=coherence, verify=verify,
        )
        report.case = label
        report.mode = mode
        report.program_sha = programs[0].sha()
        reports.append(report)
        counts = graph.summary()
        doc = {
            "case": label,
            "mode": mode,
            "ranks": len(programs),
            "events": counts.get("events", 0),
            "edges": {
                k: v for k, v in sorted(counts.items()) if k != "events"
            },
            "loops": [
                {"start": r.start, "period": r.period, "reps": r.reps}
                for r in coherence.regions
            ],
            "opportunities": len(report.opportunities),
            "verified_opportunities": len(report.verified()),
            "crossrank": (
                [d.to_dict() for d in crossrank.diagnostics]
                if crossrank is not None else []
            ),
        }
        docs.append(doc)
        if crossrank is not None and any(
            d.severity >= Severity.ERROR for d in crossrank.diagnostics
        ):
            worst_error = True
        if getattr(args, "dot", None):
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
    if getattr(args, "opportunities", None):
        artifact = reports_to_json(reports)
        validate_opportunities(artifact)
        with open(args.opportunities, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"targets": docs}, indent=2))
    else:
        for doc in docs:
            _print_target(doc)
    fail_on = getattr(args, "fail_on", "none") or "none"
    if fail_on.lower() == "none":
        return 0
    threshold = parse_severity(fail_on)
    if threshold <= Severity.ERROR and worst_error:
        return 1
    return 0


def _print_target(doc: dict) -> None:
    mode = f" ({doc['mode']})" if doc.get("mode") else ""
    title = f"deps {doc['case']}{mode} x{doc['ranks']}"
    print(title)
    print("-" * len(title))
    edges = ", ".join(f"{k}={v}" for k, v in doc["edges"].items())
    print(f"  events {doc['events']}, edges: {edges}")
    for loop in doc["loops"]:
        print(
            f"  loop @ {loop['start']}: period {loop['period']} "
            f"x {loop['reps']} reps"
        )
    print(
        f"  opportunities: {doc['opportunities']} "
        f"({doc['verified_opportunities']} verified)"
    )
    for d in doc["crossrank"]:
        print(f"  [{d['severity']}] {d['rule']}: {d['message']}")


__all__ = ["run_deps_command", "deps_targets"]
