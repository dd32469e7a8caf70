"""Lint reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json
import re

from repro.analyze.framework import LintResult, Severity


def format_text(result: LintResult, title: str | None = None) -> str:
    """One lint run as an aligned text report."""
    program = result.program
    meta = program.meta
    lines: list[str] = []
    head = title if title is not None else f"repro lint — {meta.name}"
    context = ", ".join(
        part for part in (
            meta.source,
            meta.compiler,
            meta.device and f"on {meta.device}",
        ) if part
    )
    lines.append(f"{head} [{context}]" if context else head)
    counts = program.summary()
    lines.append(
        "  program: "
        + ", ".join(f"{counts.get(k, 0)} {k}" for k in
                    ("enter", "exit", "update", "compute", "wait"))
    )
    for d in result.diagnostics:
        subject = d.kernel or d.var or "-"
        lines.append(
            f"  {str(d.severity):<7} {d.pass_name:<19} {d.rule:<28} "
            f"{subject:<16} {d.message}  [{d.location(program)}]"
        )
    if not result.diagnostics:
        lines.append("  clean: no findings")
    lines.append(
        "  "
        + ", ".join(
            f"{result.count(s)} {str(s)}{'s' if result.count(s) != 1 else ''}"
            for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)
        )
    )
    return "\n".join(lines)


def to_json_dict(result: LintResult) -> dict:
    """One lint run as a JSON-serialisable dict."""
    meta = result.program.meta
    return {
        "name": meta.name,
        "source": meta.source,
        "device": meta.device,
        "compiler": meta.compiler,
        "events": len(result.program),
        "event_counts": result.program.summary(),
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "counts": {
            str(s): result.count(s)
            for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)
        },
        "worst": str(result.worst()) if result.worst() is not None else None,
    }


def format_json(results: list[LintResult]) -> str:
    return json.dumps([to_json_dict(r) for r in results], indent=2)


_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}
_LINE_RE = re.compile(r"line (\d+)")


def _sarif_location(result: LintResult, d) -> dict:
    """Physical location (script line) when the event label carries one,
    logical location (event index) otherwise."""
    program = result.program
    label = None
    if d.event_index is not None and 0 <= d.event_index < len(program.events):
        label = program.events[d.event_index].label
    m = _LINE_RE.search(label or "")
    if m and program.meta.source == "script":
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": program.meta.name},
                "region": {"startLine": int(m.group(1))},
            }
        }
    return {
        "logicalLocations": [
            {"fullyQualifiedName": f"{program.meta.name}: {d.location(program)}"}
        ]
    }


def format_sarif(results: list[LintResult], tool_name: str = "repro-lint") -> str:
    """All findings as one SARIF 2.1.0 run — the format CI code-scanning
    uploads consume (``--format=sarif``)."""
    rules: dict[str, dict] = {}
    sarif_results: list[dict] = []
    for result in results:
        for d in result.diagnostics:
            rule_id = f"{d.pass_name}/{d.rule}"
            rules.setdefault(rule_id, {
                "id": rule_id,
                "name": d.rule,
                "defaultConfiguration": {"level": _SARIF_LEVELS[d.severity]},
            })
            entry = {
                "ruleId": rule_id,
                "level": _SARIF_LEVELS[d.severity],
                "message": {"text": d.message},
                "locations": [_sarif_location(result, d)],
            }
            if d.fix is not None:
                entry["message"]["text"] += f" [fix: {d.fix}]"
            sarif_results.append(entry)
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "informationUri": "https://example.invalid/repro",
                "rules": sorted(rules.values(), key=lambda r: r["id"]),
            }},
            "results": sarif_results,
        }],
    }
    return json.dumps(doc, indent=2)


def report_format(args) -> str:
    """``--format``, with ``--json`` as an alias of ``--format json``
    where the command has it; ``text`` when neither is given."""
    return getattr(args, "format", None) or (
        "json" if getattr(args, "json", False) else "text"
    )


def print_report(args, results, tool_name: str = "repro-lint",
                 text=format_text) -> None:
    """Print ``results`` in the ``--format`` the namespace asks for:
    JSON, SARIF under ``tool_name``, or each result through ``text``,
    blank-line separated."""
    fmt = report_format(args)
    if fmt == "json":
        print(format_json(results))
    elif fmt == "sarif":
        print(format_sarif(results, tool_name=tool_name))
    else:
        for i, result in enumerate(results):
            if i:
                print()
            print(text(result))


__all__ = [
    "format_text",
    "format_json",
    "format_sarif",
    "to_json_dict",
    "report_format",
    "print_report",
]
