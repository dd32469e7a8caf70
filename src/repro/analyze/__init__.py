"""Static analyzer & lint passes for OpenACC directive programs.

Every bug class the paper fights by hand — data re-transferred each step
instead of staying resident (S5.1), full-array updates where partial
ghost-node extents suffice, ``independent`` asserted on loops with carried
writes, async queues racing on shared wavefields (S6), ``kernels``
vectorizing a non-contiguous loop under CRAY (Figs 8-9) — is statically
detectable from the directive sequence plus the kernels' read/write sets.
This package detects them *before* a run:

* :mod:`~repro.analyze.program` — the DirectiveProgram IR, an ordered
  event sequence with per-kernel read/write sets and async-queue ids;
* :mod:`~repro.analyze.recorder` — the Runtime recording hook, so real
  pipeline runs emit their own programs;
* :mod:`~repro.analyze.frontend` — build programs from ``!$acc`` scripts
  via :mod:`repro.acc.parser` (with ``!$lint`` sidecar annotations);
* four passes — :mod:`~repro.analyze.present_lifetime`,
  :mod:`~repro.analyze.async_race`, :mod:`~repro.analyze.schedule_lint`,
  :mod:`~repro.analyze.transfer` — over the shared
  :mod:`~repro.analyze.framework` (severity-ranked diagnostics);
* :mod:`~repro.analyze.rules` — the shared bug-class registry: each
  coherence rule carries its dynamic (sanitizer) pass, its static
  ``DF*`` id, one message template, and a docs anchor;
* :mod:`~repro.analyze.dataflow` — the whole-program dataflow engine:
  dependence graph, fixed-point coherence interpreter (``lint --deep``),
  cross-rank deadlock detection, and verified fusion/hoisting
  opportunities (``python -m repro deps``);
* :mod:`~repro.analyze.cli` — ``python -m repro lint`` with text/JSON
  reporters and ``--fail-on`` gating;
* :mod:`~repro.analyze.drivers` — record-and-lint helpers plus the
  pipeline's opt-in strict mode (``GPUOptions.strict_lint``, which now
  runs the dataflow engine's proofs before the real run starts).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "async_race": ("AsyncRacePass",),
    "dataflow": (
        "DataflowCoherencePass", "DependenceGraph", "OptimizationOpportunity", "check_ranks",
        "find_opportunities", "interpret_program",
    ),
    "drivers": ("check_schedule", "lint_pipeline", "record_pipeline_program"),
    "framework": (
        "Diagnostic", "LintPass", "LintResult", "Severity", "deep_passes", "default_passes",
        "lint_program", "parse_severity", "run_passes",
    ),
    "rules": ("REGISTRY", "rule"),
    "frontend": ("program_from_script",),
    "present_lifetime": ("PresentLifetimePass",),
    "program": ("AccEvent", "DirectiveProgram", "ProgramMeta"),
    "recorder": ("ProgramRecorder",),
    "report": ("format_json", "format_text", "to_json_dict"),
    "schedule_lint": ("ScheduleLintPass",),
    "transfer": ("TransferEfficiencyPass",),
})
