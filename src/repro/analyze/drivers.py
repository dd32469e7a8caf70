"""Record-and-lint drivers: run a pipeline schedule, lint its program.

``record_pipeline_program`` drives the Figure-4 offload pipeline in
estimate mode (no physics) with a :class:`ProgramRecorder` attached, so a
case's full directive sequence — data allocation, forward steps, the
offload/upload swap, backward steps, finalize — becomes a lintable
:class:`~repro.analyze.program.DirectiveProgram`.

``check_schedule`` is the pipeline's opt-in strict mode
(``GPUOptions.strict_lint``): it records a short dry run of the same
configuration and raises :class:`~repro.utils.errors.AnalysisError` if the
analyzer reports findings at or above the gate severity, *before* the real
run starts.
"""

from __future__ import annotations

from repro.analyze.framework import (
    LintResult,
    Severity,
    lint_program,
    refuse,
)
from repro.analyze.program import DirectiveProgram
from repro.analyze.recorder import ProgramRecorder

#: step/snapshot caps of the strict-mode dry run — the directive pattern is
#: periodic, so a short run exhibits every per-step bug class
STRICT_NT = 16
STRICT_SNAP = 4


def record_pipeline_program(
    physics: str,
    shape: tuple[int, ...],
    mode: str = "rtm",
    nt: int = 24,
    snap_period: int = 4,
    options=None,
    platform=None,
    nreceivers: int = 16,
    space_order: int = 8,
    boundary_width: int = 8,
    pml_variant: str = "restructured",
    snapshot_decimate: int = 4,
    name: str | None = None,
) -> DirectiveProgram:
    """Run one case's offload schedule in estimate mode and return the
    recorded DirectiveProgram."""
    from repro.core.config import GPUOptions
    from repro.core.modeling import _build_runtime
    from repro.core.pipeline import OffloadPipeline, run_pipeline
    from repro.core.platform import CRAY_K40

    options = options if options is not None else GPUOptions()
    platform = platform if platform is not None else CRAY_K40
    rt = _build_runtime(options, platform)
    recorder = ProgramRecorder(
        name=name or f"{physics}-{len(shape)}d-{mode}"
    )
    rt.attach_recorder(recorder)
    pipeline = OffloadPipeline(
        rt,
        physics,
        shape,
        nreceivers=nreceivers,
        space_order=space_order,
        boundary_width=boundary_width,
        options=options,
        pml_variant=pml_variant,
    )
    run_pipeline(pipeline, mode, nt, snap_period, snapshot_decimate)
    return recorder.program


def lint_pipeline(
    physics: str,
    shape: tuple[int, ...],
    mode: str = "rtm",
    passes=None,
    **kwargs,
) -> LintResult:
    """Record one case's schedule and run the passes over it (default:
    the four local passes; ``deep_passes()`` adds the dataflow engine)."""
    return lint_program(
        record_pipeline_program(physics, shape, mode, **kwargs), passes
    )


def check_schedule(
    physics: str,
    shape: tuple[int, ...],
    mode: str,
    options,
    platform,
    nreceivers: int = 16,
    space_order: int = 8,
    boundary_width: int = 8,
    pml_variant: str = "branchy",
    fail_on: Severity = Severity.ERROR,
) -> LintResult:
    """Strict-mode gate: lint a short dry run of this configuration —
    including the whole-program dataflow engine's coherence proofs — and
    raise :class:`AnalysisError` on findings at/above ``fail_on``."""
    from repro.analyze.framework import deep_passes

    result = lint_pipeline(
        physics,
        shape,
        mode,
        passes=deep_passes(),
        nt=STRICT_NT,
        snap_period=STRICT_SNAP,
        options=options,
        platform=platform,
        nreceivers=nreceivers,
        space_order=space_order,
        boundary_width=boundary_width,
        pml_variant=pml_variant,
        name=f"{physics}-{len(shape)}d-{mode} (strict dry run)",
    )
    refuse(
        result.diagnostics, fail_on,
        f"strict lint refused the {physics}-{len(shape)}d {mode} schedule",
    )
    return result


__all__ = [
    "record_pipeline_program",
    "lint_pipeline",
    "check_schedule",
    "STRICT_NT",
    "STRICT_SNAP",
]
