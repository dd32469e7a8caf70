"""Sanitize drivers: run a (multi-rank) pipeline under the sanitizer.

``sanitize_pipeline`` drives the executed per-rank multi-GPU path
(:class:`~repro.core.multigpu.MultiGpuPipeline`) in estimate mode with a
:class:`~repro.sanitize.session.SanitizeSession` attached to every rank's
runtime and the halo exchanger — so coherence, ghost geometry and
send-before-sync ordering are all checked against the schedule the run
actually executed. ``sanitize_script`` replays a parsed ``!$acc``
script through the same checks without running anything.

``check_sanitize`` is the pipeline's opt-in strict mode
(``GPUOptions.sanitize``): it sanitizes a short dry run of the
configuration and raises :class:`~repro.utils.errors.AnalysisError` on
error-level hazards before the real run starts — the sanitizer's analogue
of ``strict_lint``/:func:`repro.analyze.drivers.check_schedule`.
"""

from __future__ import annotations

from repro.analyze.framework import Severity, refuse
from repro.sanitize.session import SanitizeResult, SanitizeSession

#: dry-run caps of the strict gate — the exchange pattern is periodic, so a
#: short run exhibits every per-step hazard
STRICT_NT = 8
STRICT_SNAP = 4


def sanitize_pipeline(
    physics: str,
    shape: tuple[int, ...],
    mode: str = "rtm",
    ranks: int = 1,
    nt: int = 8,
    snap_period: int = 4,
    options=None,
    platform=None,
    space_order: int = 8,
    boundary_width: int = 8,
    nreceivers: int = 16,
    halo_width: int | None = None,
    protocol=None,
    name: str | None = None,
) -> SanitizeResult:
    """Run one case's per-rank offload schedule under the sanitizer."""
    from repro.core.config import GPUOptions
    from repro.core.multigpu import MultiGpuPipeline
    from repro.core.platform import CRAY_K40

    options = options if options is not None else GPUOptions()
    platform = platform if platform is not None else CRAY_K40
    session = SanitizeSession(
        nranks=ranks,
        name=name or f"{physics}-{len(shape)}d-{mode} x{ranks}",
    )
    pipeline = MultiGpuPipeline(
        physics,
        shape,
        ranks,
        platform=platform,
        options=options,
        space_order=space_order,
        boundary_width=boundary_width,
        nreceivers=nreceivers,
        halo_width=halo_width,
        session=session,
        protocol=protocol,
    )
    if mode == "rtm":
        pipeline.run_rtm(nt, snap_period)
    else:
        pipeline.run_modeling(nt, snap_period)
    return session.result()


def sanitize_script(
    text: str, name: str = "script", stencil_radius: int | None = None
) -> SanitizeResult:
    """Replay an ``!$acc`` directive script through the sanitizer."""
    from repro.analyze.frontend import program_from_script
    from repro.analyze.program import ProgramMeta

    program = program_from_script(
        text, meta=ProgramMeta(source="script", name=name)
    )
    session = SanitizeSession(
        nranks=1, name=name, stencil_radius=stencil_radius
    )
    session.replay(program)
    return session.result()


def check_sanitize(
    physics: str,
    shape: tuple[int, ...],
    mode: str,
    options,
    platform,
    ranks: int = 1,
    space_order: int = 8,
    boundary_width: int = 8,
    fail_on: Severity = Severity.ERROR,
) -> SanitizeResult:
    """Strict-mode gate: sanitize a short dry run of this configuration and
    raise :class:`AnalysisError` on hazards at/above ``fail_on``."""
    result = sanitize_pipeline(
        physics,
        shape,
        mode,
        ranks=ranks,
        nt=STRICT_NT,
        snap_period=STRICT_SNAP,
        options=options,
        platform=platform,
        space_order=space_order,
        boundary_width=boundary_width,
        name=f"{physics}-{len(shape)}d-{mode} (sanitize dry run)",
    )
    refuse(
        result.diagnostics, fail_on,
        f"sanitizer refused the {physics}-{len(shape)}d {mode} schedule",
        noun="hazard(s)",
    )
    return result


__all__ = [
    "sanitize_pipeline",
    "sanitize_script",
    "check_sanitize",
    "STRICT_NT",
    "STRICT_SNAP",
]
