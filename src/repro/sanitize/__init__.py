"""repro.sanitize — the dynamic driver of the coherence engine.

Where :mod:`repro.analyze` proves coherence rules statically over a whole
directive program (loop closure included), this package checks what a
run actually did: the session (:mod:`repro.sanitize.session`) steps the
same engine (:class:`~repro.analyze.dataflow.absint.CoherenceEngine`)
once over each rank's events as they are recorded or replayed, adds the
one check only a live run can make (the decomposition's halo against the
stencil radius), and reports findings as the lint machinery's
:class:`~repro.analyze.framework.Diagnostic` records — with
machine-applicable :mod:`~repro.sanitize.fixit` edits for script-anchored
findings. ``python -m repro sanitize`` is the CLI; ``GPUOptions.sanitize``
gates real runs on a sanitized dry run.
"""

from repro.sanitize.drivers import (
    check_sanitize,
    sanitize_pipeline,
    sanitize_script,
)
from repro.sanitize.fixit import ScriptFix, apply_fixes, collect_fixes
from repro.sanitize.session import PASSES, SanitizeResult, SanitizeSession

__all__ = [
    "SanitizeSession",
    "SanitizeResult",
    "PASSES",
    "ScriptFix",
    "apply_fixes",
    "collect_fixes",
    "sanitize_pipeline",
    "sanitize_script",
    "check_sanitize",
]
