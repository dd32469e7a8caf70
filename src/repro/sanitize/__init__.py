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

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "drivers": ("check_sanitize", "sanitize_pipeline", "sanitize_script"),
    "fixit": ("ScriptFix", "apply_fixes", "collect_fixes"),
    "session": ("PASSES", "SanitizeResult", "SanitizeSession"),
})
