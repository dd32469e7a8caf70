"""End-to-end tracing and metrics for the reproduction harness.

The paper's whole optimization narrative is read off the NVIDIA Visual
Profiler (its Figures 11, 14 and 15 are profiler screenshots); this package
is the reproduction's equivalent instrument: a zero-dependency span/marker
:class:`Tracer` with a thread-safe :class:`MetricsRegistry`, threaded
through the OpenACC runtime, the device simulator, the MPI substrate and
the RTM pipeline, with Chrome/Perfetto ``trace_event`` JSON, JSONL and
text-summary exporters.

Quickstart::

    from repro.trace import Tracer, write_perfetto
    tracer = Tracer()
    with tracer.span("forward_step", cat="phase", shot=3):
        ...
    write_perfetto(tracer, "trace.json")   # open at ui.perfetto.dev

or from the command line: ``python -m repro trace iso2d --out trace.json``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "tracer": ("INSTANT", "NULL_TRACER", "SPAN", "TraceEvent", "Tracer"),
    "export": (
        "summary_text", "to_jsonl", "to_perfetto", "validate_perfetto", "write_jsonl",
        "write_perfetto",
    ),
})
