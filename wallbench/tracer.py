"""Per-layer span recorder for the traced benchmark run.

The recorder wraps public functions of each layer from outside: nothing
under ``src/`` is edited.  A wrapped function is replaced at *every*
binding the interpreter holds — the defining module, every ``repro.*``
module that imported it by name, and every class that defines a wrapped
method — so a propagator that did ``from repro.stencil.operators import
staggered_diff_forward`` records its calls too.

Two kinds of frames:

* **coarse spans** (table row, RTM case x mode, shot, compile stage,
  gate) are kept one by one with name, layer, start, end, parent span
  and run id;
* **hot leaves** (persona lowering, the kernel cost model, stencil
  operators, ...) run up to ~10^6 times per run, so they are aggregated
  as count / total / self seconds under their nearest coarse span.

Self time of a frame is its duration minus the time covered by wrapped
children.  Everything stays in memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

#: (layer, "module:qualname", kind); kind "leaf" aggregates, "span" keeps
#: every call, "count" counts calls without timing them.  Methods are
#: written "module:Class.method" and patched on every class of the
#: hierarchy that defines the method itself.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("stencil", "repro.stencil.operators:staggered_diff_forward", "leaf"),
    ("stencil", "repro.stencil.operators:staggered_diff_backward", "leaf"),
    ("stencil", "repro.stencil.operators:second_derivative", "leaf"),
    ("stencil", "repro.stencil.operators:laplacian", "leaf"),
    ("boundary", "repro.boundary.cpml:CPML.damp", "leaf"),
    ("propagators", "repro.propagators.base:Propagator.step", "leaf"),
    ("propagators", "repro.propagators.base:Propagator.inject_pressure", "leaf"),
    ("source", "repro.source.acquisition:Receivers.record", "leaf"),
    ("source", "repro.source.acquisition:Receivers.inject_traces", "leaf"),
    ("imaging", "repro.core.imaging:cross_correlation_update", "leaf"),
    ("imaging", "repro.core.imaging:illumination_update", "leaf"),
    ("imaging", "repro.core.imaging:normalize_image", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.allocate_forward", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.forward_step", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.snapshot_to_host", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.swap_to_backward", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.load_forward_snapshot", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.imaging_step", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.backward_step", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.finalize", "leaf"),
    ("pipeline", "repro.core.pipeline:OffloadPipeline.gpu_times", "leaf"),
    ("acc", "repro.acc.runtime:Runtime.compute", "leaf"),
    ("acc", "repro.acc.runtime:Runtime.kernels", "leaf"),
    ("acc", "repro.acc.runtime:Runtime.parallel", "leaf"),
    ("acc.lower", "repro.acc.compiler:CompilerPersona.lower", "leaf"),
    ("gpusim.estimate", "repro.gpusim.kernelmodel:estimate_kernel_time", "leaf"),
    ("gpusim.estimate", "repro.gpusim.occupancy:occupancy", "leaf"),
    ("gpusim.device", "repro.gpusim.device:Device.launch", "leaf"),
    ("gpusim.device", "repro.gpusim.device:Device.h2d", "leaf"),
    ("gpusim.device", "repro.gpusim.device:Device.d2h", "leaf"),
    ("gpusim.profiler", "repro.gpusim.profiler:Profiler.report", "leaf"),
    ("analyze", "repro.acc.runtime:Runtime.attach_recorder", "count"),
    ("analyze.lint", "repro.analyze.drivers:check_schedule", "span"),
    ("sanitize", "repro.sanitize.drivers:check_sanitize", "span"),
    ("analyze.validate", "repro.analyze.validate_cli:check_validate", "span"),
    ("compile.record", "repro.compile.compiler:record_segments", "span"),
    ("compile.select", "repro.compile.compiler:select_opportunities", "span"),
    ("compile.validate", "repro.compile.validate:validate_compiled", "span"),
    ("compile", "repro.compile.compiler:compile_case", "span"),
    ("compile.run", "repro.compile.compiler:BoundPipeline.run", "span"),
    ("serve", "repro.serve.service:SurveyScheduler.run", "span"),
    ("resilience", "repro.resilience.recovery:ResilientPipeline.run_rtm", "span"),
)

#: functions whose calls also get a distinct-input count: the most a
#: pricing memo could skip is ``1 - distinct / calls``
DISTINCT_FUNCS = ("lower", "estimate_kernel_time")

#: stencil functions whose argument/result arrays give computed bytes
#: (``laplacian`` only dispatches to ``second_derivative``)
_BYTE_FUNCS = frozenset(
    ("staggered_diff_forward", "staggered_diff_backward", "second_derivative")
)

_FIELDS: dict[type, tuple[str, ...]] = {}


def freeze(value: Any, memo: dict[int, tuple[Any, Any]]) -> Any:
    """A hashable key equal for equal argument *values*.

    ``KernelWorkload`` is a mutable dataclass (unhashable), so dataclasses
    are keyed on their field values; frozen ones are memoised in ``memo``
    by identity (the persona, spec and toolkit objects are long-lived).
    """
    cls = type(value)
    names = _FIELDS.get(cls)
    if names is None and dataclasses.is_dataclass(cls):
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    if names is not None:
        frozen = cls.__dataclass_params__.frozen
        if frozen:
            hit = memo.get(id(value))
            if hit is not None and hit[0] is value:
                return hit[1]
        key = (cls.__name__,) + tuple(freeze(getattr(value, n), memo) for n in names)
        if frozen:
            memo[id(value)] = (value, key)
        return key
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v, memo) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), freeze(v, memo)) for k, v in value.items()))
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class SpanRecorder:
    """In-memory spans and per-(span, function) aggregates of one run.

    A wrapper's own bookkeeping (argument keys, aggregation) runs outside
    the interval it times but is charged to its caller as child time, so
    it lands in no layer's self time: it shows only in the traced run's
    wall clock (``trace.overhead_s``).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        #: (parent span id, layer, function) -> [calls, total_s, self_s]
        self.aggregates: dict[tuple[int, str, str], list] = {}
        self.distinct: dict[str, set] = {fn: set() for fn in DISTINCT_FUNCS}
        self.stencil_bytes = 0
        #: durations of every "span" call per layer (shot latency etc.)
        self.durations: dict[str, list[float]] = {}
        #: per open frame, the seconds its wrapped children took (the root
        #: frame stands for the whole traced run)
        self._child_s: list[float] = [0.0]
        self._span_stack: list[int] = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()
        self.spans.append(self._new_span("run", "bench", 0.0, None))

    # ------------------------------------------------------------------
    def _new_span(self, name: str, layer: str, start: float, parent) -> dict:
        return {
            "id": len(self.spans), "name": name, "layer": layer,
            "parent": parent, "run": self.run_id,
            "start_s": start, "end_s": None, "self_s": None,
        }

    def _add(self, layer: str, name: str, duration: float, self_s: float) -> None:
        key = (self._span_stack[-1], layer, name)
        agg = self.aggregates.get(key)
        if agg is None:
            self.aggregates[key] = [1, duration, self_s]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A coarse span: kept one by one, parent of what runs inside."""
        entered = time.perf_counter()
        rec = self._new_span(name, layer, entered - self._t0, self._span_stack[-1])
        self.spans.append(rec)
        self._span_stack.append(rec["id"])
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            duration = time.perf_counter() - start
            rec["self_s"] = duration - self._child_s.pop()
            rec["end_s"] = rec["start_s"] + duration
            self._span_stack.pop()
            self._child_s[-1] += time.perf_counter() - entered

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, kind: str) -> Callable:
        name = fn.__name__
        if kind == "count":
            def counted(*args, **kwargs):
                self._add(layer, name, 0.0, 0.0)
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        if kind == "span":
            durations = self.durations.setdefault(layer, [])

            def spanned(*args, **kwargs):
                rec = None
                try:
                    with self.span(name, layer) as rec:
                        return fn(*args, **kwargs)
                finally:
                    if rec is not None and rec["end_s"] is not None:
                        durations.append(rec["end_s"] - rec["start_s"])

            spanned.__wrapped__ = fn
            return spanned

        child_s = self._child_s
        seen = self.distinct.get(name)
        memo: dict[int, tuple[Any, Any]] = {}
        count_bytes = name in _BYTE_FUNCS
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            entered = clock()
            if seen is not None:
                seen.add(freeze((args, kwargs), memo))
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self._add(layer, name, duration, duration - child_s.pop())
            if count_bytes:
                self.stencil_bytes += args[0].nbytes + result.nbytes
            child_s[-1] += clock() - entered
            return result

        leaf.__wrapped__ = fn
        return leaf

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target at every binding."""
        for layer, target, kind in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                base = getattr(module, cls_name)
                for cls in _hierarchy(base):
                    original = cls.__dict__.get(meth)
                    if original is None:
                        continue
                    self._patch(cls, meth, self._wrap(original, layer, kind))
            else:
                original = getattr(module, qualname)
                wrapper = self._wrap(original, layer, kind)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def finish(self) -> None:
        root = self.spans[0]
        root["end_s"] = time.perf_counter() - self._t0
        root["self_s"] = root["end_s"] - self._child_s[0]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}

        def add(layer, calls, total, self_s):
            row = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += self_s

        for (_, layer, _), (calls, total, self_s) in self.aggregates.items():
            add(layer, calls, total, self_s)
        for span in self.spans[1:]:
            if span["layer"] != "bench":
                add(span["layer"], 1, span["end_s"] - span["start_s"], span["self_s"])
        return out

    def calls_under(self, span_id: int) -> dict[str, int]:
        """Wrapped calls per layer anywhere below one coarse span."""
        below = {span_id}
        for span in self.spans:
            if span["parent"] in below:
                below.add(span["id"])
        out: dict[str, int] = {}
        for (parent, layer, _), agg in self.aggregates.items():
            if parent in below:
                out[layer] = out.get(layer, 0) + agg[0]
        for span in self.spans:
            if span["id"] in below and span["id"] != span_id and span["layer"] != "bench":
                out[span["layer"]] = out.get(span["layer"], 0) + 1
        return out

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "aggregates": [
                {"parent": p, "layer": layer, "function": fn,
                 "calls": a[0], "total_s": a[1], "self_s": a[2]}
                for (p, layer, fn), a in sorted(self.aggregates.items())
            ],
        }


def _hierarchy(base: type) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out
