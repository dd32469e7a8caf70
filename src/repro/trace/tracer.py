"""The span/marker recorder behind ``repro.trace``.

A :class:`Tracer` collects :class:`TraceEvent` records — nested spans, NVTX-
style instant markers, and pre-timed events re-emitted from the device
simulator — on named tracks grouped into processes, mirroring the NVIDIA
Visual Profiler layout the paper reads its Figures 11/14/15 off: one track
per simulated stream, one per MPI rank, one for host phases.

Time domain
-----------
The tracer samples a pluggable ``clock``. By default that is
``time.perf_counter`` (wall time of the harness), but the first
:class:`~repro.acc.runtime.Runtime` a tracer is attached to rebinds it to
the device's *simulated* clock (unless the caller passed an explicit clock),
so spans around pipeline phases measure the same modelled seconds the
profiler and the speedup tables report. Pre-timed events
(:meth:`Tracer.emit`) always carry their own timestamps.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator

#: event kinds
SPAN = "span"
INSTANT = "instant"

#: what a disabled tracer's span() returns: reusable, enters to None and
#: lets exceptions propagate
_NO_SPAN = nullcontext()


@dataclass(frozen=True)
class TraceEvent:
    """One timeline record.

    ``track`` is the timeline row (Perfetto thread); ``process`` groups
    tracks (Perfetto process): e.g. ``("gpu:Tesla K40", "queue:1")`` or
    ``("mpi", "rank:0")``. ``cat`` is the event category used for grouping
    in summaries (``phase`` | ``acc`` | ``kernel`` | ``h2d`` | ``d2h`` |
    ``halo`` | ``marker`` ...).
    """

    name: str
    cat: str
    process: str
    track: str
    start: float
    end: float
    kind: str = SPAN
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe event recorder with a metrics registry attached.

    A disabled tracer (``enabled=False``) accepts every call and records
    nothing, so instrumented code paths never need to branch; the shared
    :data:`NULL_TRACER` instance is the conventional "tracing off" default.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ):
        # import here so repro.trace.metrics can stay tracer-agnostic
        from repro.trace.metrics import MetricsRegistry

        self._clock = clock if clock is not None else time.perf_counter
        self._clock_bound = clock is not None
        self.enabled = enabled
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    def bind_default_clock(self, clock: Callable[[], float]) -> None:
        """Adopt ``clock`` unless the constructor already received one (or a
        previous binding won). Used by the acc runtime to put spans on the
        device's simulated timeline."""
        if not self._clock_bound:
            self._clock = clock
            self._clock_bound = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def span(
        self,
        name: str,
        *,
        process: str = "host",
        track: str = "host",
        cat: str = "phase",
        **args: Any,
    ) -> ContextManager[None]:
        """Record a nested span around a ``with`` body. A disabled tracer
        returns one shared no-op context manager."""
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, process, track, cat, args)

    @contextmanager
    def _span(
        self, name: str, process: str, track: str, cat: str, args: dict[str, Any]
    ) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._record(
                TraceEvent(
                    name, cat, process, track, start, max(end, start), SPAN, args
                )
            )

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        *,
        process: str = "host",
        track: str = "host",
        cat: str = "span",
        **args: Any,
    ) -> None:
        """Record a pre-timed span (e.g. a device event whose start/end come
        from the stream timeline rather than this tracer's clock)."""
        if not self.enabled:
            return
        self._record(
            TraceEvent(name, cat, process, track, start, max(end, start), SPAN, args)
        )

    def instant(
        self,
        name: str,
        *,
        process: str = "host",
        track: str = "host",
        cat: str = "marker",
        **args: Any,
    ) -> None:
        """Record an NVTX-style zero-duration marker at the current clock."""
        if not self.enabled:
            return
        t = self._clock()
        self._record(TraceEvent(name, cat, process, track, t, t, INSTANT, args))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def find(self, name: str) -> list[TraceEvent]:
        """All recorded events with the given name, in recording order."""
        return [e for e in self.events if e.name == name]

    def by_category(self, cat: str) -> list[TraceEvent]:
        return [e for e in self.events if e.cat == cat]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
        self.metrics.clear()

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def absorb(self, other: "Tracer", process_prefix: str = "") -> int:
        """Copy every event of ``other`` into this tracer, optionally
        renaming processes with ``process_prefix`` (e.g. ``"rank0:"``) so
        per-rank timelines stay distinguishable after the merge into one
        Perfetto export. Timestamps are taken verbatim — the caller is
        responsible for the clocks being comparable (all simulated device
        clocks start at 0, which is exactly what a side-by-side per-rank
        view wants). The other tracer's metrics registry merges in too,
        under ``process_prefix``-renamed instrument names, so a merged
        multi-rank summary shows every rank's counters side by side.
        Returns the number of events absorbed."""
        absorbed = other.events
        if process_prefix:
            from dataclasses import replace

            absorbed = [
                replace(e, process=f"{process_prefix}{e.process}")
                for e in absorbed
            ]
        with self._lock:
            self._events.extend(absorbed)
        self.metrics.absorb(other.metrics, prefix=process_prefix)
        return len(absorbed)


#: shared always-off tracer: the default for instrumented constructors, so
#: call sites run unconditionally at negligible cost. Do not enable it.
NULL_TRACER = Tracer(enabled=False)


__all__ = ["SPAN", "INSTANT", "TraceEvent", "Tracer", "NULL_TRACER"]
