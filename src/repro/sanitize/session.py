"""The sanitizer session: the coherence engine over each rank's stream.

A :class:`SanitizeSession` watches one or more ranks' directive streams —
live (its per-rank recorders attach to :class:`~repro.acc.runtime.Runtime`
instances, its halo hooks to :class:`~repro.mpisim.halo.HaloExchanger`)
or replayed from a parsed ``!$acc`` script — and steps the coherence
engine (:class:`~repro.analyze.dataflow.absint.CoherenceEngine`) once
over every event, in order, as it arrives.

Hazard codes (all errors):

``stale-device-read`` (pass ``coherence``)
    a kernel or ``copyout`` consumes device bytes the host wrote without a
    covering ``update device``;
``stale-host-read`` (pass ``coherence``)
    an MPI send / host read consumes host bytes a kernel may have written
    without a covering ``update host``;
``short-ghost-transfer`` (pass ``ghost``)
    a ghost-zone refresh moves fewer planes than the stencil radius needs
    (or the decomposition's halo is thinner than the radius — the one
    check only a live run can make);
``ghost-transfer-out-of-bounds`` (pass ``ghost``)
    a partial update's byte range runs past the array extent;
``halo-send-before-sync`` (pass ``rank-race``)
    an MPI send reads a halo buffer an *asynchronous* ``update host`` is
    still filling — no ``wait(q)`` orders the pair.

Findings are :class:`~repro.analyze.framework.Diagnostic` records (the
lint machinery's reporters apply unchanged), reported once per (rule,
rank, array, kernel, label), and carry
:class:`~repro.sanitize.fixit.ScriptFix` remedies when anchored to script
lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.analyze.dataflow.absint import (
    UNKNOWN_EXTENT,
    CoherenceEngine,
    CoherenceState,
    Finding,
    Interval,
    ghost_requirement,
)
from repro.analyze.framework import Diagnostic, Severity
from repro.analyze.program import AccEvent, DirectiveProgram, ProgramMeta
from repro.analyze.rules import DYNAMIC_PASSES, rule
from repro.sanitize.fixit import ScriptFix

#: hazard code -> pass name (the shared registry's dynamic view; kept
#: under its historical name for importers)
PASSES = DYNAMIC_PASSES

_LINE_RE = re.compile(r"line (\d+)")


def _line_of(event: AccEvent | None) -> int | None:
    if event is None or not event.label:
        return None
    m = _LINE_RE.search(event.label)
    return int(m.group(1)) if m else None


class _RankRecorder:
    """Duck-types :class:`~repro.analyze.recorder.ProgramRecorder` so
    ``Runtime.attach_recorder`` feeds one rank of the session."""

    def __init__(self, session: "SanitizeSession", rank: int):
        self._session = session
        self._rank = rank
        self.program = session.programs[rank]
        self._label: str | None = None

    def bind_runtime(self, rt) -> None:
        spec = rt.device.spec
        self.program.meta = ProgramMeta(
            source="recorded", name=self.program.meta.name,
            device=spec.name, warp_size=spec.warp_size,
            max_regs_per_thread=spec.max_regs_per_thread,
            max_threads_per_block=spec.max_threads_per_block,
            compiler=rt.compiler.name, vendor=rt.compiler.vendor,
            maxregcount=rt.flags.maxregcount, auto_async=rt._auto_async,
        )
        self._session.runtimes[self._rank] = rt

    def set_label(self, label: str | None) -> None:
        self._label = label

    def record(self, kind: str, sizes=None, **fields) -> None:
        event = self.program.add(AccEvent(
            kind=kind, index=len(self.program), label=self._label, **fields
        ), sizes=sizes)
        self._session.observe(self._rank, event)


@dataclass
class SanitizeResult:
    """Findings across all ranks of one sanitized run (mirrors
    :class:`~repro.analyze.framework.LintResult`, which the shared
    reporters duck-type against via :attr:`program`)."""

    name: str
    nranks: int
    programs: list[DirectiveProgram]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def program(self) -> DirectiveProgram:
        return self.programs[0]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    def worst(self) -> Severity | None:
        return max((d.severity for d in self.diagnostics), default=None)

    def fails(self, threshold: Severity) -> bool:
        return any(d.severity >= threshold for d in self.diagnostics)

    def clean(self) -> bool:
        return not self.diagnostics


class SanitizeSession:
    """Dynamic coherence + race sanitizer over ``nranks`` directive streams."""

    def __init__(
        self,
        nranks: int = 1,
        name: str = "sanitize",
        stencil_radius: int | None = None,
    ):
        self.nranks = int(nranks)
        self.name = name
        self.stencil_radius = stencil_radius
        self.programs = [
            DirectiveProgram(ProgramMeta(
                source="recorded",
                name=name if self.nranks == 1 else f"{name}[rank {r}]",
            ))
            for r in range(self.nranks)
        ]
        self.engines = [self._engine(r) for r in range(self.nranks)]
        self.states = [CoherenceState() for _ in range(self.nranks)]
        self.diagnostics: list[Diagnostic] = []
        self.runtimes: dict[int, object] = {}
        #: halo field key -> device array name (live pipelines bind this
        #: before each exchange so hook events name the real array)
        self._field_map: dict[str, str] = {}
        #: decomposition of the live run (peers for halo send/recv events)
        self._decomp = None
        self._seen: set[tuple] = set()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _engine(self, rank: int) -> CoherenceEngine:
        return CoherenceEngine(
            self.programs[rank], lambda f: self._report(rank, f)
        )

    def recorder(self, rank: int = 0) -> _RankRecorder:
        """The recorder to ``rt.attach_recorder`` for ``rank``."""
        return _RankRecorder(self, rank)

    def declare_stencil(self, radius: int) -> None:
        """The stencil half-width (in grid planes) ghost transfers must
        cover — :func:`repro.stencil.operators` radius of the run."""
        self.stencil_radius = int(radius)

    def map_field(self, field_key: str, device_name: str) -> None:
        """Bind an exchanged halo field key to the device array it mirrors
        (re-bind when the pipeline switches wavefields, e.g. RTM backward)."""
        self._field_map[field_key] = device_name

    def replay(self, program: DirectiveProgram, rank: int = 0) -> None:
        """Feed an already-built program (the script frontend's output)
        through the checks; the program becomes the rank's reporting view."""
        self.programs[rank] = program
        self.engines[rank] = self._engine(rank)
        for event in program.events:
            self.observe(rank, event)

    # ------------------------------------------------------------------
    # findings
    # ------------------------------------------------------------------
    def _emit(
        self,
        rule: str,
        message: str,
        rank: int | None = None,
        event: AccEvent | None = None,
        var: str | None = None,
        kernel: str | None = None,
        fix: ScriptFix | None = None,
    ) -> None:
        key = (
            rule, rank, var, kernel,
            event.label if event is not None else None,
        )
        if key in self._seen:
            return
        self._seen.add(key)
        if rank is not None and self.nranks > 1:
            message = f"[rank {rank}] {message}"
        self.diagnostics.append(Diagnostic(
            pass_name=PASSES[rule], rule=rule, severity=Severity.ERROR,
            message=message,
            event_index=event.index if event is not None else None,
            var=var, kernel=kernel, fix=fix,
        ))

    def result(self) -> SanitizeResult:
        return SanitizeResult(
            name=self.name, nranks=self.nranks,
            programs=self.programs, diagnostics=list(self.diagnostics),
        )

    # ------------------------------------------------------------------
    # event stream
    # ------------------------------------------------------------------
    def observe(self, rank: int, e: AccEvent) -> None:
        self.engines[rank].step(self.states[rank], e, emit=True)

    def _report(self, rank: int, f: Finding) -> None:
        """Render one engine finding: the live queue tail and the fix."""
        message = f.message
        fix = None
        if f.key in ("stale-device-read", "stale-host-read"):
            direction = "device" if f.key == "stale-device-read" else "self"
            fix = self._update_fix(f.event, f.var, f.stale, direction)
        elif f.key == "short-ghost-transfer":
            fix = self._widen_fix(rank, f)
        elif f.key == "halo-send-before-sync":
            message += self._queue_state(rank, f.queue)
            fix = ScriptFix(
                action="insert-before", line=_line_of(f.event), var=f.var,
                lines=(f"!$acc wait({f.queue})",),
            )
        self._emit(
            f.key, message, rank=rank, event=f.event, var=f.var,
            kernel=f.kernel, fix=fix,
        )

    def _queue_state(self, rank: int, queue: int) -> str:
        """Live confirmation from the simulated device's stream pool."""
        rt = self.runtimes.get(rank)
        if rt is None:
            return ""
        pending = rt.device.streams.pending_queues()
        if queue in pending:
            return " (queue has in-flight work on the device timeline)"
        return ""

    def _widen_fix(self, rank: int, f: Finding) -> ScriptFix:
        """Widen the last partial ``update device`` to the full ghost face
        the stencil reads (the low face, the high face, or unknown)."""
        required = ghost_requirement(f.event)
        extent = self.states[rank].arrays[f.var].extent
        if all(hi <= required for _, hi in f.stale):
            offset = 0
        elif all(lo >= extent - required for lo, _ in f.stale):
            offset = extent - required
        else:
            offset = None
        return ScriptFix(
            action="widen-update", line=_line_of(f.partial), var=f.var,
            required_bytes=required, required_offset=offset,
        )

    def _update_fix(
        self, e: AccEvent, name: str, stale: tuple[Interval, ...],
        direction: str,
    ) -> ScriptFix:
        """An ``insert-before`` fix pushing/pulling exactly the stale
        ranges ahead of the consuming directive."""
        line = _line_of(e)
        lines: list[str] = []
        for lo, hi in stale[:4]:
            if hi < UNKNOWN_EXTENT:
                lines.append(f"!$lint bytes={hi - lo} offset={lo}")
            lines.append(f"!$acc update {direction}({name})")
        return ScriptFix(
            action="insert-before", line=line, var=name, lines=tuple(lines)
        )

    # ------------------------------------------------------------------
    # mpisim hooks (live mode)
    # ------------------------------------------------------------------
    def on_halo_geometry(self, decomp) -> None:
        self._decomp = decomp
        if (
            self.stencil_radius is not None
            and decomp.halo < self.stencil_radius
        ):
            self._emit(
                "short-ghost-transfer",
                rule("short-ghost-transfer").format_alt(
                    have=decomp.halo, need=self.stencil_radius,
                ),
            )

    def _face_range(
        self, rank: int, name: str, side: str, nbytes: int, ghost: bool
    ) -> tuple[str | None, int, int | None]:
        """(device array, offset, nbytes) of a face slab. Sends read the
        owned planes just inside the halo; receives land in the halo."""
        dev = self._field_map.get(name)
        if dev is None:
            return None, 0, None
        ext = self.engines[rank].extent(dev)
        if ext >= UNKNOWN_EXTENT:
            return dev, 0, None
        if side == "lo":
            lo = 0 if ghost else nbytes
        else:
            lo = ext - nbytes if ghost else ext - 2 * nbytes
        return dev, max(0, lo), nbytes

    def _halo_peer(self, rank: int, axis: int, side: str) -> int | None:
        """The other rank of a halo face, when the geometry is known —
        recorded on send/recv events so the static cross-rank pass can
        match message pairs without re-deriving the decomposition."""
        if self._decomp is None:
            return None
        try:
            return self._decomp.neighbour(rank, axis, side)
        except (AttributeError, ValueError):
            return None

    def on_halo_send(
        self, rank: int, name: str, axis: int, side: str, nbytes: int
    ) -> None:
        self._halo_event("send", rank, name, axis, side, nbytes)

    def on_halo_recv(
        self, rank: int, name: str, axis: int, side: str, nbytes: int
    ) -> None:
        self._halo_event("recv", rank, name, axis, side, nbytes)

    def _halo_event(
        self, kind: str, rank: int, name: str, axis: int, side: str,
        nbytes: int,
    ) -> None:
        dev, lo, n = self._face_range(
            rank, name, side, nbytes, ghost=kind == "recv"
        )
        if dev is None:
            return
        program = self.programs[rank]
        self.observe(rank, program.add(AccEvent(
            kind=kind, index=len(program), var=dev, offset=lo, nbytes=n,
            peer=self._halo_peer(rank, axis, side),
            label=f"halo axis {axis} {side}",
        )))


__all__ = ["SanitizeSession", "SanitizeResult", "PASSES"]
