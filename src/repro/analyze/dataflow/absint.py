"""Fixed-point abstract interpretation of host/device coherence state.

The abstract domain mirrors the sanitizer's shadow state
(:mod:`repro.sanitize.shadow`) — per present array, the set of byte
intervals whose *host* copy is dirty (written, not yet pushed) and whose
*device* copy is dirty (possibly kernel-written, not yet pulled) — but
every interval carries the **event index that caused it**, so a finding
comes with an event-chain witness instead of a point location. Two extra
components track in-flight asynchronous ``update host`` operations (for
the send-before-sync rule) and the last partial ``update device`` per
array (for short-ghost classification).

The lattice is the powerset of byte intervals per array (ordered by
coverage inclusion) × the powerset of pending-op identities; both are
finite for a fixed program, and every transfer function is monotone in
coverage, so iteration terminates.

**Loop closure**: :func:`~repro.analyze.dataflow.graph.detect_loops`
recovers the time loop(s) from the recorded stream; each region's body is
interpreted repeatedly, joining the exit state back into the entry state,
until the entry state stops growing. The final reporting pass then runs
the body once from the converged state — so a stale read that only
manifests from the *second* iteration onward (the classic first-iteration
-clean bug) is still proven. Interpreting the sanitizer's five dynamic
rules this way turns them into compile-time ``DF00x`` findings keyed by
the shared registry (:mod:`repro.analyze.rules`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.dataflow.graph import LoopRegion, detect_loops
from repro.analyze.framework import Diagnostic
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.analyze.rules import rule
from repro.sanitize.shadow import (
    UNKNOWN_EXTENT,
    format_ranges,
    ghost_requirement,
    normalize,
    subtract_interval,
)

#: a caused interval: ``[lo, hi)`` dirtied by event ``cause``
Civ = tuple[int, int, int]


# ----------------------------------------------------------------------
# caused-interval algebra
# ----------------------------------------------------------------------
def _civ_subtract(ivs: list[Civ], lo: int, hi: int) -> list[Civ]:
    if hi <= lo:
        return list(ivs)
    out: list[Civ] = []
    for a, b, c in ivs:
        if b <= lo or a >= hi:
            out.append((a, b, c))
            continue
        if a < lo:
            out.append((a, lo, c))
        if b > hi:
            out.append((hi, b, c))
    return out


def _civ_add(ivs: list[Civ], lo: int, hi: int, cause: int) -> list[Civ]:
    if hi <= lo:
        return list(ivs)
    out = _civ_subtract(ivs, lo, hi)
    out.append((lo, hi, cause))
    out.sort()
    return out


def _civ_intersect(ivs: list[Civ], lo: int, hi: int) -> list[Civ]:
    out: list[Civ] = []
    for a, b, c in ivs:
        x, y = max(a, lo), min(b, hi)
        if y > x:
            out.append((x, y, c))
    return out


def _coverage(ivs: list[Civ]) -> list[tuple[int, int]]:
    return normalize([(a, b) for a, b, _ in ivs])


def _civ_join(a: list[Civ], b: list[Civ]) -> list[Civ]:
    """Coverage union; where both cover, ``a``'s causes win (they are the
    older state, which keeps causes stable across fixpoint iterations)."""
    out = list(a)
    covered = _coverage(a)
    for lo, hi, c in b:
        gaps = [(lo, hi)]
        for x, y in covered:
            gaps = subtract_interval(gaps, x, y)
        for x, y in gaps:
            out.append((x, y, c))
    out.sort()
    return out


# ----------------------------------------------------------------------
# abstract state
# ----------------------------------------------------------------------
@dataclass
class _ArrayState:
    extent: int = UNKNOWN_EXTENT
    host_dirty: list[Civ] = field(default_factory=list)
    dev_dirty: list[Civ] = field(default_factory=list)

    def copy(self) -> "_ArrayState":
        return _ArrayState(
            self.extent, list(self.host_dirty), list(self.dev_dirty)
        )

    def _range(self, offset: int, nbytes: int | None) -> tuple[int, int]:
        lo = max(0, int(offset))
        hi = self.extent if nbytes is None else lo + int(nbytes)
        return lo, min(hi, self.extent)


#: one in-flight async ``update host``: (queue, lo, hi, event index)
Pending = tuple[int, int, int, int]


@dataclass
class _State:
    arrays: dict[str, _ArrayState] = field(default_factory=dict)
    pending: dict[str, frozenset[Pending]] = field(default_factory=dict)
    #: var -> event indices of candidate last partial ``update device``
    last_partial: dict[str, frozenset[int]] = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(
            arrays={k: v.copy() for k, v in self.arrays.items()},
            pending=dict(self.pending),
            last_partial=dict(self.last_partial),
        )

    def join(self, other: "_State") -> "_State":
        out = self.copy()
        for name, st in other.arrays.items():
            mine = out.arrays.get(name)
            if mine is None:
                out.arrays[name] = st.copy()
            else:
                mine.host_dirty = _civ_join(mine.host_dirty, st.host_dirty)
                mine.dev_dirty = _civ_join(mine.dev_dirty, st.dev_dirty)
        for name, ops in other.pending.items():
            out.pending[name] = out.pending.get(name, frozenset()) | ops
        for name, idxs in other.last_partial.items():
            out.last_partial[name] = (
                out.last_partial.get(name, frozenset()) | idxs
            )
        return out

    def _shape(self) -> tuple:
        """Coverage-level fingerprint: equal shapes = fixpoint reached."""
        return (
            tuple(sorted(
                (n, tuple(_coverage(s.host_dirty)),
                 tuple(_coverage(s.dev_dirty)))
                for n, s in self.arrays.items()
            )),
            tuple(sorted(
                (n, tuple(sorted(ops)))
                for n, ops in self.pending.items() if ops
            )),
            tuple(sorted(
                (n, tuple(sorted(idxs)))
                for n, idxs in self.last_partial.items() if idxs
            )),
        )

    def same_coverage(self, other: "_State") -> bool:
        return self._shape() == other._shape()


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class CoherenceSummary:
    """What the interpreter proved about one program."""

    program: DirectiveProgram
    diagnostics: list[Diagnostic]
    regions: list[LoopRegion]
    #: per update-event steady-state facts: how many dirty bytes the
    #: transfer actually cleared on each side (0 on both = dead transfer)
    facts: dict[int, dict[str, int]]
    #: fixpoint iterations each region needed to converge
    iterations: dict[int, int]

    def clean(self) -> bool:
        return not self.diagnostics


class _Engine:
    """The transfer functions + diagnostic collection."""

    def __init__(self, program: DirectiveProgram):
        self.program = program
        self._found: dict[tuple, Diagnostic] = {}
        self.facts: dict[int, dict[str, int]] = {}

    # -- findings ------------------------------------------------------
    def diagnostics(self) -> list[Diagnostic]:
        return list(self._found.values())

    def _emit(
        self,
        key: str,
        message: str,
        event: AccEvent,
        witness: tuple[int, ...],
        var: str | None = None,
        kernel: str | None = None,
    ) -> None:
        r = rule(key)
        dedup = (key, var, kernel, event.index)
        if dedup in self._found:
            return
        self._found[dedup] = Diagnostic(
            pass_name=r.static_pass or "dataflow",
            rule=r.static_rule,
            severity=r.severity,
            message=message,
            event_index=event.index,
            var=var,
            kernel=kernel,
            witness=witness,
        )

    @staticmethod
    def _witness(causes: list[Civ], *tail: int) -> tuple[int, ...]:
        chain = sorted({c for _, _, c in causes if c >= 0})
        return tuple(chain) + tail

    # -- interpretation ------------------------------------------------
    def run_range(
        self, state: _State, start: int, stop: int, emit: bool
    ) -> _State:
        for e in self.program.events[start:stop]:
            self.step(state, e, emit)
        return state

    def step(self, state: _State, e: AccEvent, emit: bool) -> None:
        handler = getattr(self, f"_on_{e.kind}", None)
        if handler is not None:
            handler(state, e, emit)

    def _array(self, state: _State, name: str | None) -> _ArrayState | None:
        return state.arrays.get(name) if name is not None else None

    def _extent(self, name: str) -> int:
        return self.program.extents.get(name) or UNKNOWN_EXTENT

    # -- lifetime ------------------------------------------------------
    def _on_enter(self, state: _State, e: AccEvent, emit: bool) -> None:
        for name in e.copyin + e.create:
            if name not in state.arrays:
                state.arrays[name] = _ArrayState(extent=self._extent(name))

    def _on_exit(self, state: _State, e: AccEvent, emit: bool) -> None:
        for name in e.copyout:
            st = self._array(state, name)
            if st is None:
                continue
            stale = _civ_intersect(st.host_dirty, 0, st.extent)
            if stale and emit:
                self._emit(
                    "stale-device-read",
                    rule("stale-device-read").format_alt(
                        var=name, ranges=format_ranges(_coverage(stale))
                    ),
                    e, self._witness(stale, e.index), var=name,
                )
        for name in e.copyout + e.delete:
            state.arrays.pop(name, None)
            state.pending.pop(name, None)
            state.last_partial.pop(name, None)

    # -- transfers -----------------------------------------------------
    def _on_update(self, state: _State, e: AccEvent, emit: bool) -> None:
        st = self._array(state, e.var)
        if st is None:
            return
        if (
            e.nbytes is not None
            and st.extent < UNKNOWN_EXTENT
            and e.offset + e.nbytes > st.extent
        ):
            if emit:
                self._emit(
                    "ghost-transfer-out-of-bounds",
                    rule("ghost-transfer-out-of-bounds").format(
                        direction=e.direction, var=e.var, lo=e.offset,
                        hi=e.offset + e.nbytes, extent=st.extent,
                    ),
                    e, (e.index,), var=e.var,
                )
        lo, hi = st._range(e.offset, e.nbytes)
        if emit:
            self.facts[e.index] = {
                "host_dirty_cleared": sum(
                    b - a for a, b in
                    _coverage(_civ_intersect(st.host_dirty, lo, hi))
                ),
                "dev_dirty_cleared": sum(
                    b - a for a, b in
                    _coverage(_civ_intersect(st.dev_dirty, lo, hi))
                ),
            }
        st.host_dirty = _civ_subtract(st.host_dirty, lo, hi)
        st.dev_dirty = _civ_subtract(st.dev_dirty, lo, hi)
        if e.direction == "device":
            if e.nbytes is not None and not self.program.full_extent(e):
                state.last_partial[e.var] = frozenset({e.index})
            else:
                state.last_partial.pop(e.var, None)
        elif e.queue is not None:
            state.pending[e.var] = state.pending.get(
                e.var, frozenset()
            ) | {(e.queue, lo, hi, e.index)}

    # -- synchronisation -----------------------------------------------
    def _on_wait(self, state: _State, e: AccEvent, emit: bool) -> None:
        self._drain(state, e.wait_on or None)

    def _drain(self, state: _State, queues: tuple[int, ...] | None) -> None:
        """A wait on ``queues`` (None = all) completes the pending ops."""
        for name in list(state.pending):
            left = frozenset(
                p for p in state.pending[name]
                if queues is not None and p[0] not in queues
            )
            if left:
                state.pending[name] = left
            else:
                del state.pending[name]

    # -- compute -------------------------------------------------------
    def _on_compute(self, state: _State, e: AccEvent, emit: bool) -> None:
        if e.wait_all:
            self._drain(state, None)
        elif e.wait_on:
            self._drain(state, e.wait_on)
        for name in dict.fromkeys(e.reads + e.writes):
            st = self._array(state, name)
            if st is None:
                continue
            stale = _civ_intersect(st.host_dirty, 0, st.extent)
            if stale and emit:
                self._classify_device_stale(state, e, name, st, stale)
        for name, how in e.accesses(conservative=True):
            if how != "w":
                continue
            st = self._array(state, name)
            if st is not None:
                lo, hi = st._range(0, None)
                st.dev_dirty = _civ_add(st.dev_dirty, lo, hi, e.index)

    def _classify_device_stale(
        self, state: _State, e: AccEvent, name: str,
        st: _ArrayState, stale: list[Civ],
    ) -> None:
        required = ghost_requirement(e)
        coverage = _coverage(stale)
        for idx in sorted(state.last_partial.get(name, ())):
            last = self.program.events[idx]
            if (
                required
                and st.extent < UNKNOWN_EXTENT
                and (last.nbytes or 0) < required
            ):
                faces_left = subtract_interval(
                    subtract_interval(coverage, 0, required),
                    st.extent - required, st.extent,
                )
                if not faces_left:
                    self._emit(
                        "short-ghost-transfer",
                        rule("short-ghost-transfer").format(
                            var=name, moved=int(last.nbytes or 0),
                            halo=e.halo, required=required,
                            kernel=e.kernel, ranges=format_ranges(coverage),
                        ),
                        e, self._witness(stale, idx, e.index),
                        var=name, kernel=e.kernel,
                    )
                    return
        self._emit(
            "stale-device-read",
            rule("stale-device-read").format(
                consumer=f"kernel '{e.kernel}'", var=name,
                ranges=format_ranges(coverage),
            ),
            e, self._witness(stale, e.index), var=name, kernel=e.kernel,
        )

    # -- host-side consumers -------------------------------------------
    def _on_host_write(self, state: _State, e: AccEvent, emit: bool) -> None:
        for name in e.writes:
            st = self._array(state, name)
            if st is not None:
                lo, hi = st._range(e.offset, e.nbytes)
                st.host_dirty = _civ_add(st.host_dirty, lo, hi, e.index)

    def _on_host_read(self, state: _State, e: AccEvent, emit: bool) -> None:
        for name in e.reads:
            self._host_consumer(
                state, e, name, e.offset, e.nbytes, "host read", emit
            )

    def _on_send(self, state: _State, e: AccEvent, emit: bool) -> None:
        what = "halo send" if (e.label and "halo" in e.label) else "MPI send"
        self._host_consumer(state, e, e.var, e.offset, e.nbytes, what, emit)

    def _on_recv(self, state: _State, e: AccEvent, emit: bool) -> None:
        st = self._array(state, e.var)
        if st is not None:
            lo, hi = st._range(e.offset, e.nbytes)
            st.host_dirty = _civ_add(st.host_dirty, lo, hi, e.index)

    def _host_consumer(
        self,
        state: _State,
        e: AccEvent,
        name: str | None,
        offset: int,
        nbytes: int | None,
        what: str,
        emit: bool,
    ) -> None:
        st = self._array(state, name)
        if st is None or not emit:
            return
        lo, hi = st._range(offset, nbytes)
        stale = _civ_intersect(st.dev_dirty, lo, hi)
        if stale:
            self._emit(
                "stale-host-read",
                rule("stale-host-read").format(
                    consumer=what, var=name, ranges=format_ranges(_coverage(stale)),
                ),
                e, self._witness(stale, e.index), var=name,
            )
        for queue, plo, phi, idx in sorted(state.pending.get(name, ())):
            if phi <= lo or plo >= hi:
                continue
            self._emit(
                "halo-send-before-sync",
                rule("halo-send-before-sync").format(
                    consumer=what, var=name, lo=lo, hi=min(hi, phi),
                    queue=queue,
                ),
                e, (idx, e.index), var=name,
            )


#: safety net on fixpoint iteration — the lattice is finite so closure
#: converges in a handful of rounds; this bound only guards a bug
_MAX_FIXPOINT_ITERS = 64


def interpret_program(program: DirectiveProgram) -> CoherenceSummary:
    """Interpret one program with loop closure; return diagnostics,
    detected loop regions and per-transfer steady-state facts."""
    regions = detect_loops(program)
    regions_by_start = {r.start: r for r in regions}
    engine = _Engine(program)
    state = _State()
    iterations: dict[int, int] = {}
    i = 0
    n = len(program.events)
    while i < n:
        region = regions_by_start.get(i)
        if region is not None and region.period > 0:
            head = state
            rounds = 0
            for rounds in range(1, _MAX_FIXPOINT_ITERS + 1):
                out = engine.run_range(
                    head.copy(), region.start,
                    region.start + region.period, emit=False,
                )
                joined = head.join(out)
                if joined.same_coverage(head):
                    break
                head = joined
            iterations[region.start] = rounds
            state = engine.run_range(
                head, region.start, region.start + region.period, emit=True
            )
            i = region.stop
        else:
            engine.step(state, program.events[i], emit=True)
            i += 1
    return CoherenceSummary(
        program=program,
        diagnostics=engine.diagnostics(),
        regions=regions,
        facts=engine.facts,
        iterations=iterations,
    )


__all__ = ["CoherenceSummary", "interpret_program"]
