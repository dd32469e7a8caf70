"""The dependence graph over AccEvents, and the step-loop detector.

Nodes are ``(rank, event_index)`` pairs (rank 0 for single-program
graphs). Two edge families:

*order edges* (happens-before)
    the execution order the runtime guarantees — the host timeline (one
    synchronous event after another), each async queue's FIFO, the
    enqueue edge from the host into every async launch, and the join
    edges a ``wait`` / ``wait_all`` / ``wait(q)`` clause creates; plus
    send → recv message edges across ranks.

*dependence edges* (RAW / WAR / WAW)
    per-array data dependences from
    :meth:`~repro.analyze.program.AccEvent.accesses` with
    ``conservative=True`` — a recorded kernel may write anything it has
    present, so the graph must assume it does.

``happens_before`` answers reachability over the order edges; an edge in
the dependence family that is *not* covered by the order family is
exactly what the async-race pass reports dynamically. The opportunity
pass uses the combination: two computes may fuse iff no third event
depends on the first and is depended on by the second.

:func:`detect_loops` recovers the time loop(s) from the recorded event
stream by periodicity over per-event signatures — the abstract
interpreter closes those regions to a fixpoint instead of unrolling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.analyze.program import AccEvent, DirectiveProgram

Node = tuple[int, int]  # (rank, event index)

#: dependence-edge kinds, in reporting order
DEP_KINDS = ("raw", "war", "waw")


@dataclass(frozen=True)
class DepEdge:
    """One edge: ``src`` happens-before / feeds ``dst``."""

    src: Node
    dst: Node
    kind: str  # 'order' | 'message' | 'raw' | 'war' | 'waw'
    var: str | None = None


@dataclass(frozen=True)
class LoopRegion:
    """One periodic region of the event stream: ``reps`` repetitions of
    the ``period`` events starting at ``start``."""

    start: int
    period: int
    reps: int

    @property
    def stop(self) -> int:
        return self.start + self.period * self.reps

    def body(self) -> range:
        """Event indices of the first iteration — the loop body."""
        return range(self.start, self.start + self.period)


def _signature(e: AccEvent) -> tuple:
    """Event identity modulo loop position: two iterations of the same
    step loop produce equal signatures event-for-event. ``label`` is
    excluded — script events carry their source line in it, which would
    make every iteration unique; the abstract semantics never read it."""
    return (
        e.kind, e.queue, e.copyin, e.create, e.delete, e.copyout,
        e.direction, e.var, e.nbytes, e.offset, e.peer, e.construct,
        e.kernel, e.reads, e.writes, e.writes_known, e.wait_on, e.wait_all,
    )


def detect_loops(
    program: DirectiveProgram, min_reps: int = 2, max_period: int = 256
) -> list[LoopRegion]:
    """Find non-overlapping maximal periodic regions (the time loops).

    Signatures are interned to integer ids; for each candidate period
    every maximal run of ``sig[i] == sig[i+p]`` is found with array
    compares. Regions are accepted greedily by covered length, smallest
    period first, so a 4-step snapshot cycle is reported as one region of
    period ``4 * step`` rather than many single steps.
    """
    ids: dict[tuple, int] = {}
    sigs = np.array(
        [ids.setdefault(_signature(e), len(ids)) for e in program.events],
        dtype=np.int64,
    )
    n = len(sigs)
    candidates: list[tuple[int, int, int]] = []  # (start, period, reps)
    for period in range(1, min(max_period, n // min_reps) + 1):
        # match[1 + i]: sigs[i] == sigs[i + period], zero-padded at both
        # ends; each maximal run of matches [i, j) makes
        # sigs[i .. j+period) periodic with this period
        match = np.zeros(n - period + 2, dtype=np.int8)
        match[1:-1] = sigs[:-period] == sigs[period:]
        edges = np.diff(match)
        starts = np.flatnonzero(edges == 1)
        reps = (np.flatnonzero(edges == -1) + period - starts) // period
        keep = reps >= min_reps
        candidates.extend(
            (start, period, r)
            for start, r in zip(starts[keep].tolist(), reps[keep].tolist())
        )
    # prefer large coverage; among equals, the smaller period (tighter loop)
    candidates.sort(key=lambda c: (-(c[1] * c[2]), c[1], c[0]))
    chosen: list[LoopRegion] = []
    taken: list[tuple[int, int]] = []
    for start, period, reps in candidates:
        stop = start + period * reps
        if any(start < t_stop and stop > t_start for t_start, t_stop in taken):
            continue
        chosen.append(LoopRegion(start=start, period=period, reps=reps))
        taken.append((start, stop))
    chosen.sort(key=lambda r: r.start)
    return chosen


class DependenceGraph:
    """Order + dependence edges over one or more ranks' programs."""

    def __init__(self, programs: list[DirectiveProgram]):
        self.programs = programs
        self.edges: list[DepEdge] = []
        self._order_adj: dict[Node, list[Node]] = {}
        self._build()

    @classmethod
    def from_program(cls, program: DirectiveProgram) -> "DependenceGraph":
        return cls([program])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, src: Node, dst: Node, kind: str, var: str | None = None):
        if src == dst:
            return
        self.edges.append(DepEdge(src=src, dst=dst, kind=kind, var=var))
        if kind in ("order", "message"):
            self._order_adj.setdefault(src, []).append(dst)

    def _build(self) -> None:
        for rank, program in enumerate(self.programs):
            self._build_order(rank, program)
            self._build_deps(rank, program)
        if len(self.programs) > 1:
            self._build_messages()

    def _build_order(self, rank: int, program: DirectiveProgram) -> None:
        """The runtime's guaranteed execution order within one rank."""
        last_host: int | None = None
        last_q: dict[int, int] = {}
        for e in program.events:
            node = (rank, e.index)
            joins: list[int] = []
            if e.kind == "wait":
                queues = e.wait_on or tuple(last_q)
                joins += [last_q[q] for q in queues if q in last_q]
            if e.kind == "compute":
                if e.wait_all:
                    joins += list(last_q.values())
                joins += [last_q[q] for q in e.wait_on if q in last_q]
            for j in joins:
                self._add((rank, j), node, "order")
            if last_host is not None:
                # every event — synchronous or an async *enqueue* — is
                # ordered after the host's program position
                self._add((rank, last_host), node, "order")
            if e.queue is None or e.kind == "wait":
                last_host = e.index
                if e.kind == "wait":
                    # the host now trails every joined queue; the joined
                    # queues' histories are behind `node` via the join edges
                    for q in (e.wait_on or tuple(last_q)):
                        last_q[q] = e.index
            else:
                if e.queue in last_q:
                    self._add((rank, last_q[e.queue]), node, "order")
                last_q[e.queue] = e.index

    def _build_deps(self, rank: int, program: DirectiveProgram) -> None:
        """Classic last-writer / readers-since scan per array."""
        last_writer: dict[str, int] = {}
        readers_since: dict[str, list[int]] = {}
        for e in program.events:
            node = (rank, e.index)
            for name, how in e.accesses(conservative=True):
                if name is None:
                    continue
                if how == "r":
                    if name in last_writer:
                        self._add(
                            (rank, last_writer[name]), node, "raw", var=name
                        )
                    readers_since.setdefault(name, []).append(e.index)
                else:
                    if name in last_writer:
                        self._add(
                            (rank, last_writer[name]), node, "waw", var=name
                        )
                    for r in readers_since.get(name, ()):
                        if r != e.index:
                            self._add((rank, r), node, "war", var=name)
                    last_writer[name] = e.index
                    readers_since[name] = []

    def _build_messages(self) -> None:
        from repro.analyze.dataflow.crossrank import match_messages

        for pair in match_messages(self.programs).pairs:
            self._add(pair.send, pair.recv, "message", var=pair.var)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _norm(self, node: Node | int) -> Node:
        return (0, node) if isinstance(node, int) else node

    def happens_before(self, a: Node | int, b: Node | int) -> bool:
        """Whether the runtime guarantees ``a`` completes before ``b``
        starts (reachability over order + message edges)."""
        a, b = self._norm(a), self._norm(b)
        if a == b:
            return False
        seen = {a}
        frontier = deque([a])
        while frontier:
            cur = frontier.popleft()
            for nxt in self._order_adj.get(cur, ()):
                if nxt == b:
                    return True
                if nxt not in seen:
                    # within a rank all order edges point forward; prune
                    # nodes already past b on b's own rank
                    if nxt[0] == b[0] and nxt[1] > b[1]:
                        continue
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def dependences(
        self, kinds: tuple[str, ...] = DEP_KINDS
    ) -> list[DepEdge]:
        return [e for e in self.edges if e.kind in kinds]

    def dependences_between(
        self, a: Node | int, b: Node | int
    ) -> list[DepEdge]:
        """Dependence edges into ``b`` from events strictly after ``a``
        (same rank) — the blockers of moving ``b`` adjacent to ``a``."""
        a, b = self._norm(a), self._norm(b)
        out = []
        for e in self.dependences():
            if e.dst == b and e.src[0] == a[0] and a[1] < e.src[1] < b[1]:
                out.append(e)
        return out

    def unsynchronised(self) -> list[DepEdge]:
        """Dependence edges not covered by the happens-before order — the
        statically-visible races (agrees with the async-race pass)."""
        out = []
        for e in self.dependences():
            if e.src[0] == e.dst[0] and not self.happens_before(e.src, e.dst):
                out.append(e)
        return out

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.edges:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        counts["events"] = sum(len(p.events) for p in self.programs)
        return counts

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dot(self, max_events: int | None = None) -> str:
        """Graphviz digraph: order edges gray, dependences colored by kind."""
        colors = {
            "order": "gray70", "message": "blue",
            "raw": "red", "war": "orange", "waw": "purple",
        }
        lines = [
            "digraph dependences {",
            "  rankdir=TB;",
            '  node [shape=box, fontsize=9, fontname="monospace"];',
        ]
        for rank, program in enumerate(self.programs):
            events = program.events
            if max_events is not None:
                events = events[:max_events]
            prefix = f"r{rank}_" if len(self.programs) > 1 else "n"
            if len(self.programs) > 1:
                lines.append(f"  subgraph cluster_{rank} {{")
                lines.append(f'    label="rank {rank}";')
            for e in events:
                what = e.kernel or e.var or ",".join(
                    e.copyin + e.create + e.copyout + e.delete
                ) or ""
                q = f" q{e.queue}" if e.queue is not None else ""
                label = f"{e.index}: {e.kind}{q} {what}".strip()
                lines.append(
                    f'  {prefix}{e.index} [label="{label}"];'
                )
            if len(self.programs) > 1:
                lines.append("  }")
        shown = {
            (rank, e.index)
            for rank, program in enumerate(self.programs)
            for e in (
                program.events if max_events is None
                else program.events[:max_events]
            )
        }

        def name(node: Node) -> str:
            return (
                f"r{node[0]}_{node[1]}" if len(self.programs) > 1
                else f"n{node[1]}"
            )

        for e in self.edges:
            if e.src not in shown or e.dst not in shown:
                continue
            attrs = [f"color={colors.get(e.kind, 'black')}"]
            if e.kind in DEP_KINDS:
                attrs.append(f'label="{e.kind}:{e.var}"')
                attrs.append("fontsize=8")
            lines.append(
                f"  {name(e.src)} -> {name(e.dst)} [{', '.join(attrs)}];"
            )
        lines.append("}")
        return "\n".join(lines)


__all__ = [
    "DepEdge",
    "DependenceGraph",
    "LoopRegion",
    "detect_loops",
    "DEP_KINDS",
]
