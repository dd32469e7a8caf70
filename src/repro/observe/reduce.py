"""The trace reduction engine: raw spans in, scaling quantities out.

The :class:`~repro.trace.tracer.Tracer` records *when* every kernel, PCIe
copy and halo message ran; nothing in the trace layer says whether the
comm was hidden under compute — the quantity the paper's Section 7 path
forward ("overlapping MPI communications with GPU computations") and the
cluster figures of Paul et al. are about. This module reduces an event
stream (single-rank, or a multi-rank merge built by
:meth:`~repro.trace.tracer.Tracer.absorb`) to:

* per-rank busy time by class (compute / transfer / comm) as measures of
  the *union* of that class's spans, plus the pairwise overlap fractions
  (what share of transfer and comm time ran concurrently with compute);
* per-queue utilization (busy seconds vs. the run makespan) for every
  device stream track;
* per-kernel aggregates — count, total, mean, p95 and max span seconds;
* a critical-path estimate: the maximum-duration chain of
  non-overlapping work spans through the span DAG (a span can only
  depend on spans that finished before it started, so the heaviest such
  chain lower-bounds the serial backbone of the run), together with a
  priority sweep that decomposes the makespan into compute / comm /
  transfer / other / idle segments.

Everything is a pure function of the event list; all times are in the
trace's own clock domain (simulated seconds for device traces).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.trace.tracer import SPAN, Tracer, TraceEvent

#: span categories counted as device compute
COMPUTE_CATS = frozenset({"kernel"})
#: span categories counted as host<->device transfer
TRANSFER_CATS = frozenset({"h2d", "d2h"})
#: span categories counted as inter-rank communication
COMM_CATS = frozenset({"halo"})
#: every category that is "work" for critical-path purposes (umbrella
#: phase spans wrap the whole run and would trivially dominate a chain)
WORK_CATS = COMPUTE_CATS | TRANSFER_CATS | COMM_CATS

_RANK_PROCESS = re.compile(r"^rank(\d+):")
_RANK_TRACK = re.compile(r"^rank:(\d+)$")


# ----------------------------------------------------------------------
# interval algebra
# ----------------------------------------------------------------------
def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of half-open intervals as a sorted, disjoint list."""
    out: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return out


def interval_measure(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of a *disjoint* interval list."""
    return sum(end - start for start, end in intervals)


def intersect_intervals(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Intersection of two disjoint sorted interval lists."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 1]): the
    value at rank ``ceil(q * n)`` (deterministic, interpolation-free)."""
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


# ----------------------------------------------------------------------
# reduction records
# ----------------------------------------------------------------------
@dataclass
class RankReduction:
    """One rank's busy-time classes and overlap fractions."""

    rank: int
    compute_s: float = 0.0
    transfer_s: float = 0.0
    comm_s: float = 0.0
    #: seconds of transfer that ran concurrently with compute on this rank
    transfer_overlap_s: float = 0.0
    #: seconds of comm that ran concurrently with compute on this rank
    comm_overlap_s: float = 0.0
    #: this rank's own first-to-last span extent
    makespan_s: float = 0.0

    @property
    def transfer_overlap_fraction(self) -> float:
        """Share of transfer time hidden under compute (0 when no transfer)."""
        return self.transfer_overlap_s / self.transfer_s if self.transfer_s else 0.0

    @property
    def comm_overlap_fraction(self) -> float:
        """Share of comm time hidden under compute (0 when no comm)."""
        return self.comm_overlap_s / self.comm_s if self.comm_s else 0.0

    @property
    def busy_s(self) -> float:
        return self.compute_s + self.transfer_s + self.comm_s

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "compute_s": self.compute_s,
            "transfer_s": self.transfer_s,
            "comm_s": self.comm_s,
            "transfer_overlap_s": self.transfer_overlap_s,
            "comm_overlap_s": self.comm_overlap_s,
            "transfer_overlap_fraction": self.transfer_overlap_fraction,
            "comm_overlap_fraction": self.comm_overlap_fraction,
            "makespan_s": self.makespan_s,
        }


@dataclass
class KernelAggregate:
    """Per-kernel span statistics across the whole (merged) trace."""

    name: str
    count: int
    total_s: float
    mean_s: float
    p95_s: float
    max_s: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "p95_s": self.p95_s,
            "max_s": self.max_s,
        }


@dataclass
class QueueUtilization:
    """Busy share of one device stream track over the run makespan."""

    process: str
    track: str
    busy_s: float
    utilization: float

    def to_json(self) -> dict:
        return {
            "process": self.process,
            "track": self.track,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
        }


@dataclass
class CriticalPath:
    """Serial-backbone estimate through the work-span DAG."""

    makespan_s: float
    #: maximum total duration of a chain of non-overlapping work spans
    chain_s: float
    #: makespan decomposed by a priority sweep (compute > comm > transfer),
    #: with 'idle' the uncovered remainder
    composition: dict[str, float] = field(default_factory=dict)

    @property
    def chain_fraction(self) -> float:
        return self.chain_s / self.makespan_s if self.makespan_s else 0.0

    def to_json(self) -> dict:
        return {
            "makespan_s": self.makespan_s,
            "chain_s": self.chain_s,
            "chain_fraction": self.chain_fraction,
            "composition": dict(self.composition),
        }


@dataclass
class TraceReduction:
    """Everything the observatory and the ledger read off one trace."""

    ranks: dict[int, RankReduction]
    kernels: dict[str, KernelAggregate]
    queues: list[QueueUtilization]
    critical_path: CriticalPath
    events: int = 0

    # -- aggregates ------------------------------------------------------
    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @property
    def compute_s(self) -> float:
        """Max per-rank compute (ranks step concurrently, so the slowest
        slab binds the run)."""
        return max((r.compute_s for r in self.ranks.values()), default=0.0)

    @property
    def comm_s(self) -> float:
        return max((r.comm_s for r in self.ranks.values()), default=0.0)

    @property
    def transfer_s(self) -> float:
        return max((r.transfer_s for r in self.ranks.values()), default=0.0)

    @property
    def comm_overlap_fraction(self) -> float:
        """Comm-hidden-under-compute share, weighted across ranks."""
        comm = sum(r.comm_s for r in self.ranks.values())
        hidden = sum(r.comm_overlap_s for r in self.ranks.values())
        return hidden / comm if comm else 0.0

    @property
    def transfer_overlap_fraction(self) -> float:
        transfer = sum(r.transfer_s for r in self.ranks.values())
        hidden = sum(r.transfer_overlap_s for r in self.ranks.values())
        return hidden / transfer if transfer else 0.0

    @property
    def makespan_s(self) -> float:
        return self.critical_path.makespan_s

    def summary_metrics(self) -> dict:
        """The flat metric dict ledger records carry (stable key names —
        ``repro report`` trends and thresholds are keyed on these)."""
        return {
            "makespan_s": self.makespan_s,
            "compute_s": self.compute_s,
            "transfer_s": self.transfer_s,
            "comm_s": self.comm_s,
            "comm_overlap_fraction": self.comm_overlap_fraction,
            "transfer_overlap_fraction": self.transfer_overlap_fraction,
            "critical_chain_s": self.critical_path.chain_s,
            "kernel_total_s": sum(k.total_s for k in self.kernels.values()),
            "kernel_launches": sum(k.count for k in self.kernels.values()),
        }

    def to_json(self) -> dict:
        return {
            "events": self.events,
            "nranks": self.nranks,
            "summary": self.summary_metrics(),
            "ranks": [self.ranks[r].to_json() for r in sorted(self.ranks)],
            "kernels": [
                self.kernels[n].to_json() for n in sorted(self.kernels)
            ],
            "queues": [q.to_json() for q in self.queues],
            "critical_path": self.critical_path.to_json(),
        }

    def to_text(self, title: str = "Trace reduction") -> str:
        lines = [title, "=" * len(title)]
        cp = self.critical_path
        lines.append(
            f"makespan {cp.makespan_s:.6f} s, critical chain {cp.chain_s:.6f} s"
            f" ({100 * cp.chain_fraction:.1f}%)"
        )
        comp = ", ".join(
            f"{k} {v:.6f}" for k, v in sorted(cp.composition.items())
        )
        lines.append(f"composition: {comp}")
        lines.append("per-rank overlap:")
        for r in sorted(self.ranks):
            rr = self.ranks[r]
            lines.append(
                f"  rank {r}: compute {rr.compute_s:.6f} s, "
                f"transfer {rr.transfer_s:.6f} s "
                f"({100 * rr.transfer_overlap_fraction:5.1f}% hidden), "
                f"comm {rr.comm_s:.6f} s "
                f"({100 * rr.comm_overlap_fraction:5.1f}% hidden)"
            )
        busiest = sorted(
            self.kernels.values(), key=lambda k: k.total_s, reverse=True
        )[:8]
        if busiest:
            lines.append("hottest kernels:")
            for k in busiest:
                lines.append(
                    f"  {k.name:<32} n={k.count:<5} total {k.total_s:.6f} s "
                    f"mean {k.mean_s:.3g} p95 {k.p95_s:.3g}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the reduction
# ----------------------------------------------------------------------
def rank_of_event(event: TraceEvent) -> int | None:
    """Which MPI rank an event belongs to, if any.

    Per-rank tracers merged via ``Tracer.absorb`` carry ``rank<r>:``
    process prefixes; halo spans live on the shared ``mpi`` process with
    ``rank:<r>`` tracks. Everything else (single-card runs, harness
    spans) has no rank."""
    m = _RANK_PROCESS.match(event.process)
    if m:
        return int(m.group(1))
    m = _RANK_TRACK.match(event.track)
    if m:
        return int(m.group(1))
    return None


def _class_of(cat: str) -> str | None:
    if cat in COMPUTE_CATS:
        return "compute"
    if cat in TRANSFER_CATS:
        return "transfer"
    if cat in COMM_CATS:
        return "comm"
    return None


def _longest_chain(spans: list[TraceEvent]) -> float:
    """Maximum total duration of mutually non-overlapping spans — the
    heaviest antichain-free path through the happens-before DAG (a span
    can only depend on spans that ended at or before its start)."""
    if not spans:
        return 0.0
    import bisect

    ordered = sorted(spans, key=lambda e: e.end)
    ends = [e.end for e in ordered]
    best: list[float] = []  # best[i]: max chain duration using spans [0..i]
    prefix = 0.0
    for ev in ordered:
        # the heaviest chain that finished by ev.start
        j = bisect.bisect_right(ends, ev.start, hi=len(best))
        before = best[j - 1] if j else 0.0
        prefix = max(prefix, before + ev.duration)
        best.append(prefix)
    return best[-1]


def _priority_sweep(
    classed: dict[str, list[tuple[float, float]]], t0: float, t1: float
) -> dict[str, float]:
    """Decompose [t0, t1] by class priority compute > comm > transfer:
    each instant is attributed to the highest-priority active class;
    'idle' is the remainder."""
    out: dict[str, float] = {}
    covered: list[tuple[float, float]] = []
    for cls in ("compute", "comm", "transfer"):
        busy = classed.get(cls, [])
        exclusive = _subtract(busy, covered)
        out[cls] = interval_measure(exclusive)
        covered = merge_intervals(covered + busy)
    span = max(0.0, t1 - t0)
    out["idle"] = max(0.0, span - interval_measure(covered))
    return out


def _subtract(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Disjoint sorted a minus disjoint sorted b."""
    if not b:
        return list(a)
    out: list[tuple[float, float]] = []
    j = 0
    for start, end in a:
        cur = start
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            if b[k][0] > cur:
                out.append((cur, b[k][0]))
            cur = max(cur, b[k][1])
            if cur >= end:
                break
            k += 1
        if cur < end:
            out.append((cur, end))
    return out


def reduce_trace(
    source: Tracer | Iterable[TraceEvent],
) -> TraceReduction:
    """Reduce a tracer (or raw event list) to scaling quantities."""
    events = source.events if isinstance(source, Tracer) else list(source)
    spans = [e for e in events if e.kind == SPAN]
    work = [e for e in spans if e.cat in WORK_CATS]

    # -- per-rank class intervals ---------------------------------------
    per_rank: dict[int, dict[str, list[tuple[float, float]]]] = {}
    extents: dict[int, tuple[float, float]] = {}
    for ev in work:
        cls = _class_of(ev.cat)
        assert cls is not None
        rank = rank_of_event(ev)
        rank = 0 if rank is None else rank
        per_rank.setdefault(rank, {}).setdefault(cls, []).append(
            (ev.start, ev.end)
        )
        lo, hi = extents.get(rank, (ev.start, ev.end))
        extents[rank] = (min(lo, ev.start), max(hi, ev.end))

    ranks: dict[int, RankReduction] = {}
    for rank, classes in sorted(per_rank.items()):
        compute = merge_intervals(classes.get("compute", []))
        transfer = merge_intervals(classes.get("transfer", []))
        comm = merge_intervals(classes.get("comm", []))
        lo, hi = extents[rank]
        ranks[rank] = RankReduction(
            rank=rank,
            compute_s=interval_measure(compute),
            transfer_s=interval_measure(transfer),
            comm_s=interval_measure(comm),
            transfer_overlap_s=interval_measure(
                intersect_intervals(compute, transfer)
            ),
            comm_overlap_s=interval_measure(
                intersect_intervals(compute, comm)
            ),
            makespan_s=hi - lo,
        )

    # -- per-kernel aggregates ------------------------------------------
    kernels: dict[str, KernelAggregate] = {}
    durations: dict[str, list[float]] = {}
    for ev in spans:
        if ev.cat in COMPUTE_CATS:
            durations.setdefault(ev.name, []).append(ev.duration)
    for name, durs in durations.items():
        durs.sort()
        kernels[name] = KernelAggregate(
            name=name,
            count=len(durs),
            total_s=sum(durs),
            mean_s=sum(durs) / len(durs),
            p95_s=percentile(durs, 0.95),
            max_s=durs[-1],
        )

    # -- global makespan + queue utilization ----------------------------
    if work:
        t0 = min(e.start for e in work)
        t1 = max(e.end for e in work)
    else:
        t0 = t1 = 0.0
    makespan = t1 - t0

    queue_busy: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for ev in work:
        if ev.cat in COMPUTE_CATS or ev.cat in TRANSFER_CATS:
            queue_busy.setdefault((ev.process, ev.track), []).append(
                (ev.start, ev.end)
            )
    queues = [
        QueueUtilization(
            process=proc,
            track=track,
            busy_s=(busy := interval_measure(merge_intervals(ivs))),
            utilization=busy / makespan if makespan else 0.0,
        )
        for (proc, track), ivs in sorted(queue_busy.items())
    ]

    # -- critical path ---------------------------------------------------
    classed_all: dict[str, list[tuple[float, float]]] = {}
    for ev in work:
        cls = _class_of(ev.cat)
        classed_all.setdefault(cls, []).append((ev.start, ev.end))
    classed_merged = {
        cls: merge_intervals(ivs) for cls, ivs in classed_all.items()
    }
    critical = CriticalPath(
        makespan_s=makespan,
        chain_s=_longest_chain(work),
        composition=_priority_sweep(classed_merged, t0, t1),
    )

    return TraceReduction(
        ranks=ranks,
        kernels=kernels,
        queues=queues,
        critical_path=critical,
        events=len(events),
    )


__all__ = [
    "COMPUTE_CATS",
    "TRANSFER_CATS",
    "COMM_CATS",
    "WORK_CATS",
    "merge_intervals",
    "interval_measure",
    "intersect_intervals",
    "percentile",
    "rank_of_event",
    "RankReduction",
    "KernelAggregate",
    "QueueUtilization",
    "CriticalPath",
    "TraceReduction",
    "reduce_trace",
]
