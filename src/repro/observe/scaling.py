"""The multi-rank scaling observatory: ``python -m repro scale``.

Sweeps the *executed* :class:`~repro.core.multigpu.MultiGpuPipeline`
across a set of rank counts, merges the per-rank tracers, reduces each
merged timeline with :func:`~repro.observe.reduce.reduce_trace`, and
asserts the scaling *shape* against the paper's closed-form cluster
model (:func:`~repro.core.multigpu.estimate_multi_gpu_modeling`): more
cards must shrink the compute backbone, grow the comm share from zero,
and never slow the modelled step down — the qualitative figure Paul et
al.'s hybrid distributed RTM publishes and the ROADMAP's scaling-study
item asks us to regenerate.

Shapes are larger than the trace CLI's (256^2 / 64^3): at 96^2 the
per-launch overheads dominate the slab kernels and strong scaling is
invisible. Grid data never moves through NumPy kernels here — the
per-rank pipelines run in estimate mode — so the sweep stays cheap while
every directive, transfer and halo message is real.

The sweep's artifact is ``BENCH_scaling.json``; each (case, ranks) point
also appends a ``scale`` record to the run ledger so ``repro report``
watches the overlap fractions drift over time (Assis et al.'s
dynamic-scheduling motivation) instead of measuring them once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.bench.workloads import (
    SEED_CASES,
    check_mode,
    is_all,
    parse_case,
    space_order,
)
from repro.observe.reduce import TraceReduction, reduce_trace
from repro.utils.errors import ConfigurationError

#: observatory grid sizes per dimensionality (bigger than the trace
#: CLI's so the slab kernels, not the launch overheads, set the shape)
SCALE_SHAPES = {2: (256, 256), 3: (64, 64, 64)}
#: time steps per point; the schedule pattern repeats, so few are needed
SCALE_NT = 16
SCALE_SNAP = 4
#: default rank counts of the study (the acceptance sweep)
DEFAULT_RANKS = (1, 2, 4, 8)
#: relative slack on monotonicity assertions (modelled clocks are exact,
#: but slab remainders make per-rank work slightly uneven)
SHAPE_TOL = 0.10

BENCH_SCHEMA = 1


@dataclass
class ScalePoint:
    """One (case, rank-count) run of the executed pipeline, reduced."""

    ranks: int
    makespan_s: float
    step_seconds: float
    compute_s: float
    transfer_s: float
    comm_s: float
    comm_overlap_fraction: float
    transfer_overlap_fraction: float
    critical_chain_s: float
    kernel_launches: int
    per_rank: list[dict] = field(default_factory=list)
    #: the paper cluster model's per-step prediction (None when the model
    #: refuses the decomposition, e.g. too-thin slabs)
    model_step_seconds: float | None = None
    model_comm_s: float | None = None
    #: filled by the case result once the ranks=1 anchor is known
    speedup: float | None = None
    efficiency: float | None = None

    def metrics(self) -> dict:
        """Flat ledger metrics for this point."""
        out = {
            "makespan_s": self.makespan_s,
            "step_seconds": self.step_seconds,
            "compute_s": self.compute_s,
            "transfer_s": self.transfer_s,
            "comm_s": self.comm_s,
            "comm_overlap_fraction": self.comm_overlap_fraction,
            "transfer_overlap_fraction": self.transfer_overlap_fraction,
            "critical_chain_s": self.critical_chain_s,
            "kernel_launches": float(self.kernel_launches),
        }
        if self.speedup is not None:
            out["speedup"] = self.speedup
        if self.efficiency is not None:
            out["efficiency"] = self.efficiency
        return out

    def to_json(self) -> dict:
        doc = {
            "ranks": self.ranks,
            "makespan_s": self.makespan_s,
            "step_seconds": self.step_seconds,
            "compute_s": self.compute_s,
            "transfer_s": self.transfer_s,
            "comm_s": self.comm_s,
            "comm_overlap_fraction": self.comm_overlap_fraction,
            "transfer_overlap_fraction": self.transfer_overlap_fraction,
            "critical_chain_s": self.critical_chain_s,
            "kernel_launches": self.kernel_launches,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "model_step_seconds": self.model_step_seconds,
            "model_comm_s": self.model_comm_s,
            "per_rank": list(self.per_rank),
        }
        return doc


@dataclass
class ScaleCaseResult:
    """One case's sweep over rank counts, with shape verdicts."""

    case: str
    mode: str
    nt: int
    shape: tuple[int, ...]
    points: list[ScalePoint]
    violations: list[str] = field(default_factory=list)

    @property
    def shape_ok(self) -> bool:
        return not self.violations

    def point(self, ranks: int) -> ScalePoint:
        for p in self.points:
            if p.ranks == ranks:
                return p
        raise ConfigurationError(f"no point at ranks={ranks}")

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "mode": self.mode,
            "nt": self.nt,
            "shape": list(self.shape),
            "shape_ok": self.shape_ok,
            "violations": list(self.violations),
            "points": [p.to_json() for p in self.points],
        }

    def to_text(self) -> str:
        head = f"{self.case} ({self.mode}, {'x'.join(map(str, self.shape))})"
        lines = [head, "-" * len(head)]
        lines.append(
            f"  {'ranks':>5} {'ms/step':>9} {'speedup':>8} {'eff':>6} "
            f"{'comm ms':>8} {'ovl%':>6} {'model ms/step':>13}"
        )
        for p in self.points:
            model = (
                f"{p.model_step_seconds * 1e3:13.4f}"
                if p.model_step_seconds is not None
                else f"{'x':>13}"
            )
            lines.append(
                f"  {p.ranks:>5} {p.step_seconds * 1e3:9.4f} "
                f"{p.speedup if p.speedup is not None else 1.0:8.2f} "
                f"{p.efficiency if p.efficiency is not None else 1.0:6.2f} "
                f"{p.comm_s * 1e3:8.4f} "
                f"{100 * p.comm_overlap_fraction:6.1f} {model}"
            )
        verdict = "shape OK" if self.shape_ok else "SHAPE VIOLATIONS:"
        lines.append(f"  {verdict}")
        for v in self.violations:
            lines.append(f"    - {v}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# one point
# ----------------------------------------------------------------------
def run_scale_point(
    case: str,
    ranks: int,
    mode: str = "rtm",
    nt: int = SCALE_NT,
    snap_period: int = SCALE_SNAP,
) -> tuple[ScalePoint, TraceReduction]:
    """Run one executed (case, ranks) point under per-rank tracers and
    reduce the merged timeline."""
    from repro.core import GPUOptions
    from repro.core.multigpu import MultiGpuPipeline, estimate_multi_gpu_modeling
    from repro.trace.tracer import Tracer

    if ranks < 1:
        raise ConfigurationError("ranks must be >= 1")
    check_mode(mode)
    physics, ndim = parse_case(case)
    shape = SCALE_SHAPES[ndim]
    order = space_order(ndim)

    rank_tracers = [Tracer() for _ in range(ranks)]
    merged = Tracer()
    pipeline = MultiGpuPipeline(
        physics, shape, ranks,
        options=GPUOptions(),
        space_order=order,
        boundary_width=8,
        tracers=rank_tracers,
        exchange_tracer=merged,
    )
    if mode == "rtm":
        pipeline.run_rtm(nt, snap_period)
    else:
        pipeline.run_modeling(nt, snap_period)
    for r, rt in enumerate(rank_tracers):
        merged.absorb(rt, process_prefix=f"rank{r}:")

    reduction = reduce_trace(merged)
    summary = reduction.summary_metrics()

    model = estimate_multi_gpu_modeling(
        physics, shape, nt, snap_period, ranks,
        space_order=order, boundary_width=8,
    )
    point = ScalePoint(
        ranks=ranks,
        makespan_s=summary["makespan_s"],
        step_seconds=summary["makespan_s"] / nt,
        compute_s=summary["compute_s"],
        transfer_s=summary["transfer_s"],
        comm_s=summary["comm_s"],
        comm_overlap_fraction=summary["comm_overlap_fraction"],
        transfer_overlap_fraction=summary["transfer_overlap_fraction"],
        critical_chain_s=summary["critical_chain_s"],
        kernel_launches=int(summary["kernel_launches"]),
        per_rank=[r.to_json() for r in reduction.ranks.values()],
        model_step_seconds=(model.total / nt) if model.success else None,
        model_comm_s=(model.comm if model.success else None),
    )
    return point, reduction


# ----------------------------------------------------------------------
# shape assertion
# ----------------------------------------------------------------------
def assert_scaling_shape(
    result: ScaleCaseResult, tol: float = SHAPE_TOL
) -> list[str]:
    """Check the sweep against the cluster model's qualitative shape;
    returns the violations (empty when the shape holds) and records them
    on ``result``."""
    v: list[str] = []
    pts = sorted(result.points, key=lambda p: p.ranks)
    if not pts:
        result.violations = ["no points"]
        return result.violations
    anchor = pts[0]
    if anchor.ranks != 1:
        v.append(f"sweep has no single-rank anchor (starts at {anchor.ranks})")
    else:
        if anchor.comm_s > 0.0:
            v.append(f"ranks=1 shows comm time ({anchor.comm_s:.3g} s)")
    for prev, cur in zip(pts, pts[1:]):
        # compute backbone shrinks (the strong-scaling axis)
        if cur.compute_s > prev.compute_s * (1.0 + tol):
            v.append(
                f"compute grew {prev.compute_s:.4g} -> {cur.compute_s:.4g} s "
                f"at ranks {prev.ranks} -> {cur.ranks}"
            )
        # comm appears and never shrinks (more interfaces, never fewer)
        if cur.comm_s < prev.comm_s * (1.0 - tol):
            v.append(
                f"comm shrank {prev.comm_s:.4g} -> {cur.comm_s:.4g} s "
                f"at ranks {prev.ranks} -> {cur.ranks}"
            )
        # modelled step never slows down
        if cur.makespan_s > prev.makespan_s * (1.0 + tol):
            v.append(
                f"makespan grew {prev.makespan_s:.4g} -> {cur.makespan_s:.4g} s "
                f"at ranks {prev.ranks} -> {cur.ranks}"
            )
    for p in pts[1:]:
        if p.comm_s <= 0.0:
            v.append(f"ranks={p.ranks} shows no comm time")
        if p.speedup is not None and p.efficiency is not None:
            if p.efficiency > 1.0 + tol:
                v.append(
                    f"super-linear efficiency {p.efficiency:.2f} at "
                    f"ranks={p.ranks}"
                )
        # agreement with the paper's cluster model: where the closed form
        # accepts the decomposition it must agree scaling does not hurt
        if p.model_step_seconds is not None and anchor.model_step_seconds:
            model_speedup = anchor.model_step_seconds / p.model_step_seconds
            if model_speedup < 1.0 - tol:
                v.append(
                    f"cluster model predicts slowdown {model_speedup:.2f}x "
                    f"at ranks={p.ranks} — measured shape unanchored"
                )
            if p.speedup is not None and p.speedup < 1.0 - tol:
                v.append(
                    f"measured slowdown {p.speedup:.2f}x at ranks={p.ranks} "
                    "contradicts the cluster model"
                )
    result.violations = v
    return v


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def run_scale_case(
    case: str,
    ranks: tuple[int, ...] = DEFAULT_RANKS,
    mode: str = "rtm",
    nt: int = SCALE_NT,
    ledger_path: str | None = None,
) -> ScaleCaseResult:
    """Sweep one case over ``ranks``; optionally append each point to the
    run ledger."""
    from repro.observe.ledger import append_run
    from repro.observe.runlog import RunLog

    _, ndim = parse_case(case)
    points: list[ScalePoint] = []
    for n in sorted(set(int(r) for r in ranks)):
        runlog = RunLog(command="scale", case=case, mode=mode, ranks=n, nt=nt)
        with runlog.activate():
            point, _ = run_scale_point(case, n, mode=mode, nt=nt)
        points.append(point)
        if points[0].ranks == 1 and point.ranks > 1:
            point.speedup = points[0].makespan_s / point.makespan_s
            point.efficiency = point.speedup / point.ranks
        append_run(ledger_path, runlog, point.metrics())
    result = ScaleCaseResult(
        case=case, mode=mode, nt=nt, shape=SCALE_SHAPES[ndim], points=points,
    )
    assert_scaling_shape(result)
    return result


def run_scale_sweep(
    cases: tuple[str, ...] = SEED_CASES,
    ranks: tuple[int, ...] = DEFAULT_RANKS,
    mode: str = "rtm",
    nt: int = SCALE_NT,
    ledger_path: str | None = None,
) -> dict:
    """The full observatory sweep; returns the BENCH_scaling document."""
    results = [
        run_scale_case(c, ranks=ranks, mode=mode, nt=nt,
                       ledger_path=ledger_path)
        for c in cases
    ]
    return {
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "nt": nt,
        "ranks": sorted(set(int(r) for r in ranks)),
        "shapes": {str(d): list(s) for d, s in sorted(SCALE_SHAPES.items())},
        "shape_ok": all(r.shape_ok for r in results),
        "cases": {r.case: r.to_json() for r in results},
    }


def parse_ranks(text: str) -> tuple[int, ...]:
    """``'1,2,4,8'`` -> ``(1, 2, 4, 8)``."""
    try:
        ranks = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(
            f"--ranks wants a comma-separated int list, not '{text}'"
        ) from None
    if not ranks or any(r < 1 for r in ranks):
        raise ConfigurationError(f"--ranks values must be >= 1 (got '{text}')")
    return ranks


def run_scale_command(args) -> int:
    """``python -m repro scale`` entry point (argparse namespace in)."""
    from repro.observe.ledger import ledger_path_from_args

    cases = SEED_CASES if is_all(args.case) else tuple(args.case.split(","))
    ranks = parse_ranks(args.ranks)
    ledger_path = ledger_path_from_args(args)
    doc = run_scale_sweep(
        cases=cases, ranks=ranks, mode=args.mode, nt=args.nt,
        ledger_path=ledger_path,
    )
    for case in doc["cases"].values():
        result = ScaleCaseResult(
            case=case["case"], mode=case["mode"], nt=case["nt"],
            shape=tuple(case["shape"]),
            points=[_point_from_json(p) for p in case["points"]],
            violations=list(case["violations"]),
        )
        print(result.to_text())
        print()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    if ledger_path is not None:
        print(f"ledger {ledger_path}")
    if not doc["shape_ok"]:
        print("scaling shape violations detected")
        return 1
    return 0


def _point_from_json(doc: dict) -> ScalePoint:
    return ScalePoint(
        ranks=doc["ranks"],
        makespan_s=doc["makespan_s"],
        step_seconds=doc["step_seconds"],
        compute_s=doc["compute_s"],
        transfer_s=doc["transfer_s"],
        comm_s=doc["comm_s"],
        comm_overlap_fraction=doc["comm_overlap_fraction"],
        transfer_overlap_fraction=doc["transfer_overlap_fraction"],
        critical_chain_s=doc["critical_chain_s"],
        kernel_launches=doc["kernel_launches"],
        per_rank=list(doc.get("per_rank", ())),
        model_step_seconds=doc.get("model_step_seconds"),
        model_comm_s=doc.get("model_comm_s"),
        speedup=doc.get("speedup"),
        efficiency=doc.get("efficiency"),
    )


__all__ = [
    "SCALE_SHAPES",
    "SCALE_NT",
    "DEFAULT_RANKS",
    "SHAPE_TOL",
    "ScalePoint",
    "ScaleCaseResult",
    "run_scale_point",
    "assert_scaling_shape",
    "run_scale_case",
    "run_scale_sweep",
    "parse_ranks",
    "run_scale_command",
]
