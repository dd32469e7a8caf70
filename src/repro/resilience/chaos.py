"""The chaos harness behind ``python -m repro chaos``.

For each seed case the harness:

1. runs the **fault-free reference** under a counting injector (empty
   plan) — this yields both the golden outputs and the per-category
   operation-count envelope;
2. draws a seeded :class:`~repro.resilience.faults.FaultPlan` over that
   envelope (one spec per fault kind, injection points uniform over the
   operations the run actually performs);
3. runs each spec through the matching resilient wrapper
   (:class:`~repro.resilience.recovery.ResilientPipeline` single-card,
   :class:`~repro.resilience.recovery.ResilientMultiGpu` when
   ``ranks > 1``) and compares the recovered answer against the
   reference — exact first, then a tight ``allclose``.

Everything is a pure function of ``(case, mode, seed, ranks, nt)``: no
wall clock, no global RNG — identical seeds produce identical
:class:`~repro.resilience.report.ResilienceReport` JSON.
"""

from __future__ import annotations

import numpy as np

from repro.bench.workloads import (
    SEED_CASES,
    check_mode,
    expand_modes,
    is_all,
    parse_case,
    small_case_config,
    space_order,
)
from repro.resilience.faults import (
    DEVICE_KINDS,
    MPI_KINDS,
    RANK_DEAD,
    FaultPlan,
    parse_faults,
)
from repro.resilience.injector import FaultInjector
from repro.resilience.recovery import (
    BackoffPolicy,
    ResilientMultiGpu,
    ResilientPipeline,
)
from repro.resilience.report import FaultOutcome, ResilienceReport
from repro.utils.errors import ConfigurationError, ReproError

#: chaos-run grid sizes — smaller than the trace CLI's: each case runs
#: once per fault kind plus the reference
CHAOS_SHAPES = {2: (64, 64), 3: (32, 32, 32)}

#: fault kinds exercised per world size
SINGLE_RANK_KINDS = DEVICE_KINDS
MULTI_RANK_KINDS = DEVICE_KINDS + MPI_KINDS + (RANK_DEAD,)

_RTOL, _ATOL = 1e-5, 1e-6


def _equivalent(a: np.ndarray, b: np.ndarray) -> tuple[bool, str]:
    """Exact first (recovery replays the same NumPy ops on restored bits),
    tolerance second; returns (equivalent, note)."""
    if np.array_equal(a, b):
        return True, "bitwise"
    if a.shape == b.shape and np.allclose(a, b, rtol=_RTOL, atol=_ATOL):
        return True, "allclose"
    return False, "mismatch"


def _min_rank_envelope(injector: FaultInjector, ranks: int) -> dict[str, int]:
    """Per-category op counts safe for *any* rank filter: rank-filtered
    specs fire against their rank's own counter, so the seeded op index
    must fit inside the smallest per-rank count."""
    if ranks <= 1:
        return injector.op_counts()
    out: dict[str, int] = {}
    for cat in injector.op_counts():
        per_rank = [injector.op_count(cat, rank=r) for r in range(ranks)]
        floor = min(per_rank)
        if floor > 0:
            out[cat] = floor
    return out


def _outcome_from_stats(
    case: str, mode: str, kind: str, spec_str: str, injector: FaultInjector,
    stats, recovered: bool, equivalent: bool, notes: str,
) -> FaultOutcome:
    return FaultOutcome(
        case=case,
        mode=mode,
        kind=kind,
        spec=spec_str,
        injected=len(injector.events),
        detected=stats.detected > 0,
        retries=stats.retries,
        restarts=stats.restarts,
        degraded=",".join(stats.degraded),
        recovered=recovered,
        equivalent=equivalent,
        recovery_cost_s=stats.recovery_cost_s,
        events=tuple(ev.label() for ev in injector.events),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# single-card campaign (the 12 executed seed cases)
# ---------------------------------------------------------------------------

def run_chaos_case(
    case: str,
    mode: str = "rtm",
    seed: int = 7,
    nt: int = 16,
    faults: str | None = None,
    kinds: tuple[str, ...] | None = None,
    tracer=None,
) -> list[FaultOutcome]:
    """Chaos one executed single-card case; one outcome per fault spec."""
    from repro.core.config import GPUOptions, ModelingConfig, RTMConfig

    check_mode(mode)
    physics, ndim = parse_case(case)
    kw = small_case_config(physics, CHAOS_SHAPES[ndim], nt)
    cfg_cls = RTMConfig if mode == "rtm" else ModelingConfig

    def build(plan, inj_tracer=None):
        return ResilientPipeline(
            cfg_cls(**kw),
            gpu_options=GPUOptions(),
            tracer=inj_tracer,
            plan=plan,
            backoff=BackoffPolicy(seed=seed),
        )

    # fault-free reference: golden outputs + the op-count envelope
    ref = build(None)
    ref_result = ref.run_rtm() if mode == "rtm" else ref.run_modeling()
    ref_answer = (
        ref_result.image if mode == "rtm" else ref_result.final_wavefield
    )
    envelope = ref.injector.op_counts()

    if faults:
        specs = parse_faults(faults)
    else:
        wanted = kinds if kinds is not None else SINGLE_RANK_KINDS
        specs = FaultPlan.seeded(seed, tuple(wanted), envelope).specs

    outcomes = []
    for spec in specs:
        plan = FaultPlan(seed=seed, specs=(spec,))
        run = build(plan, inj_tracer=tracer)
        recovered, equivalent, notes = False, False, ""
        try:
            result = run.run_rtm() if mode == "rtm" else run.run_modeling()
            answer = result.image if mode == "rtm" else result.final_wavefield
            recovered = True
            equivalent, notes = _equivalent(ref_answer, answer)
            if mode == "modeling" and equivalent:
                equivalent, notes = _equivalent(
                    ref_result.seismogram, result.seismogram
                )
        except ReproError as exc:
            notes = f"{type(exc).__name__}: {exc}"
        outcomes.append(_outcome_from_stats(
            case, mode, spec.kind, spec.spec_string(), run.injector,
            run.stats, recovered, equivalent, notes,
        ))
    return outcomes


# ---------------------------------------------------------------------------
# decomposed campaign (ranks > 1)
# ---------------------------------------------------------------------------

def run_chaos_case_multigpu(
    case: str,
    mode: str = "rtm",
    seed: int = 7,
    ranks: int = 2,
    nt: int = 12,
    faults: str | None = None,
    kinds: tuple[str, ...] | None = None,
    tracer=None,
) -> list[FaultOutcome]:
    """Chaos one decomposed case over ``ranks`` simulated cards."""
    check_mode(mode)
    if ranks < 2:
        raise ConfigurationError("multi-GPU chaos needs ranks >= 2")
    physics, ndim = parse_case(case)
    shape = CHAOS_SHAPES[ndim]
    snap = 4

    def build(plan, inj_tracer=None):
        return ResilientMultiGpu(
            physics, shape, ranks,
            plan=plan,
            backoff=BackoffPolicy(seed=seed),
            boundary_width=8,
            space_order=space_order(ndim),
            seed=seed,
            tracer=inj_tracer,
        )

    ref = build(None)
    ref_answer = ref.run(nt, snap, mode=mode)
    envelope = _min_rank_envelope(ref.injector, ranks)

    if faults:
        specs = parse_faults(faults)
    else:
        wanted = kinds if kinds is not None else MULTI_RANK_KINDS
        specs = FaultPlan.seeded(seed, tuple(wanted), envelope, ranks=ranks).specs

    outcomes = []
    for spec in specs:
        plan = FaultPlan(seed=seed, specs=(spec,))
        run = build(plan, inj_tracer=tracer)
        recovered, equivalent, notes = False, False, ""
        try:
            answer = run.run(nt, snap, mode=mode)
            recovered = True
            equivalent, notes = _equivalent(ref_answer, answer)
        except ReproError as exc:
            notes = f"{type(exc).__name__}: {exc}"
        outcomes.append(_outcome_from_stats(
            case, mode, spec.kind, spec.spec_string(), run.injector,
            run.stats, recovered, equivalent, notes,
        ))
    return outcomes


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def run_chaos_campaign(
    cases: tuple[str, ...] | None = None,
    modes: tuple[str, ...] = ("modeling", "rtm"),
    seed: int = 7,
    ranks: int = 1,
    nt: int | None = None,
    faults: str | None = None,
    tracer=None,
) -> ResilienceReport:
    """The full campaign: every case x mode x fault kind."""
    cases = tuple(cases) if cases else SEED_CASES
    report = ResilienceReport(seed=seed, ranks=ranks)
    for case in cases:
        for mode in modes:
            if ranks > 1:
                rows = run_chaos_case_multigpu(
                    case, mode=mode, seed=seed, ranks=ranks,
                    nt=nt if nt is not None else 12,
                    faults=faults, tracer=tracer,
                )
            else:
                rows = run_chaos_case(
                    case, mode=mode, seed=seed,
                    nt=nt if nt is not None else 16,
                    faults=faults, tracer=tracer,
                )
            for row in rows:
                report.add(row)
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_chaos_command(args) -> int:
    """``python -m repro chaos`` entry point (argparse namespace in)."""
    tracer = None
    if getattr(args, "trace", None):
        from repro.trace.tracer import Tracer

        tracer = Tracer()

    from repro.observe import RunLog, append_run, ledger_path_from_args

    modes = expand_modes(args.mode)
    cases = None if is_all(args.case) else (args.case,)
    runlog = RunLog(command="chaos", case=args.case, mode=args.mode,
                    ranks=args.ranks, seed=args.seed)
    with runlog.activate():
        report = run_chaos_campaign(
            cases=cases, modes=modes, seed=args.seed, ranks=args.ranks,
            nt=args.nt, faults=args.faults, tracer=tracer,
        )

    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
        if args.format != "json":
            print(text)
    else:
        print(text)

    if tracer is not None:
        from repro.trace.export import write_perfetto

        write_perfetto(tracer, args.trace)
        print(f"wrote {args.trace}")

    runs = len(report.outcomes)
    injected = report.injected
    ledger_path = ledger_path_from_args(args)
    record = append_run(
        ledger_path, runlog,
        {
            "runs": float(runs),
            "injected": float(injected),
            "unrecovered": float(report.unrecovered),
            "recovered_fraction": (
                1.0 - report.unrecovered / runs if runs else 1.0
            ),
            "recovery_cost_s": report.recovery_cost_s,
        },
    )
    if record is not None:
        print(f"ledger {ledger_path} (run {record.run_id})")
    return 0 if report.unrecovered == 0 else 1


__all__ = [
    "CHAOS_SHAPES",
    "SINGLE_RANK_KINDS",
    "MULTI_RANK_KINDS",
    "run_chaos_case",
    "run_chaos_case_multigpu",
    "run_chaos_campaign",
    "run_chaos_command",
]
