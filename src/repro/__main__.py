"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Regenerate and print the paper's Tables 3 and 4.
``figures``
    Print the Figure 6-13 studies (optionally one by name, e.g. ``fig12``).
``plan PHYSICS NZ [NX [NY]]``
    Offload-residency plan for a case on both cards.
``sweep``
    Grid-size speedup sweep (acoustic 2-D on the K40).
``experiments [PATH]``
    Write the full EXPERIMENTS.md report.
``json [PATH]``
    Write machine-readable harness results.
``trace CASE``
    Run one case fully instrumented and write a Perfetto ``trace.json``.
``lint CASE | all | --script FILE``
    Static analysis of a case's recorded directive schedule (or of an
    ``!$acc`` script) — present-table lifetimes, async races, schedule
    smells, transfer efficiency. ``--deep`` adds the whole-program
    dataflow engine's fixed-point coherence proofs (``DF*`` findings
    with event-chain witnesses) and appends a ledger record.
    ``--fail-on SEVERITY`` gates the exit code.
``deps CASE | all | --script FILE [--ranks N]``
    Whole-program dependence graph of a case's recorded schedule:
    RAW/WAR/WAW edges + happens-before summary, detected step loops,
    cross-rank send/recv matching (``--ranks``), and machine-verified
    fusion/hoisting opportunities. ``--dot FILE`` exports Graphviz;
    ``--opportunities FILE`` writes the schema-validated JSON artifact
    (see ``docs/dataflow.md``).
``chaos CASE | all [--seed S] [--faults SPEC] [--ranks N]``
    Seeded fault-injection campaign: run each case under injected PCIe /
    kernel / ECC / OOM / MPI / dead-rank faults, recover via retry,
    checkpoint restart or degradation, and verify the recovered answer
    matches the fault-free run (see ``docs/resilience.md``).
``tune CASE [--budget N] [--out plan.json]``
    Closed-loop schedule auto-tuning: probe the case under a tracer,
    search vector length / registers / construct / async, write a
    TuningPlan JSON (see ``docs/tuning.md``).
``sanitize CASE | all | --script FILE [--ranks N] [--fix]``
    Dynamic coherence sanitizer + cross-rank halo race detector: run a
    case's per-rank schedule (or replay a script) under shadow-state and
    vector-clock checking; ``--fix`` applies the proposed directive
    edits to a script and re-sanitizes (see ``docs/analysis.md``).
``scale CASE | all [--ranks 1,2,4,8]``
    Multi-rank scaling observatory: sweep the executed multi-GPU
    pipeline over rank counts, reduce each merged trace to overlap /
    comm / critical-path metrics, assert the scaling shape against the
    paper's cluster model, and write ``BENCH_scaling.json`` (see
    ``docs/observability.md``).
``serve CASE | all [--shots N] [--workers W,...] [--faults SPEC]``
    Shot-parallel RTM service: schedule a survey's shots across
    simulated worker nodes with admission control, bounded-queue
    backpressure and fault-tolerant recovery (dead workers requeue
    their in-flight shots; duplicates are served from the result
    cache), verify the stacked image bitwise against the fault-free
    serial golden, and write ``BENCH_service.json`` (see
    ``docs/service.md``).
``report [--check]``
    Diff the latest run of every ledger group against its history;
    ``--check`` exits non-zero on regression (the CI gate).
``compile CASE | all [--opportunities F] [--plan P] [--bench FILE]``
    Fused-kernel lowering of a case's recorded directive schedule:
    apply the verified dataflow opportunities, flatten the schedule
    into per-phase compiled steps, verify bitwise against the
    interpreted pipeline, and optionally wall-clock both
    (``BENCH_step.json``; see ``docs/compile.md``).
``validate CASE | all [--artifact FILE] [--format text|json|sarif]``
    Static proofs over a case's recorded schedule: the capacity prover's
    per-phase device high-water marks (``DF210`` would-OOM, ``DF211``
    checkpoint spike) plus the translation validator's simulation proof
    of the compiled lowering (``DF201``-``DF204``), merged into one
    report (see ``docs/validate.md``).

``tables``/``figures``/``sweep`` also accept ``--trace PATH`` to record a
harness-level (wall-clock) trace of the run; ``tables``/``figures`` accept
``--plan plan.json`` to apply a tuning plan to its matching case.

``trace``/``chaos``/``tune``/``scale``/``serve`` append one structured
record per run to the run ledger (``.repro/ledger.jsonl`` by default; ``--ledger
PATH`` moves it, ``--no-ledger`` disables it) — the trajectory ``report``
reads back.
"""

from __future__ import annotations

import argparse
import sys


def _harness_tracer(args):
    """Wall-clock tracer for ``--trace PATH`` on the harness commands (the
    dedicated ``trace`` command uses the device's simulated clock instead)."""
    from repro.trace import NULL_TRACER, Tracer

    return Tracer() if getattr(args, "trace", None) else NULL_TRACER


def _write_harness_trace(args, tracer) -> None:
    if getattr(args, "trace", None):
        from repro.trace import write_perfetto

        write_perfetto(tracer, args.trace)
        print(f"wrote {args.trace}")


def _load_plan(args):
    """The ``--plan PATH`` tuning plan, or None."""
    if not getattr(args, "plan", None):
        return None
    from repro.optim.autotune import load_plan

    plan = load_plan(args.plan)
    print(f"applying tuning plan {args.plan} "
          f"({plan.case} {plan.mode}, {plan.compiler} on {plan.platform})")
    return plan


def _cmd_tables(args) -> int:
    from repro.bench import format_table3, format_table4

    plan = _load_plan(args)
    tracer = _harness_tracer(args)
    with tracer.span("tables", track="cli", cat="harness"):
        with tracer.span("table3", track="cli", cat="harness"):
            print(format_table3(plan=plan))
        print()
        with tracer.span("table4", track="cli", cat="harness"):
            print(format_table4(plan=plan))
    _write_harness_trace(args, tracer)
    return 0


#: the names ``repro figures NAME`` accepts
_FIGURES = tuple(f"fig{n}" for n in range(6, 16)) + ("tuned",)


def _cmd_figures(args) -> int:
    from repro.bench import figures
    from repro.bench.report import format_series

    wanted = args.name
    if wanted is not None and wanted not in _FIGURES:
        from repro.utils.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown figure '{wanted}' (expected one of: "
            f"{', '.join(_FIGURES)})"
        )
    plan = _load_plan(args)
    tracer = _harness_tracer(args)

    def want(tag):
        return wanted is None or wanted == tag

    if plan is not None and (wanted is None or wanted == "tuned"):
        with tracer.span("tuned", track="cli", cat="harness"):
            print(format_series(
                f"Auto-tuned — {plan.case} {plan.mode} step time "
                f"({plan.compiler})",
                figures.plan_comparison(plan),
            ))

    if want("fig6") or want("fig7"):
        with tracer.span("fig6_fig7", track="cli", cat="harness"):
            for comp, series in figures.fig6_fig7_iso_variants().items():
                print(format_series(f"Figs 6/7 — ISO 3D variants ({comp})", series))
    if want("fig8") or want("fig9"):
        with tracer.span("fig8_fig9", track="cli", cat="harness"):
            for dim, series in figures.fig8_fig9_acoustic_constructs().items():
                print(format_series(f"Figs 8/9 — acoustic {dim} on CRAY", series))
    if want("fig10"):
        with tracer.span("fig10", track="cli", cat="harness"):
            pts = figures.fig10_register_sweep()
            print(format_series(
                "Fig 10 — elastic 3D registers/thread (K40)",
                {str(p.maxregcount): p.seconds for p in pts},
            ))
    if want("fig11"):
        with tracer.span("fig11", track="cli", cat="harness"):
            print(format_series("Fig 11 — async improvement fraction",
                                figures.fig11_async(), unit=""))
    if want("fig12"):
        with tracer.span("fig12", track="cli", cat="harness"):
            for card, s in figures.fig12_fission().items():
                print(format_series(f"Fig 12 — acoustic 3D fission ({card})", s))
    if want("fig13"):
        with tracer.span("fig13", track="cli", cat="harness"):
            for card, s in figures.fig13_coalescing().items():
                print(format_series(f"Fig 13 — coalescing fix ({card})", s))
    if want("fig14") or want("fig15"):
        with tracer.span("fig14_fig15", track="cli", cat="harness"):
            for label, rep in figures.fig14_fig15_profiles().items():
                print(f"Figs 14/15 — profile ({label})")
                print(rep.to_text())
                print()
    _write_harness_trace(args, tracer)
    return 0


def _cmd_plan(args) -> int:
    from repro.core import plan_offload
    from repro.gpusim import K40, M2090

    shape = tuple(args.dims)
    for spec in (M2090, K40):
        print(plan_offload(args.physics, shape, spec).report())
        print()
    return 0


def _cmd_sweep(args) -> int:
    from repro.bench import grid_size_sweep

    tracer = _harness_tracer(args)
    with tracer.span("sweep", track="cli", cat="harness", nt=args.nt):
        for p in grid_size_sweep(nt=args.nt):
            tracer.instant(f"point:{int(p.x)}", track="cli", cat="harness",
                           speedup=p.speedup)
            print(f"  {int(p.x):>5}^2 : speedup {p.speedup:5.2f} "
                  f"(GPU {p.gpu_total:.2f} s, CPU {p.cpu_total:.2f} s)")
    _write_harness_trace(args, tracer)
    return 0


def _cmd_experiments(args) -> int:
    from repro.bench.experiments import generate

    generate(args.path)
    print(f"wrote {args.path}")
    return 0


def _cmd_json(args) -> int:
    from repro.bench.experiments import write_json

    write_json(args.path)
    print(f"wrote {args.path}")
    return 0


def _cmd_trace(args) -> int:
    from repro.trace.cli import run_trace_command

    return run_trace_command(args)


def _cmd_lint(args) -> int:
    from repro.analyze.cli import run_lint_command

    return run_lint_command(args)


def _cmd_deps(args) -> int:
    from repro.analyze.dataflow.cli import run_deps_command

    return run_deps_command(args)


def _cmd_chaos(args) -> int:
    from repro.resilience.chaos import run_chaos_command

    return run_chaos_command(args)


def _cmd_tune(args) -> int:
    from repro.optim.autotune import run_tune_command

    return run_tune_command(args)


def _cmd_sanitize(args) -> int:
    from repro.sanitize.cli import run_sanitize_command

    return run_sanitize_command(args)


def _cmd_scale(args) -> int:
    from repro.observe.scaling import run_scale_command

    return run_scale_command(args)


def _cmd_serve(args) -> int:
    from repro.serve.campaign import run_serve_command

    return run_serve_command(args)


def _cmd_report(args) -> int:
    from repro.observe.report import run_report_command

    return run_report_command(args)


def _cmd_compile(args) -> int:
    from repro.compile.cli import run_compile_command

    return run_compile_command(args)


def _cmd_validate(args) -> int:
    from repro.analyze.validate_cli import run_validate_command

    return run_validate_command(args)


def _add_ledger_args(p) -> None:
    from repro.observe.ledger import DEFAULT_LEDGER_PATH

    p.add_argument("--ledger", metavar="PATH", default=DEFAULT_LEDGER_PATH,
                   help="run-ledger JSONL path "
                   f"(default {DEFAULT_LEDGER_PATH})")
    p.add_argument("--no-ledger", action="store_true",
                   help="do not append this run to the ledger")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'GPU Technology Applied to "
        "RTM and Seismic Modeling via OpenACC' (PMAM/PPoPP 2015)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="regenerate Tables 3 and 4")
    t.add_argument("--trace", metavar="PATH", help="write a harness trace")
    t.add_argument("--plan", metavar="PATH",
                   help="apply a tuning plan JSON to its matching case")
    t.set_defaults(fn=_cmd_tables)

    f = sub.add_parser("figures", help="regenerate the Figure 6-15 studies")
    f.add_argument("name", nargs="?",
                   help="one figure, e.g. fig12 (or 'tuned' with --plan)")
    f.add_argument("--trace", metavar="PATH", help="write a harness trace")
    f.add_argument("--plan", metavar="PATH",
                   help="print the plan's default-vs-tuned step-time study")
    f.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("plan", help="offload residency plan for one case")
    p.add_argument("physics", choices=["isotropic", "acoustic", "elastic", "vti"])
    p.add_argument("dims", nargs="+", type=int,
                   help="grid shape, e.g. 512 512 512")
    p.set_defaults(fn=_cmd_plan)

    s = sub.add_parser("sweep", help="grid-size speedup sweep")
    s.add_argument("--nt", type=int, default=100)
    s.add_argument("--trace", metavar="PATH", help="write a harness trace")
    s.set_defaults(fn=_cmd_sweep)

    e = sub.add_parser("experiments", help="write EXPERIMENTS.md")
    e.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    e.set_defaults(fn=_cmd_experiments)

    j = sub.add_parser("json", help="write machine-readable results")
    j.add_argument("path", nargs="?", default="experiments.json")
    j.set_defaults(fn=_cmd_json)

    tr = sub.add_parser(
        "trace",
        help="run one case instrumented; write a Perfetto trace.json",
    )
    tr.add_argument("case", help="e.g. iso2d, acoustic3d, el2d")
    tr.add_argument("--mode", choices=["modeling", "rtm"], default="rtm")
    tr.add_argument("--nt", type=int, default=60, help="time steps")
    tr.add_argument("--ranks", type=int, default=1,
                    help="simulated MPI ranks for a halo-exchange superstep")
    tr.add_argument("--out", default="trace.json", help="Perfetto JSON path")
    tr.add_argument("--jsonl", metavar="PATH", help="also write flat JSONL")
    _add_ledger_args(tr)
    tr.set_defaults(fn=_cmd_trace)

    li = sub.add_parser(
        "lint",
        help="static analysis of directive schedules (recorded or scripted)",
    )
    li.add_argument(
        "case", nargs="?",
        help="e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory",
    )
    li.add_argument("--script", metavar="FILE",
                    help="lint an !$acc directive script instead of a case")
    li.add_argument("--mode", choices=["modeling", "rtm", "both"],
                    default="rtm")
    li.add_argument("--nt", type=int, default=24,
                    help="recorded time steps (pattern repeats; keep small)")
    li.add_argument("--compiler", metavar="NAME",
                    help="compiler persona, e.g. pgi-14.6, cray-8.2.6")
    li.add_argument("--json", action="store_true",
                    help="machine-readable report (alias of --format json)")
    li.add_argument("--format", choices=["text", "json", "sarif"],
                    default=None,
                    help="report format (default text; sarif for CI "
                    "code-scanning uploads)")
    li.add_argument("--deep", action="store_true",
                    help="add the whole-program dataflow engine: "
                    "fixed-point coherence proofs with DF* codes and "
                    "event-chain witnesses (appends a ledger record)")
    li.add_argument("--fail-on", default="error",
                    metavar="SEVERITY",
                    help="exit non-zero at/above this severity "
                    "(info|warning|error|none; default error)")
    _add_ledger_args(li)
    li.set_defaults(fn=_cmd_lint)

    de = sub.add_parser(
        "deps",
        help="whole-program dependence graph, cross-rank checks, and "
        "verified fusion/hoisting opportunities",
    )
    de.add_argument(
        "case", nargs="?",
        help="e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory",
    )
    de.add_argument("--script", metavar="FILE",
                    help="analyze an !$acc directive script instead of a case")
    de.add_argument("--mode", choices=["modeling", "rtm", "both"],
                    default="rtm")
    de.add_argument("--nt", type=int, default=24,
                    help="recorded time steps (pattern repeats; keep small)")
    de.add_argument("--ranks", type=int, default=1,
                    help="simulated MPI ranks; >1 enables the cross-rank "
                    "send/recv matching and deadlock pass")
    de.add_argument("--dot", metavar="FILE",
                    help="write the Graphviz dependence graph of a single "
                    "target")
    de.add_argument("--opportunities", metavar="FILE",
                    help="write the schema-validated OptimizationOpportunity "
                    "JSON artifact")
    de.add_argument("--no-verify", action="store_true",
                    help="skip the bitwise replay verification of each "
                    "opportunity (faster; verified count will be 0)")
    de.add_argument("--format", choices=["text", "json"], default="text")
    de.add_argument("--fail-on", default="none",
                    metavar="SEVERITY",
                    help="exit non-zero on cross-rank findings at/above "
                    "this severity (error|none; default none)")
    de.set_defaults(fn=_cmd_deps)

    sa = sub.add_parser(
        "sanitize",
        help="dynamic coherence sanitizer + cross-rank halo race detector",
    )
    sa.add_argument(
        "case", nargs="?",
        help="e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory",
    )
    sa.add_argument("--script", metavar="FILE",
                    help="replay an !$acc directive script instead of a case")
    sa.add_argument("--ranks", type=int, default=1,
                    help="simulated GPUs/MPI ranks (default 1)")
    sa.add_argument("--mode", choices=["modeling", "rtm", "both"],
                    default="rtm")
    sa.add_argument("--nt", type=int, default=8,
                    help="recorded time steps (pattern repeats; keep small)")
    sa.add_argument("--fix", action="store_true",
                    help="apply proposed directive edits to the --script "
                    "file and re-sanitize")
    sa.add_argument("--output", metavar="FILE",
                    help="with --fix: write the fixed script here instead "
                    "of in place")
    sa.add_argument("--json", action="store_true",
                    help="machine-readable report (alias of --format json)")
    sa.add_argument("--format", choices=["text", "json", "sarif"],
                    default=None,
                    help="report format (default text)")
    sa.add_argument("--fail-on", default="error",
                    metavar="SEVERITY",
                    help="exit non-zero at/above this severity "
                    "(info|warning|error|none; default error)")
    sa.set_defaults(fn=_cmd_sanitize)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign with executed recovery",
    )
    ch.add_argument(
        "case",
        help="e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory",
    )
    ch.add_argument("--seed", type=int, default=7,
                    help="campaign seed (identical seeds reproduce "
                    "identical reports; default 7)")
    ch.add_argument("--faults", metavar="SPEC",
                    help="explicit fault specs 'kind[@op][xN][:rank],...' "
                    "instead of the seeded per-kind sweep")
    ch.add_argument("--ranks", type=int, default=1,
                    help="simulated GPUs/MPI ranks (>1 adds message and "
                    "dead-rank faults; default 1)")
    ch.add_argument("--mode", choices=["modeling", "rtm", "both"],
                    default="both")
    ch.add_argument("--nt", type=int, default=None,
                    help="time steps per run (default 16, or 12 decomposed)")
    ch.add_argument("--format", choices=["text", "json"], default="text")
    ch.add_argument("--out", metavar="PATH",
                    help="also write the report to this file")
    ch.add_argument("--trace", metavar="PATH",
                    help="write a Perfetto trace of faults and recovery")
    _add_ledger_args(ch)
    ch.set_defaults(fn=_cmd_chaos)

    tu = sub.add_parser(
        "tune",
        help="closed-loop schedule auto-tuning; writes a TuningPlan JSON",
    )
    tu.add_argument("case", help="e.g. iso2d, acoustic-2d, el3d")
    tu.add_argument("--mode", choices=["modeling", "rtm"], default="rtm")
    tu.add_argument("--budget", type=int, default=8,
                    help="max measured probe runs in the search (default 8)")
    tu.add_argument("--nt", type=int, default=6,
                    help="time steps per probe window (default 6)")
    tu.add_argument("--compiler", metavar="NAME",
                    help="compiler persona, e.g. pgi-14.6, cray-8.2.6")
    tu.add_argument("--out", default="plan.json",
                    help="TuningPlan JSON path (default plan.json)")
    _add_ledger_args(tu)
    tu.set_defaults(fn=_cmd_tune)

    sc = sub.add_parser(
        "scale",
        help="multi-rank scaling observatory; writes BENCH_scaling.json",
    )
    sc.add_argument(
        "case",
        help="e.g. iso2d, ac3d — 'all' or a comma list for the full sweep",
    )
    sc.add_argument("--ranks", default="1,2,4,8",
                    help="comma-separated rank counts (default 1,2,4,8)")
    sc.add_argument("--mode", choices=["modeling", "rtm"], default="rtm")
    sc.add_argument("--nt", type=int, default=16,
                    help="time steps per point (default 16)")
    sc.add_argument("--out", default="BENCH_scaling.json",
                    help="scaling artifact path (default BENCH_scaling.json)")
    _add_ledger_args(sc)
    sc.set_defaults(fn=_cmd_scale)

    sv = sub.add_parser(
        "serve",
        help="shot-parallel RTM service with fault-tolerant scheduling; "
        "writes BENCH_service.json",
    )
    sv.add_argument(
        "case",
        help="e.g. iso2d, ac2d, el2d — 'all' or a comma list for the "
        "2-D sweep",
    )
    sv.add_argument("--shots", type=int, default=4,
                    help="shots per survey (default 4)")
    sv.add_argument("--workers", default="2,4",
                    help="comma-separated worker counts (default 2,4)")
    sv.add_argument("--gpus", type=int, default=1,
                    help="cards per worker node; >1 adds the verified "
                    "multi-card node harness (default 1)")
    sv.add_argument("--nt", type=int, default=24,
                    help="time steps per shot (default 24)")
    sv.add_argument("--faults", metavar="SPEC",
                    help="fault specs 'kind[@op][xN][:rank],...' — rank "
                    "names the worker (mpi-rank-dead@x1, shot-poison:2)")
    sv.add_argument("--seed", type=int, default=7,
                    help="scheduler/backoff seed (default 7)")
    sv.add_argument("--capacity", type=int, default=64,
                    help="bounded shot-queue capacity (default 64)")
    sv.add_argument("--policy", choices=["reject", "shed"],
                    default="reject",
                    help="admission policy when a survey does not fit "
                    "(default reject)")
    sv.add_argument("--no-resubmit", action="store_true",
                    help="skip the duplicate survey submission that "
                    "exercises the result cache")
    sv.add_argument("--quarantine-after", type=int, default=3,
                    help="failures before a poisoned shot is "
                    "quarantined (default 3)")
    sv.add_argument("--format", choices=["text", "json"], default="text")
    sv.add_argument("--out", default="BENCH_service.json",
                    help="service artifact path "
                    "(default BENCH_service.json)")
    _add_ledger_args(sv)
    sv.set_defaults(fn=_cmd_serve)

    rp = sub.add_parser(
        "report",
        help="diff the latest runs against the ledger trajectory",
    )
    rp.add_argument("--check", action="store_true",
                    help="exit non-zero when any group regressed")
    rp.add_argument("--ledger", metavar="PATH", default=None,
                    help="ledger path (default .repro/ledger.jsonl)")
    rp.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    rp.add_argument("--window", type=int, default=5,
                    help="baseline = median of up to N prior runs (default 5)")
    rp.add_argument("--command-filter", metavar="CMD", default=None,
                    help="only report groups of one command "
                    "(trace|tune|chaos|scale|serve)")
    rp.add_argument("--format", choices=["text", "json"], default="text")
    rp.set_defaults(fn=_cmd_report)

    co = sub.add_parser(
        "compile",
        help="fused-kernel lowering of recorded schedules, with bitwise "
        "verification against the interpreter",
    )
    co.add_argument(
        "case",
        help="e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory",
    )
    co.add_argument("--mode", choices=["modeling", "rtm", "both"],
                    default="both")
    co.add_argument("--nt", type=int, default=24,
                    help="recorded time steps (must match the deps artifact "
                    "when --opportunities is given)")
    co.add_argument("--opportunities", metavar="FILE",
                    help="consume a 'repro deps --opportunities' artifact "
                    "(hash-gated; stale artifacts are refused) instead of "
                    "running the dataflow engine in-process")
    co.add_argument("--plan", metavar="FILE",
                    help="apply a 'repro tune' TuningPlan to launch choices "
                    "(fused launches share the dominant part's entry)")
    co.add_argument("--bench", metavar="FILE",
                    help="wall-clock interpreted vs compiled and write the "
                    "BENCH_step.json document here")
    co.add_argument("--repeats", type=int, default=5,
                    help="timing repetitions per side for --bench "
                    "(best-of-N; default 5)")
    co.add_argument("--format", choices=["text", "json"], default="text")
    _add_ledger_args(co)
    co.set_defaults(fn=_cmd_compile)

    va = sub.add_parser(
        "validate",
        help="static capacity + translation proofs of recorded schedules "
        "(DF2xx findings, SARIF for CI uploads)",
    )
    va.add_argument(
        "case",
        help="e.g. iso2d, acoustic3d, el2d — or 'all' for the full inventory",
    )
    va.add_argument("--mode", choices=["modeling", "rtm", "both"],
                    default="both")
    va.add_argument("--nt", type=int, default=24,
                    help="recorded time steps (must match the deps artifact "
                    "when --opportunities is given)")
    va.add_argument("--opportunities", metavar="FILE",
                    help="consume a 'repro deps --opportunities' artifact "
                    "(hash-gated; stale artifacts are refused)")
    va.add_argument("--artifact", metavar="FILE",
                    help="write the machine-readable proof document "
                    "(capacity phases + discharged obligations)")
    va.add_argument("--fail-on", metavar="SEVERITY", default="error",
                    help="exit 1 on findings at/above this severity "
                    "(info|warning|error|none; default error)")
    va.add_argument("--format", choices=["text", "json", "sarif"],
                    default="text")
    _add_ledger_args(va)
    va.set_defaults(fn=_cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    from repro.utils.errors import ConfigurationError

    try:
        sys.exit(main())
    except ConfigurationError as exc:
        # malformed input (a case spelling, a severity, a compiler name):
        # one line on stderr and exit 2, never a traceback; argv[1] is the
        # subcommand, since main() has parsed it
        print(f"repro {sys.argv[1]}: {exc}", file=sys.stderr)
        sys.exit(2)
