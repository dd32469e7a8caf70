"""The serve campaign behind ``python -m repro serve``.

For each 2-D seed case the campaign:

1. runs the **fault-free serial golden** — :func:`~repro.core.survey.
   run_survey` with no GPU pipeline, the pure-physics stack every
   service run must reproduce bitwise;
2. for each requested worker count, builds a fresh
   :class:`~repro.serve.service.SurveyScheduler` (fresh result cache —
   the cache is the thing under test, so it never leaks across points),
   submits the survey plus (by default) a duplicate submission to
   exercise the cache/coalescing path, and drains it under the given
   fault plan;
3. verifies the service's canonical-order stack and final image against
   the golden — *bitwise*, not allclose: shot physics is worker-
   invariant and the stack order is pinned, so anything weaker would
   hide a scheduling bug. With poisoned shots the comparison degrades to
   the golden stack of the surviving shots (the quarantine contract);
4. appends one ``serve`` record per (case, workers) point to the run
   ledger and aggregates everything into ``BENCH_service.json``.

Everything is a pure function of (cases, workers, shots, nt, faults,
seed): identical inputs produce identical BENCH documents.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench.workloads import (
    SEED_CASES,
    is_all,
    parse_case,
    small_case_config,
)
from repro.core.config import RTMConfig
from repro.core.survey import run_survey, shot_line
from repro.resilience.faults import FaultPlan, parse_faults
from repro.serve.service import SurveyScheduler
from repro.utils.errors import ConfigurationError

#: the 2-D seed cases (:func:`run_survey` is 2-D only)
SERVE_CASES = tuple(c for c in SEED_CASES if c.endswith("2d"))
#: campaign grid size (chaos-sized: many resilient runs per sweep)
SERVE_SHAPE = (64, 64)
DEFAULT_NT = 24
DEFAULT_SHOTS = 4
DEFAULT_WORKERS = (2, 4)

BENCH_SCHEMA = 1


def serve_case_config(case: str, nt: int = DEFAULT_NT) -> RTMConfig:
    """Build one serve case's survey config (layered model, chaos-style
    acquisition)."""
    physics, ndim = parse_case(case)
    if ndim != 2:
        raise ConfigurationError(
            f"serve case '{case}' is {ndim}-D; surveys are 2-D only"
        )
    return RTMConfig(**small_case_config(physics, SERVE_SHAPE, nt))


def _golden(config: RTMConfig, xs: list[int]):
    """The fault-free serial reference: (raw stack, final image,
    per-shot raw images)."""
    ref = run_survey(config, shot_x_indices=xs)
    stacked = np.zeros(config.model.grid.shape, dtype=np.float32)
    for img in ref.shot_images:
        stacked += img
    return stacked, ref.image, ref.shot_images


def _expected_stack(
    config: RTMConfig,
    shot_images: list[np.ndarray],
    completed: list[int],
):
    """The golden stack restricted to the shots the service completed —
    summed in the same canonical order the service stacks in."""
    from repro.core.imaging import mute_shallow, normalize_image

    stacked = np.zeros(config.model.grid.shape, dtype=np.float32)
    for shot in sorted(completed):
        stacked += shot_images[shot]
    mute = (
        config.mute_cells
        if config.mute_cells is not None
        else config.boundary_width + 8
    )
    image = mute_shallow(normalize_image(stacked.copy()), mute)
    return stacked, image


def run_serve_case(
    case: str,
    workers: tuple[int, ...] = DEFAULT_WORKERS,
    shots: int = DEFAULT_SHOTS,
    nt: int = DEFAULT_NT,
    gpus: int = 1,
    plan: FaultPlan | None = None,
    seed: int = 7,
    capacity: int = 64,
    policy: str = "reject",
    resubmit: bool = True,
    quarantine_after: int = 3,
    ledger_path: str | None = None,
) -> dict:
    """Serve one case at each worker count; returns the case document."""
    from repro.observe.ledger import append_run
    from repro.observe.runlog import RunLog

    config = serve_case_config(case, nt=nt)
    xs = shot_line(config.model, shots)
    golden_stack, golden_image, shot_images = _golden(config, xs)
    plan = plan if plan is not None else FaultPlan(seed=seed)

    points = {}
    for w in sorted(set(int(n) for n in workers)):
        runlog = RunLog(
            command="serve", case=case, mode="rtm", ranks=w,
            seed=seed, gpus=gpus, faults=plan.spec_string(),
        )
        with runlog.activate():
            scheduler = SurveyScheduler(
                workers=w, gpus=gpus, capacity=capacity, policy=policy,
                plan=plan, seed=seed, quarantine_after=quarantine_after,
            )
            scheduler.submit_survey("primary", config, xs, case=case)
            if resubmit:
                scheduler.submit_survey(
                    "resubmit", config, xs, case=case, primary=False,
                )
            result = scheduler.run()

        completed = result.completed_shots("primary")
        expected_stack, expected_image = _expected_stack(
            config, shot_images, completed
        )
        stack = result.stacks.get("primary")
        image = result.images.get("primary")
        stack_ok = stack is not None and np.array_equal(stack, expected_stack)
        image_ok = image is not None and np.array_equal(image, expected_image)
        full = len(completed) == len(xs)
        # with nothing quarantined/shed/stranded, the survivors' golden
        # IS the full golden — assert against it explicitly
        if full:
            stack_ok = stack_ok and np.array_equal(stack, golden_stack)
            image_ok = image_ok and np.array_equal(image, golden_image)
        verified = bool(stack_ok and image_ok)

        metrics = result.metrics()
        metrics["verified"] = 1.0 if verified else 0.0
        append_run(ledger_path, runlog, metrics)
        points[str(w)] = {
            "workers": w,
            "verified": verified,
            "completed_shots": completed,
            "metrics": metrics,
        }

    return {
        "case": case,
        "shots": shots,
        "nt": nt,
        "shot_x_indices": list(xs),
        "points": points,
        "verified": all(p["verified"] for p in points.values()),
    }


def run_serve_sweep(
    cases: tuple[str, ...] = SERVE_CASES,
    workers: tuple[int, ...] = DEFAULT_WORKERS,
    shots: int = DEFAULT_SHOTS,
    nt: int = DEFAULT_NT,
    gpus: int = 1,
    faults: str | None = None,
    seed: int = 7,
    capacity: int = 64,
    policy: str = "reject",
    resubmit: bool = True,
    quarantine_after: int = 3,
    ledger_path: str | None = None,
) -> dict:
    """The full serve campaign; returns the BENCH_service document."""
    plan = FaultPlan(
        seed=seed, specs=parse_faults(faults) if faults else (),
    )
    results = [
        run_serve_case(
            c, workers=workers, shots=shots, nt=nt, gpus=gpus, plan=plan,
            seed=seed, capacity=capacity, policy=policy, resubmit=resubmit,
            quarantine_after=quarantine_after, ledger_path=ledger_path,
        )
        for c in cases
    ]
    fractions = [
        p["metrics"]["completed_fraction"]
        for r in results
        for p in r["points"].values()
    ]
    return {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "faults": plan.spec_string(),
        "shots": shots,
        "nt": nt,
        "gpus": gpus,
        "workers": sorted(set(int(w) for w in workers)),
        "capacity": capacity,
        "policy": policy,
        "resubmit": resubmit,
        "quarantine_after": quarantine_after,
        "verified": all(r["verified"] for r in results),
        "completed_fraction_min": min(fractions) if fractions else 1.0,
        "cases": {r["case"]: r for r in results},
    }


def _case_text(doc: dict) -> str:
    head = f"{doc['case']} ({doc['shots']} shots, nt {doc['nt']})"
    lines = [head, "-" * len(head)]
    lines.append(
        f"  {'workers':>7} {'sh/hr':>10} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'max ms':>8} {'hit%':>6} {'requeue':>7} {'lost':>5} {'ok':>3}"
    )
    for key in sorted(doc["points"], key=int):
        p = doc["points"][key]
        m = p["metrics"]
        lines.append(
            f"  {p['workers']:>7} {m['shots_per_hour']:>10.1f} "
            f"{m['queue_p50_s'] * 1e3:>8.2f} {m['queue_p95_s'] * 1e3:>8.2f} "
            f"{m['queue_max_s'] * 1e3:>8.2f} "
            f"{100 * m['cache_hit_rate']:>6.1f} "
            f"{int(m['requeued']):>7} {int(m['workers_lost']):>5} "
            f"{'yes' if p['verified'] else 'NO':>3}"
        )
    return "\n".join(lines)


def run_serve_command(args) -> int:
    """``python -m repro serve`` entry point (argparse namespace in)."""
    from repro.observe.ledger import ledger_path_from_args
    from repro.observe.scaling import parse_ranks

    cases = (
        SERVE_CASES if is_all(args.case) else tuple(args.case.split(","))
    )
    workers = parse_ranks(args.workers)
    ledger_path = ledger_path_from_args(args)
    doc = run_serve_sweep(
        cases=cases,
        workers=workers,
        shots=args.shots,
        nt=args.nt,
        gpus=args.gpus,
        faults=args.faults,
        seed=args.seed,
        capacity=args.capacity,
        policy=args.policy,
        resubmit=not args.no_resubmit,
        quarantine_after=args.quarantine_after,
        ledger_path=ledger_path,
    )
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for case in doc["cases"].values():
            print(_case_text(case))
            print()
        verdict = "verified bitwise" if doc["verified"] else "VERIFY FAILED"
        print(
            f"{verdict} against the serial golden; min completion "
            f"{100 * doc['completed_fraction_min']:.0f}%"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    if ledger_path is not None:
        print(f"ledger {ledger_path}")
    return 0 if doc["verified"] else 1


__all__ = [
    "SERVE_CASES",
    "SERVE_SHAPE",
    "DEFAULT_NT",
    "DEFAULT_SHOTS",
    "DEFAULT_WORKERS",
    "serve_case_config",
    "run_serve_case",
    "run_serve_sweep",
    "run_serve_command",
]
