"""Host wall-clock benchmark of the repro package.

Run from the repository root::

    python3 wallbench/run.py --workload rtm --seed 3 --seconds 20 --trace 0

Each timed run is a fresh interpreter (``child.py``) doing set-up, the
timed phase and the output checks; runs repeat, one at a time, until
``--seconds`` have passed, and the metrics are medians over them.  With
``--trace 1`` one more run is traced and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--write-spec`` regenerates ``BENCHMARK.json``; ``--write-goldens``
regenerates the committed goldens (at seed 0) for ``--size``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spec

CHILD = spec.BENCH_DIR / "child.py"
OUT_DIR = spec.BENCH_DIR / "out"
#: every run, the traced one included, ends within this many seconds
RUN_LIMIT_S = 170.0
#: fewest untraced iterations a measurement takes, so medians have a middle
MIN_RUNS = 3


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(spec.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """One fresh-interpreter iteration; adds ``setup_s`` (spawn to first
    timed call, on the system-wide monotonic clock)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args], env=child_env(),
            capture_output=True, text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"iteration timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"iteration exited {proc.returncode}: {tail}")
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("first_call_monotonic") - spawned
    return rec


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def show(name: str, values: list[float], unit: str) -> float:
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    print(f"  {name:<28} {med:12.6g} {unit:<8} median of n={len(values)} "
          f"(q1 {q1:.6g}, q3 {q3:.6g})")
    return med


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    records, crashes = [], []
    while True:
        left = RUN_LIMIT_S - (time.monotonic() - start)
        try:
            records.append(run_child(base + ["--trace", "0"], left))
        except ChildFailed as exc:
            crashes.append(str(exc))
        if crashes or (len(records) >= MIN_RUNS and time.monotonic() - start >= seconds):
            break
    traced = None
    if trace and not crashes:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{workload}-seed{seed}-trace.json"
        try:
            traced = run_child(
                base + ["--trace", "1", "--trace-out", str(out)],
                RUN_LIMIT_S - (time.monotonic() - start),
            )
        except ChildFailed as exc:
            crashes.append(str(exc))
    if not records:
        print(f"error: no iteration completed: {crashes}", file=sys.stderr)
        return 1

    everything = records + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in everything) + len(crashes)
    failed = sum(r["failed"] for r in everything) + len(crashes)
    problems = list(crashes)
    for r in everything:
        problems += r["failures"]
        if r["control_failed"] == 0:
            problems.append("negative control: a perturbed output passed the checks")
        # output-derived counts are a function of the inputs alone
        if r["counts"] != everything[0]["counts"]:
            problems.append(f"output-derived counts differ between runs: {r['counts']}")

    print(f"workload {workload}  seed {seed}  size {size}  "
          f"runs {len(records)} untraced" + (" + 1 traced" if traced else ""))
    print(f"  error_rate                   {failed / attempted:12.6g} fraction "
          f"({failed} failed of {attempted} attempted)")
    print(f"  negative control             {sum(r['control_failed'] for r in everything)} "
          f"failures added by one perturbed output, over {len(everything)} runs "
          "(must be > 0 in each)")
    medians = {}
    for name, unit, _, _ in spec.END_TO_END:
        medians[name] = show(name, [r[name] for r in records], unit)
    for name, unit in spec.FIGURES[workload]:
        medians[name] = show(name, [r["figures"][name] for r in records], unit)
    op_med = {
        name: statistics.median(r["op_seconds"][name] for r in records)
        for name in records[0]["op_seconds"]
    }
    if workload == "check-compile":
        saved = medians["interpreted_run_s"] - medians["compiled_run_s"]
        medians["compile.breakeven_runs"] = breakeven(medians["compile_cold_s"], saved)
        print(f"  {'case':<14} {'cold_s':>9} {'interp_s':>9} {'compiled_s':>10} "
              f"{'gated_s':>9} {'breakeven_runs':>14}")
        for case in dict.fromkeys(n.rsplit(" ", 1)[0] for n in op_med):
            cold, interp, comp, gated = (
                op_med[f"{case} {stage}"]
                for stage in ("compile", "interpreted", "compiled", "gated")
            )
            print(f"  {case:<14} {cold:9.4f} {interp:9.4f} {comp:10.4f} {gated:9.4f} "
                  f"{breakeven(cold, interp - comp):14.6g}")
    elif workload != "serve":
        print("  per operation, median seconds: " + ", ".join(
            f"{name} {sec:.4f}" for name, sec in op_med.items()))

    if traced is not None:
        metrics = per_layer(workload, size, traced, medians, problems)
    else:
        metrics = {n: {"value": medians[n], "unit": u} for n, u, _, _ in spec.END_TO_END}

    for p in problems:
        print(f"  FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


def breakeven(cold_s: float, saved_s: float) -> float:
    """Runs a cold compile needs to pay for itself; -1 when a compiled run
    saves nothing."""
    return cold_s / saved_s if saved_s > 0 else -1.0


def per_layer(workload: str, size: str, traced: dict, medians: dict, problems: list) -> dict:
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - medians["wall_s"]
    layers["compile.breakeven_runs"] = medians.get("compile.breakeven_runs", 0.0)
    problems += [f"coverage: {c}" for c in traced["coverage"]]
    golden = spec.BENCH_DIR / "goldens" / size / "counters.json"
    if golden.exists():
        expected = json.loads(golden.read_text()).get(workload, {})
        for name in spec.EXACT_COUNTERS:
            if name in expected and expected[name] != layers[name]:
                problems.append(
                    f"exact counter {name} = {layers[name]}, committed {expected[name]}"
                )
    print(f"  traced wall_s {traced['wall_s']:.6g} s, trace.overhead_s "
          f"{layers['trace.overhead_s']:.6g} s over the untraced median; self shares "
          f"are of the {traced['accounted_s']:.6g} s outside wrapper bookkeeping")
    print(f"  {'layer':<20} {'calls':>10} {'self_s':>12} {'total_s':>12} {'self share':>10}")
    for layer, row in sorted(traced["layer_seconds"].items()):
        print(f"  {layer:<20} {int(row['calls']):>10} {row['self_s']:>12.6g} "
              f"{row['total_s']:>12.6g} {row['self_s'] / traced['accounted_s']:>10.4f}")
    for key in ("shot_p50_s", "shot_max_s"):
        if key in traced:
            print(f"  serve.{key:<22} {traced[key]:12.6g} s   host wall per executed shot")
    if "recordings_per_gated_run" in traced:
        print(f"  analyze.recordings per gated run: {traced['recordings_per_gated_run']:g}")
    units = dict(spec.PER_LAYER)
    return {n: {"value": layers[n], "unit": units[n]} for n, _ in spec.PER_LAYER}


def write_goldens(names: list[str], size: str) -> None:
    """Output goldens and the exact counters of a traced run, at seed 0."""
    path = spec.BENCH_DIR / "goldens" / size / "counters.json"
    counters = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        base = ["--workload", name, "--seed", "0", "--size", size]
        run_child(base + ["--write-golden"], RUN_LIMIT_S)
        layers = run_child(base + ["--trace", "1"], RUN_LIMIT_S)["layers"]
        counters[name] = {k: layers[k] for k in spec.EXACT_COUNTERS}
    path.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--write-spec", action="store_true")
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args(argv)

    if args.write_spec:
        spec.write_benchmark_json()
        return 0
    if not (spec.ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {spec.ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_goldens:
        write_goldens([args.workload] if args.workload else list(spec.WORKLOADS), args.size)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
