"""One benchmark iteration in a fresh interpreter.

Started by ``run.py`` once per timed run, so in-program caches start
cold every time, as they do for a ``repro tables`` or ``repro compile``
user.  Prints one JSON record as the last line of stdout::

    python3 wallbench/child.py --workload rtm --seed 0 --size full --trace 0

``--write-golden`` instead writes the workload's goldens for ``--size``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import spec
import workloads


def accounted_s(rec) -> float:
    """Seconds of the traced run not spent in wrapper bookkeeping: the sum
    of every frame's self time, the harness's own spans included."""
    bench = sum(s["self_s"] for s in rec.spans if s["layer"] == "bench")
    return bench + sum(row["self_s"] for row in rec.layer_totals().values())


def layer_metrics(rec, workload, out) -> dict:
    """Per-layer metrics of one traced iteration (all but the two the
    parent derives across iterations).  A self share is a layer's self
    seconds over :func:`accounted_s`."""
    totals = rec.layer_totals()
    accounted = accounted_s(rec)

    def fn_calls(layer: str, *fns: str) -> int:
        return sum(
            a[0] for (_, lay, fn), a in rec.aggregates.items()
            if lay == layer and (not fns or fn in fns)
        )

    m = {
        "stencil.calls": fn_calls("stencil"),
        "stencil.bytes_computed": rec.stencil_bytes,
        "boundary.calls": fn_calls("boundary"),
        "propagators.steps": fn_calls("propagators", "step"),
        "acc.launches": fn_calls("acc"),
        "acc.lower.calls": fn_calls("acc.lower"),
        "acc.lower.distinct": len(rec.distinct["lower"]),
        "gpusim.estimate.calls": fn_calls("gpusim.estimate", "estimate_kernel_time"),
        "gpusim.estimate.distinct": len(rec.distinct["estimate_kernel_time"]),
        "analyze.recordings": fn_calls("analyze"),
        "compile.applied": 0,
        "compile.skipped": 0,
        "serve.shots_executed": len(rec.durations.get("resilience", ())),
        "serve.cache_hit_rate": 0.0,
        "serve.requeued": 0,
        "resilience.recoveries": 0,
    }
    if hasattr(workload, "layer_counts"):
        m.update(workload.layer_counts(out))
    for layer in spec.SHARE_LAYERS:
        m[f"{layer}.self_share"] = totals.get(layer, {}).get("self_s", 0.0) / accounted
    return m


def coverage(rec, name: str) -> list[str]:
    """Coverage violations: a layer that should move a metric on this
    workload recorded no calls, or a bypassed layer recorded some."""
    calls = {layer: int(row["calls"]) for layer, row in rec.layer_totals().items()}
    problems = [
        f"{layer} recorded no calls"
        for layer in spec.MUST_RECORD[name] if not calls.get(layer)
    ]
    problems += [
        f"{layer} recorded {calls[layer]} calls but is bypassed"
        for layer in spec.MUST_NOT_RECORD[name] if calls.get(layer)
    ]
    for suffix, layers in spec.SPAN_MUST_NOT_RECORD.items():
        for span in rec.spans:
            if not span["name"].endswith(suffix):
                continue
            under = rec.calls_under(span["id"])
            problems += [
                f"{layer} recorded {under[layer]} calls under '{span['name']}'"
                for layer in layers if under.get(layer)
            ]
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--trace-out", default=None)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.size)
    rec = None
    if args.trace:
        from tracer import SpanRecorder

        rec = SpanRecorder(f"{args.workload}-seed{args.seed}")
        rec.install()

    first_call = time.monotonic()
    t0 = time.perf_counter()
    out = workload.run(state, rec)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.finish()
        rec.uninstall()

    if args.write_golden:
        if any(op.failed for op in out.ops):
            print("an op raised; no golden written", file=sys.stderr)
            return 1
        golden = workload.golden_of(out)
        path = workloads.GOLDEN_DIR / args.size / f"{args.workload}.json"
        if golden:  # serve checks against a reference made in set-up
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"first_call_monotonic": first_call}))
        return 0

    workload.check(state, out)
    control = workload.perturb(out)
    workload.check(state, control)

    record = {
        "first_call_monotonic": first_call,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(out.ops),
        "failed": sum(op.failed for op in out.ops),
        "failures": [f"{op.name}: {op.error or op.failure}" for op in out.ops if op.failed],
        # failures the one perturbed value added: must be > 0
        "control_failed": sum(op.failed for op in control.ops)
        - sum(op.failed for op in out.ops),
        "counts": out.counts,
        "op_seconds": {op.name: op.seconds for op in out.ops},
        "figures": workload.figures(out, wall_s),
    }
    if rec is not None:
        record["layers"] = layer_metrics(rec, workload, out)
        record["accounted_s"] = accounted_s(rec)
        gated = [rec.calls_under(s["id"]).get("analyze", 0)
                 for s in rec.spans if s["name"].endswith(" gated")]
        if gated:
            record["recordings_per_gated_run"] = statistics.median(gated)
        record["coverage"] = coverage(rec, args.workload)
        record["layer_seconds"] = rec.layer_totals()
        shots = sorted(rec.durations.get("resilience", []))
        if shots:
            record["shot_p50_s"] = statistics.median(shots)
            record["shot_max_s"] = shots[-1]
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(rec.dump(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
