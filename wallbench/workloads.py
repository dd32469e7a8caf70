"""The four benchmark workloads: set-up, timed phase, output checks.

Each workload is driven through the repository's public entry points
only.  ``setup`` builds every input (and any reference the checks need)
from the seed; ``run`` is the timed phase and returns one :class:`Op` per
operation; ``check`` marks each op passed or failed against committed
goldens and self-consistency rules; ``perturb`` returns a copy of the
outputs with one value changed, the negative control that ``check`` must
reject.

Value-exact comparisons follow ``np.array_equal``: ``-0.0 == +0.0``.
Arrays are compared through :func:`array_digest`, which folds ``-0.0``
onto ``+0.0`` before hashing, and refuses non-finite data.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
#: the seed the committed seed-dependent goldens were made with
DEFAULT_SEED = 0

#: per-size parameters; "full" is what the benchmark measures, "tiny" is
#: the smoke-test size
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "tables": {"table3": "all", "table3_nt": 200, "table4_nt": 60},
        "rtm": {"nt2": 40, "nt3": 10, "shape2": (256, 256),
                "shape3": (48, 48, 48), "boundary_width": 16},
        "serve": {"shots": 4, "nt": 48, "workers": 2},
        "check-compile": {"cases": ("iso2d", "ac2d", "el2d", "iso3d", "ac3d", "el3d"),
                          "nt": 4},
    },
    "tiny": {
        "tables": {"table3": ("ISOTROPIC 2D",), "table3_nt": 10, "table4_nt": 6},
        "rtm": {"nt2": 12, "nt3": 4, "shape2": (48, 48),
                "shape3": (20, 20, 20), "boundary_width": 4},
        "serve": {"shots": 2, "nt": 12, "workers": 2},
        "check-compile": {"cases": ("iso2d", "el3d"), "nt": 4},
    },
}

#: the seeded dead-worker fault of the serve workload
SERVE_FAULTS = "mpi-rank-dead@x1"


@dataclass
class Op:
    """One operation of a workload: a table row, an RTM run, a shot, a
    compile or a gated run."""

    name: str
    seconds: float = 0.0
    value: Any = None
    error: str | None = None
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.failure is not None


@dataclass
class Outputs:
    ops: list[Op]
    #: extra artefacts the checks need (arrays, results), not per-op
    extra: dict = field(default_factory=dict)
    #: output-derived counts that must agree between traced and untraced
    #: runs of one seed
    counts: dict = field(default_factory=dict)


def timed(name: str, fn, *args, **kwargs) -> Op:
    """Run one operation; an exception is recorded as its failure."""
    t0 = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # an op that raises is a failed op
        return Op(name, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - t0, value=value)


def array_digest(a: np.ndarray) -> str:
    """sha256 of an array's values with ``np.array_equal`` semantics."""
    a = np.ascontiguousarray(a)
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            return "non-finite"
        a = a + a.dtype.type(0)  # -0.0 + 0 == +0.0
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def gpu_dict(g) -> dict:
    """The value fields of a ``GpuTimes`` (its profile report excluded)."""
    return plain({
        "total": g.total, "kernel": g.kernel, "h2d": g.h2d, "d2h": g.d2h,
        "alloc": g.alloc, "launches": g.launches, "success": g.success,
        "failure": g.failure, "categories": dict(sorted(g.categories.items())),
    })


def plain(x: Any) -> Any:
    """JSON round trip: tuples become lists, floats keep every digit."""
    return json.loads(json.dumps(x))


def load_golden(size: str, workload: str) -> dict | None:
    path = GOLDEN_DIR / size / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def fresh_ops(out: Outputs) -> list[Op]:
    """Unjudged copies of the ops, so checking a perturbed copy leaves the
    real outputs' verdicts alone."""
    return [replace(op, failure=None) for op in out.ops]


def fail(op: Op, why: str) -> None:
    if op.failure is None:
        op.failure = why


# ======================================================================
# tables: estimate-mode Table 3 + two Table 4 rows
# ======================================================================
class Tables:
    name = "tables"

    def setup(self, seed: int, size: str) -> dict:
        import repro.bench.table3 as t3
        import repro.bench.table4 as t4
        from repro.bench.workloads import ALL_CASES

        p = SIZES[size]["tables"]
        cases3 = [
            c if p["table3_nt"] is None else replace(c, nt=p["table3_nt"])
            for c in ALL_CASES
            if p["table3"] == "all" or c.name in p["table3"]
        ]
        cases4 = [
            replace(c, nt=p["table4_nt"])
            for c in ALL_CASES if c.name in ("ACOUSTIC 2D", "ELASTIC 3D")
        ]
        # the rows keep only cells; tap the estimators the table modules
        # call so every modelled GpuTimes is seen too
        captured: list = []

        def tap(fn):
            fn = getattr(fn, "__wrapped__", fn)  # a tap from an earlier set-up

            def tapped(*args, **kwargs):
                g = fn(*args, **kwargs)
                captured.append(g)
                return g
            tapped.__wrapped__ = fn
            return tapped

        t3.estimate_modeling = tap(t3.estimate_modeling)
        t4.estimate_rtm = tap(t4.estimate_rtm)
        return {
            "rows": [("table3", c, t3.table3_row) for c in cases3]
            + [("table4", c, t4.table4_row) for c in cases4],
            "captured": captured,
            "golden": load_golden(size, self.name),
        }

    def run(self, state: dict, tracer=None) -> Outputs:
        from dataclasses import asdict

        ops = []
        captured = state["captured"]
        for table, case, row_fn in state["rows"]:
            captured.clear()
            name = f"{table} {case.name}"
            with _span(tracer, name):
                op = timed(name, row_fn, case)
            if not op.failed:
                op.value = plain({
                    "cells": asdict(op.value),
                    "gpu": [gpu_dict(g) for g in captured],
                })
            ops.append(op)
        launches = sum(
            sum(g["launches"] for g in op.value["gpu"])
            for op in ops if not op.failed
        )
        return Outputs(ops, counts={"launches": launches})

    def check(self, state: dict, out: Outputs) -> None:
        golden = state["golden"]
        for op in out.ops:
            if op.failed:
                continue
            if len(op.value["gpu"]) != 3:
                fail(op, "expected three modelled GpuTimes per row")
            elif golden is None or golden.get(op.name) is None:
                fail(op, "no golden")
            elif op.value != golden[op.name]:
                fail(op, "cells or GpuTimes differ from the golden")

    def perturb(self, out: Outputs) -> Outputs:
        ops = fresh_ops(out)
        op = next((o for o in ops if not o.failed), None)
        if op is None:
            return Outputs(ops, out.extra, out.counts)
        op.value = copy.deepcopy(op.value)
        gpu = op.value["gpu"][1]
        gpu["total"] = float(np.nextafter(gpu["total"], np.inf))
        return Outputs(ops, out.extra, out.counts)

    def figures(self, out: Outputs, wall_s: float) -> dict:
        return {"launches_per_s": out.counts["launches"] / wall_s}

    def golden_of(self, out: Outputs) -> dict:
        return {op.name: op.value for op in out.ops}


# ======================================================================
# rtm: execute-mode one-shot RTM, host-only and attached
# ======================================================================
class Rtm:
    name = "rtm"
    PHYSICS = ("isotropic", "acoustic", "elastic")

    def setup(self, seed: int, size: str) -> dict:
        from repro.core import RTMConfig
        from repro.core.config import GPUOptions
        from repro.core.rtm import run_rtm

        p = SIZES[size]["rtm"]
        configs = []
        for i, physics in enumerate(self.PHYSICS):
            three_d = physics == "elastic"
            shape = p["shape3"] if three_d else p["shape2"]
            nt = p["nt3"] if three_d else p["nt2"]
            model = seeded_model(shape, seed * 10 + i, vs=physics == "elastic")
            configs.append(RTMConfig(
                physics=physics, model=model, nt=nt, peak_freq=10.0,
                boundary_width=p["boundary_width"], snap_period=5,
            ))
        return {
            "configs": configs, "run_rtm": run_rtm, "GPUOptions": GPUOptions,
            "seed": seed, "golden": load_golden(size, self.name),
        }

    def run(self, state: dict, tracer=None) -> Outputs:
        run_rtm, GPUOptions = state["run_rtm"], state["GPUOptions"]
        ops, results = [], {}
        for cfg in state["configs"]:
            case = f"{cfg.physics}-{cfg.model.grid.ndim}d"
            for mode in ("host", "attached"):
                name = f"{case} {mode}"
                with _span(tracer, name):
                    if mode == "host":
                        op = timed(name, run_rtm, cfg)
                    else:
                        op = timed(name, run_rtm, cfg, gpu_options=GPUOptions())
                if not op.failed:
                    results[name] = op.value
                    cells = int(np.prod(cfg.model.grid.shape))
                    op.value = plain({
                        "image": array_digest(op.value.image),
                        "seismogram": array_digest(op.value.seismogram),
                        "gpu": None if op.value.gpu is None else gpu_dict(op.value.gpu),
                        "cell_updates": cells * cfg.nt * 2,
                    })
                ops.append(op)
        launches = sum(
            op.value["gpu"]["launches"] for op in ops
            if not op.failed and op.value["gpu"] is not None
        )
        return Outputs(ops, extra={"results": results}, counts={"launches": launches})

    def check(self, state: dict, out: Outputs) -> None:
        golden = state["golden"] or {}
        default_seed = state["seed"] == DEFAULT_SEED
        by_name = {op.name: op for op in out.ops}
        results = out.extra["results"]
        for op in out.ops:
            if op.failed:
                continue
            v = op.value
            if "non-finite" in (v["image"], v["seismogram"]):
                fail(op, "non-finite output")
            host_mode = op.name.endswith(" host")
            if host_mode != (v["gpu"] is None):
                fail(op, "GpuTimes present on host-only or missing when attached")
            ref = golden.get(op.name)
            if ref is None:
                fail(op, "no golden")
                continue
            # modelled device time does not depend on the earth model
            if v["gpu"] != ref["gpu"]:
                fail(op, "GpuTimes differ from the golden")
            if default_seed and (v["image"], v["seismogram"]) != (
                ref["image"], ref["seismogram"]
            ):
                fail(op, "image or seismogram differs from the golden")
            if not host_mode:
                host = by_name[op.name.replace(" attached", " host")]
                a, h = results.get(op.name), results.get(host.name)
                if h is None or not (
                    np.array_equal(a.image, h.image)
                    and np.array_equal(a.seismogram, h.seismogram)
                ):
                    fail(op, "attached image/seismogram differ from host-only")

    def perturb(self, out: Outputs) -> Outputs:
        results = dict(out.extra["results"])
        name = next((n for n in results if n.endswith(" attached")), None)
        if name is None:
            return Outputs(fresh_ops(out), out.extra, out.counts)
        res = copy.copy(results[name])
        res.image = res.image.copy()
        res.image.flat[res.image.size // 2] += np.float32(1.0)
        results[name] = res
        return Outputs(fresh_ops(out), {"results": results}, out.counts)

    def figures(self, out: Outputs, wall_s: float) -> dict:
        figs = {}
        for mode in ("host", "attached"):
            ops = [op for op in out.ops if op.name.endswith(f" {mode}") and not op.failed]
            cells = sum(op.value["cell_updates"] for op in ops)
            secs = sum(op.seconds for op in ops)
            figs[f"{mode}_mcells_per_s"] = cells / secs / 1e6 if secs else 0.0
        figs["launches_per_s"] = out.counts["launches"] / wall_s
        return figs

    def golden_of(self, out: Outputs) -> dict:
        return {op.name: {k: op.value[k] for k in ("image", "seismogram", "gpu")}
                for op in out.ops}


def seeded_model(shape, seed: int, vs: bool):
    """A layered earth model drawn from ``seed``: 2-3 reflectors at
    random depths with velocities increasing downwards."""
    from repro.model import layered_model

    rng = np.random.default_rng(abs(seed))  # SeedSequence takes no negatives
    depth_m = shape[0] * 10.0
    n = int(rng.integers(2, 4))
    interfaces = np.sort(rng.uniform(0.35, 0.85, n)) * depth_m
    velocities = np.sort(rng.uniform(1500.0, 3500.0, n + 1))
    return layered_model(
        shape, spacing=10.0,
        interfaces=[float(z) for z in interfaces],
        velocities=[float(v) for v in velocities],
        vs_ratio=0.5 if vs else None,
    )


# ======================================================================
# serve: SurveyScheduler on three 2-D cases with a dead worker
# ======================================================================
class Serve:
    name = "serve"

    def setup(self, seed: int, size: str) -> dict:
        from repro.core.survey import run_survey, shot_line
        from repro.resilience.faults import FaultPlan, parse_faults
        from repro.serve.campaign import SERVE_CASES, serve_case_config
        from repro.serve.service import SurveyScheduler

        p = SIZES[size]["serve"]
        cases = []
        for case in SERVE_CASES:
            cfg = serve_case_config(case, nt=p["nt"])
            xs = shot_line(cfg.model, p["shots"])
            # the fault-free serial reference the service must reproduce
            ref = run_survey(cfg, shot_x_indices=xs)
            stack = np.zeros(cfg.model.grid.shape, dtype=np.float32)
            for img in ref.shot_images:
                stack += img
            cases.append((case, cfg, xs, stack, ref.image))
        return {
            "cases": cases, "workers": p["workers"], "seed": seed,
            "Scheduler": SurveyScheduler,
            "plan": FaultPlan(seed=seed, specs=parse_faults(SERVE_FAULTS)),
        }

    def run(self, state: dict, tracer=None) -> Outputs:
        ops, results = [], {}
        for case, cfg, xs, _, _ in state["cases"]:
            def serve_case():
                scheduler = state["Scheduler"](
                    workers=state["workers"], plan=state["plan"], seed=state["seed"],
                )
                scheduler.submit_survey("primary", cfg, xs, case=case)
                scheduler.submit_survey("resubmit", cfg, xs, case=case, primary=False)
                return scheduler.run()

            with _span(tracer, f"serve {case}"):
                op = timed(case, serve_case)
            results[case] = op
            # an operation is a shot: one op per primary-survey shot
            for shot in range(len(xs)):
                ops.append(Op(f"{case} shot {shot}", op.seconds / len(xs), error=op.error))
        counts = {}
        for case, op in results.items():
            if not op.failed:
                m = op.value.metrics()
                counts[case] = [m["requeued"], m["cache_hits"], m["cache_misses"]]
        return Outputs(ops, extra={"results": results}, counts=counts)

    def check(self, state: dict, out: Outputs) -> None:
        by_case = {}
        for op in out.ops:
            by_case.setdefault(op.name.split(" shot ")[0], []).append(op)
        for case, _, xs, stack, image in state["cases"]:
            op = out.extra["results"][case]
            if op.failed:
                continue
            res = op.value
            done = set(res.completed_shots("primary"))
            same = (
                np.array_equal(res.stacks.get("primary"), stack)
                and np.array_equal(res.images.get("primary"), image)
            )
            for i, shot_op in enumerate(by_case[case]):
                if i not in done:
                    fail(shot_op, "shot did not complete")
                elif not same:
                    fail(shot_op, "stack/image differ from serial run_survey")

    def perturb(self, out: Outputs) -> Outputs:
        results = dict(out.extra["results"])
        case = next((c for c, op in results.items() if not op.failed), None)
        if case is None:
            return Outputs(fresh_ops(out), out.extra, out.counts)
        op = copy.copy(results[case])
        res = copy.copy(op.value)
        res.stacks = dict(res.stacks)
        stack = res.stacks["primary"].copy()
        stack.flat[stack.size // 2] += np.float32(1.0)
        res.stacks["primary"] = stack
        op.value = res
        results[case] = op
        return Outputs(fresh_ops(out), {"results": results}, out.counts)

    def figures(self, out: Outputs, wall_s: float) -> dict:
        verified = sum(1 for op in out.ops if not op.failed)
        return {"shots_per_h": verified / wall_s * 3600.0}

    def layer_counts(self, out: Outputs) -> dict:
        hits = misses = requeued = recoveries = 0.0
        for op in out.extra["results"].values():
            if op.failed:
                continue
            m = op.value.metrics()
            hits += m["cache_hits"]
            misses += m["cache_misses"]
            requeued += m["requeued"]
            recoveries += (
                m["recovery_retries"] + m["recovery_restarts"] + m["recovery_degrades"]
            )
        return {
            "serve.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serve.requeued": requeued,
            "resilience.recoveries": recoveries,
        }

    def golden_of(self, out: Outputs) -> dict:
        return {}


# ======================================================================
# check-compile: cold compile, interpreted / compiled / gated estimates
# ======================================================================
class CheckCompile:
    name = "check-compile"

    def setup(self, seed: int, size: str) -> dict:
        from repro.acc.runtime import Runtime
        from repro.compile import CompileRequest, clear_cache, compiled_for_pipeline
        from repro.core.config import GPUOptions
        from repro.core.pipeline import OffloadPipeline
        from repro.core.platform import CRAY_K40
        from repro.core.rtm import estimate_rtm
        from repro.gpusim.device import Device

        p = SIZES[size]["check-compile"]
        requests = [CompileRequest.from_case(c, "rtm", nt=p["nt"]) for c in p["cases"]]
        opts = GPUOptions()

        def cold_compile(req):
            # the pipeline estimate_rtm(compiled=True) would build; the
            # runner memoises compile_case's result for it (cache key:
            # request, device, persona, flags, schedule options)
            clear_cache()
            device = Device(
                CRAY_K40.gpu, pcie=CRAY_K40.pcie,
                toolkit=opts.compiler.default_toolkit, pinned_host=opts.flags.pin,
            )
            rt = Runtime(device, compiler=opts.compiler, flags=opts.flags)
            pipe = OffloadPipeline(
                rt, req.physics, req.shape, nreceivers=req.nreceivers,
                space_order=req.space_order, boundary_width=req.boundary_width,
                options=opts, pml_variant=req.pml_variant,
            )
            return compiled_for_pipeline(pipe, "rtm", req.nt, req.snap_period, 1)

        def estimate(req, options):
            return estimate_rtm(
                req.physics, req.shape, req.nt, req.snap_period,
                platform=CRAY_K40, options=options, nreceivers=req.nreceivers,
                space_order=req.space_order, boundary_width=req.boundary_width,
                pml_variant=req.pml_variant,
            )

        return {
            "requests": requests, "cold_compile": cold_compile, "estimate": estimate,
            "interpreted": GPUOptions(),
            "compiled": GPUOptions(compiled=True),
            "gated": GPUOptions(strict_lint=True, sanitize=True, strict_validate=True),
            "golden": load_golden(size, self.name),
        }

    STAGES = ("compile", "interpreted", "compiled", "gated")

    def run(self, state: dict, tracer=None) -> Outputs:
        ops = []
        for req in state["requests"]:
            case = f"{req.physics}-{req.ndim}d"
            for stage in self.STAGES:
                name = f"{case} {stage}"
                with _span(tracer, name):
                    if stage == "compile":
                        op = timed(name, state["cold_compile"], req)
                    else:
                        op = timed(name, state["estimate"], req, state[stage])
                if not op.failed:
                    if stage == "compile":
                        op.value = {
                            "verified": bool(op.value.verified),
                            "validation_ok": bool(op.value.validation.ok),
                            "applied": len(op.value.applied),
                            "skipped": len(op.value.skipped),
                        }
                    else:
                        op.value = gpu_dict(op.value)
                ops.append(op)
        ok = [op.value for op in ops if not op.failed]
        counts = {
            "launches": sum(v["launches"] for v in ok if "launches" in v),
            "applied": sum(v["applied"] for v in ok if "applied" in v),
        }
        return Outputs(ops, counts=counts)

    def check(self, state: dict, out: Outputs) -> None:
        golden = state["golden"] or {}
        by_name = {op.name: op for op in out.ops}
        for op in out.ops:
            if op.failed:
                continue
            case, stage = op.name.rsplit(" ", 1)
            v = op.value
            if stage == "compile":
                if not (v["verified"] and v["validation_ok"]):
                    fail(op, "compiled pipeline not verified")
            elif stage == "interpreted":
                if golden.get(op.name) is None:
                    fail(op, "no golden")
                elif v != golden[op.name]:
                    fail(op, "interpreted GpuTimes differ from the golden")
            elif stage == "compiled":
                # modelled compiled time changes on purpose with the
                # compiler's objective: no golden, only a successful run
                if not (v["success"] and v["launches"] > 0):
                    fail(op, "compiled run failed")
            else:
                interp = by_name[f"{case} interpreted"]
                if interp.error is not None or v != interp.value:
                    fail(op, "gates changed the interpreted GpuTimes")

    def perturb(self, out: Outputs) -> Outputs:
        ops = fresh_ops(out)
        op = next((o for o in ops if o.name.endswith(" interpreted") and not o.failed), None)
        if op is None:
            return Outputs(ops, out.extra, out.counts)
        op.value = dict(op.value)
        op.value["total"] = float(np.nextafter(op.value["total"], np.inf))
        return Outputs(ops, out.extra, out.counts)

    def figures(self, out: Outputs, wall_s: float) -> dict:
        figs = {}
        for stage, metric in (("compile", "compile_cold_s"),
                              ("interpreted", "interpreted_run_s"),
                              ("compiled", "compiled_run_s"),
                              ("gated", "gated_run_s")):
            figs[metric] = sum(
                op.seconds for op in out.ops if op.name.endswith(f" {stage}")
            )
        figs["launches_per_s"] = out.counts["launches"] / wall_s
        return figs

    def layer_counts(self, out: Outputs) -> dict:
        compiles = [op.value for op in out.ops
                    if op.name.endswith(" compile") and not op.failed]
        return {
            "compile.applied": sum(v["applied"] for v in compiles),
            "compile.skipped": sum(v["skipped"] for v in compiles),
        }

    def golden_of(self, out: Outputs) -> dict:
        return {op.name: op.value for op in out.ops if op.name.endswith(" interpreted")}


WORKLOADS = {w.name: w for w in (Tables(), Rtm(), Serve(), CheckCompile())}


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()
