"""Generate EXPERIMENTS.md: paper-reported vs reproduced, for every table
and figure.

Run as ``python -m repro.bench.experiments [output-path]``.
"""

from __future__ import annotations

import sys

from repro.bench import figures, paper_data
from repro.bench.report import Row
from repro.bench.table3 import table3_rows
from repro.bench.table4 import table4_rows
from repro.optim.tuning import best_register_count


def _cell_str(values) -> str:
    if values is None:
        return "x"
    t, sp, kt, ksp = values
    return f"{t:g} / {sp:g} / {kt:g} / {ksp:g}"


def _our_cell_str(cell) -> str:
    if cell.failed:
        return f"x ({cell.failure})"
    return (
        f"{cell.gpu_total:.1f} / {cell.total_speedup:.2f} / "
        f"{cell.gpu_kernel:.1f} / {cell.kernel_speedup:.2f}"
    )


def _table_section(
    title: str, rows: list[Row], paper: dict, note: str
) -> list[str]:
    lines = [f"## {title}", "", note, "",
             "Cell format: `GPU total (s) / total speedup / GPU kernel (s) / kernel speedup`.",
             "Absolute seconds are not comparable (different grids/steps); speedups are.",
             ""]
    lines.append(
        "| Case | column | paper | reproduced |"
    )
    lines.append("|---|---|---|---|")
    for row in rows:
        p = paper[row.name]
        for key, cell in (
            ("CRAY + CRAY cc", row.cray_cray),
            ("CRAY + PGI", row.cray_pgi),
            ("IBM + PGI", row.ibm_pgi),
        ):
            pk = {"CRAY + CRAY cc": "cray_cray", "CRAY + PGI": "cray_pgi",
                  "IBM + PGI": "ibm_pgi"}[key]
            lines.append(
                f"| {row.name} | {key} | {_cell_str(p[pk])} | {_our_cell_str(cell)} |"
            )
    lines.append("")
    return lines


def generate(path: str = "EXPERIMENTS.md") -> str:
    """Regenerate everything and write the report; returns the text."""
    out: list[str] = []
    out.append("# EXPERIMENTS — paper vs reproduction")
    out.append("")
    out.append(
        "Every table and figure of *GPU Technology Applied to Reverse Time "
        "Migration and Seismic Modeling via OpenACC* (PMAM/PPoPP 2015), "
        "regenerated by this package's simulated-platform harness "
        "(`pytest benchmarks/` reruns all of it with shape assertions). "
        "Grids/step counts are ours (the paper does not publish its own), so "
        "absolute times differ; the comparison targets are the speedups and "
        "qualitative shapes. This file is generated by "
        "`python -m repro.bench.experiments`."
    )
    out.append("")

    # Tables 3 and 4 -----------------------------------------------------
    t3 = table3_rows()
    out += _table_section(
        "Table 3 — seismic modeling",
        t3,
        paper_data.TABLE3,
        "Workloads: 2-D 1024^2, 3-D 512^3 (elastic 448^3), 1000 steps, "
        "snapshot every 10 steps.",
    )
    t4 = table4_rows()
    out += _table_section(
        "Table 4 — RTM",
        t4,
        paper_data.TABLE4,
        "Same workloads; forward + backward phases with full-field "
        "snapshots.",
    )
    out.append("Shape checks that hold in the reproduction (asserted in "
               "`benchmarks/`):")
    out.append("")
    for claim in (
        "elastic 3-D is the best modeling speedup (paper 2.7x; reproduced "
        f"{t3[5].cray_pgi.total_speedup:.2f}x), isotropic the worst;",
        "kernel speedup >= total speedup everywhere (transfers excluded);",
        "elastic 3-D is `x` (OOM) on the 6 GB M2090 and runs on the 12 GB K40;",
        "elastic 3-D RTM is `x` under the CRAY compiler (build failure) and "
        "on the M2090 (OOM);",
        "isotropic RTM total speedups fall below 1 on the CRAY (per-step "
        "host updates), while the kernels stay near parity;",
        "the IBM acoustic RTM cells show the paper's anomalously large "
        f"speedups (paper 10.2x/10.8x; reproduced "
        f"{t4[4].ibm_pgi.total_speedup:.1f}x/{t4[4].ibm_pgi.kernel_speedup:.1f}x "
        "— direction and most of the magnitude; see Deviations).",
    ):
        out.append(f"- {claim}")
    out.append("")

    # Figures --------------------------------------------------------------
    out.append("## Figures 6 and 7 — ISO 3-D PML variants under PGI 14.3 / 14.6")
    out.append("")
    f67 = figures.fig6_fig7_iso_variants()
    out.append("| compiler | branchy (orig) | restructured | PML-everywhere |")
    out.append("|---|---|---|---|")
    for comp, s in f67.items():
        out.append(
            f"| {comp} | {s['branchy']:.1f} s | {s['restructured']:.1f} s | "
            f"{s['everywhere']:.1f} s |"
        )
    g143 = f67["PGI 14.3"]["branchy"] / f67["PGI 14.3"]["restructured"]
    g146 = f67["PGI 14.6"]["branchy"] / f67["PGI 14.6"]["restructured"]
    out.append("")
    out.append(
        f"Paper: restructuring pays under 14.3 (CUDA 5.0) and not under 14.6 "
        f"(CUDA 5.5). Reproduced: {g143:.1f}x gain under 14.3 vs {g146:.1f}x "
        "under 14.6; PML-everywhere beats the original only under 14.3."
    )
    out.append("")

    out.append("## Figures 8 and 9 — acoustic kernels vs parallel on CRAY")
    out.append("")
    f89 = figures.fig8_fig9_acoustic_constructs()
    out.append("| case | kernels | parallel (gang/worker/vector) | ratio |")
    out.append("|---|---|---|---|")
    for dim, s in f89.items():
        out.append(
            f"| acoustic {dim} | {s['kernels']:.1f} s | {s['parallel']:.1f} s | "
            f"{s['kernels'] / s['parallel']:.1f}x |"
        )
    out.append("")
    out.append("Paper: explicit `parallel` scheduling wins on CRAY. Reproduced.")
    out.append("")

    out.append("## Figure 10 — elastic 3-D registers per thread (K40)")
    out.append("")
    pts = figures.fig10_register_sweep()
    out.append("| maxregcount | seconds | occupancy | spilled regs |")
    out.append("|---|---|---|---|")
    for p in pts:
        out.append(
            f"| {p.maxregcount} | {p.seconds:.3f} | {p.occupancy:.2f} | "
            f"{p.spilled_regs} |"
        )
    out.append("")
    out.append(
        f"Paper: 64 is optimal on both cards. Reproduced: best = "
        f"{best_register_count(pts)} (spills below, occupancy loss above)."
    )
    out.append("")

    out.append("## Figure 11 — elastic 2-D async streams")
    out.append("")
    f11 = figures.fig11_async()
    out.append(
        f"Paper: async cuts 30 % on CRAY (launch-gap packing, no kernel "
        f"overlap) and hurts under PGI. Reproduced: CRAY "
        f"{100 * f11['CRAY']:.0f} % saved, PGI {100 * f11['PGI']:.0f} % "
        "(a regression)."
    )
    out.append("")

    out.append("## Figure 12 — acoustic 3-D loop fission")
    out.append("")
    f12 = figures.fig12_fission()
    for card, s in f12.items():
        out.append(
            f"- {card}: fused {s['fused']:.3f} s -> fissioned "
            f"{s['fissioned']:.3f} s ({s['fused'] / s['fissioned']:.1f}x)"
        )
    out.append("")
    out.append(
        "Paper: 3x on the Fermi (register spills beyond its 63/thread "
        "ceiling), nothing on the Kepler (255/thread). Reproduced."
    )
    out.append("")

    out.append("## Figure 13 — transposition for coalescing (acoustic 2-D backward)")
    out.append("")
    f13 = figures.fig13_coalescing()
    for card, s in f13.items():
        out.append(
            f"- {card}: original {1e3 * s['original']:.1f} ms -> transposed "
            f"{1e3 * s['transposed']:.1f} ms "
            f"({s['original'] / s['transposed']:.1f}x)"
        )
    reuse = figures.backward_reuse_comparison("acoustic", 2)
    out.append(
        f"- backward-kernel reuse (Section 5.1 step 4): "
        f"{reuse['original'] / reuse['reuse_modeling_kernel']:.1f}x on the "
        "RTM total"
    )
    out.append("")
    out.append("Paper: ~3x on both cards. Reproduced.")
    out.append("")

    out.append("## Figures 14 and 15 — ISO 2-D RTM profiles (M2090)")
    out.append("")
    profs = figures.fig14_fig15_profiles()
    for label, rep in profs.items():
        out.append(f"### {label}")
        out.append("```")
        out.append(rep.to_text())
        out.append("```")
    cpu_rep = profs["image_on_cpu"]
    out.append(
        f"Paper (Fig. 14): 73.4 % main kernel / 26.2 % receiver injection / "
        f"0.4 % source injection. Reproduced: "
        f"{100 * cpu_rep.kernel_share('iso_update'):.1f} % / "
        f"{100 * cpu_rep.kernel_share('receiver_injection'):.1f} % / "
        f"{100 * cpu_rep.kernel_share('source_injection'):.2f} %; the GPU-"
        "imaging variant adds two low-share imaging kernels, as in Fig. 15."
    )
    out.append("")

    out.append("## Figures 3 and 5 — wavefield snapshot and RTM image")
    out.append("")
    out.append(
        "`examples/modeling_snapshot.py` renders the refracting acoustic "
        "wavefront (Fig. 3 analogue); `examples/rtm_image.py` migrates a "
        "faulted two-layer model and recovers the interface at 700 m / "
        "900 m on the two fault blocks (Fig. 5 analogue). The RTM driver "
        "tests additionally assert the reflector depth for all three "
        "formulations."
    )
    out.append("")

    out.append("## Extensions beyond the paper")
    out.append("")
    from repro.core import scaling_study

    study = scaling_study("acoustic", (512, 512, 512), 100, 10, gpu_counts=(1, 2, 4, 8))
    base = study[1]
    rows = ", ".join(
        f"{n} GPUs -> {study[n].speedup_vs(base):.2f}x" for n in (2, 4, 8)
    )
    out.append(
        f"- **Multi-GPU slab decomposition** (the paper's Section 7 path "
        f"forward): strong scaling on K40s, acoustic 3-D 512^3: {rows}; "
        "comm/compute overlap beats blocking exchange, and elastic 3-D "
        "becomes runnable on two 6 GB M2090s (the single-card `x` cells "
        "dissolve). `benchmarks/test_multigpu_scaling.py`."
    )
    out.append(
        "- **VTI pseudo-acoustic propagator** (the deferred anisotropic "
        "case): Thomsen eps/delta formulation that reduces exactly to the "
        "isotropic Eq. 1 at eps = delta = 0 and reproduces the elliptical "
        "sqrt(1+2 eps) horizontal front stretch. "
        "`examples/anisotropic_modeling.py`, `tests/propagators/test_vti.py`."
    )
    out.append(
        "- **Multi-shot survey stacking** (the imaging condition summed "
        "over sources): `examples/multi_shot_survey.py`."
    )
    out.append("")
    out.append("## Known deviations")
    out.append("")
    for d in (
        "**Absolute times.** The paper's grid sizes, step counts and shot "
        "geometry are unpublished; all absolute seconds here come from our "
        "chosen workloads. Only ratios are comparable.",
        "**IBM acoustic RTM magnitude.** The paper reports 10.2x/10.8x; our "
        "model reproduces the anomaly's direction (and the CRAY-side ~1.3x) "
        "via a measured backward-phase degradation of the IBM CPU reference "
        "(`ClusterSpec.rtm_backward_quality`), reaching ~7-8x. The paper's "
        "own Table 3 vs Table 4 data for identical kernels (2.3x modeling "
        "vs 10.8x RTM kernel speedup) cannot be produced by any single "
        "roofline-consistent mechanism, so we carry it as a calibrated "
        "input rather than inventing physics.",
        "**Isotropic 2-D IBM RTM.** Paper 0.5x, reproduced ~1x-1.5x: our "
        "per-step host-update model for the isotropic RTM is milder than "
        "whatever the original code did on the Fermi platform.",
        "**Section 6.1's 'acoustic 3-D GPU is 2x faster than isotropic 3-D "
        "GPU (similar CPU times)'.** Our consistent-traffic model makes the "
        "acoustic step intrinsically heavier per point; we reproduce the "
        "relative *speedup* ordering instead of the absolute GPU-time "
        "ordering.",
        "**The directive aspect.** OpenACC pragmas are modelled as a Python "
        "API over compiler personas; the numerics execute in NumPy either "
        "way (the reproduction bands note the directive aspect is lost in "
        "a Python reproduction).",
    ):
        out.append(f"- {d}")
    out.append("")

    text = "\n".join(out)
    with open(path, "w") as f:
        f.write(text)
    return text


def results_json() -> dict:
    """Machine-readable harness results (tables + headline figures)."""
    def cell(c):
        if c.failed:
            return {"failed": c.failure}
        return {
            "gpu_total_s": c.gpu_total,
            "total_speedup": c.total_speedup,
            "gpu_kernel_s": c.gpu_kernel,
            "kernel_speedup": c.kernel_speedup,
        }

    def table(rows):
        return {
            r.name: {
                "cray_cray": cell(r.cray_cray),
                "cray_pgi": cell(r.cray_pgi),
                "ibm_pgi": cell(r.ibm_pgi),
            }
            for r in rows
        }

    f12 = figures.fig12_fission()
    f13 = figures.fig13_coalescing()
    f11 = figures.fig11_async()
    pts = figures.fig10_register_sweep()
    profs = figures.fig14_fig15_profiles()
    return {
        "table3_modeling": table(table3_rows()),
        "table4_rtm": table(table4_rows()),
        "fig14_fig15_profiles": {
            label: rep.to_json() for label, rep in profs.items()
        },
        "fig10_best_maxregcount": best_register_count(pts),
        "fig11_async_improvement": f11,
        "fig12_fission_speedup": {
            card: s["fused"] / s["fissioned"] for card, s in f12.items()
        },
        "fig13_transpose_speedup": {
            card: s["original"] / s["transposed"] for card, s in f13.items()
        },
    }


def write_json(path: str) -> None:
    import json

    with open(path, "w") as f:
        json.dump(results_json(), f, indent=2)


if __name__ == "__main__":  # pragma: no cover
    args = sys.argv[1:]
    if args and args[0] == "--json":
        target = args[1] if len(args) > 1 else "experiments.json"
        write_json(target)
    else:
        target = args[0] if args else "EXPERIMENTS.md"
        generate(target)
    print(f"wrote {target}")
