"""Benchmark harness regenerating every table and figure of the paper.

* :mod:`repro.bench.workloads` — the 12 seismic cases' grid sizes and step
  counts (the paper does not publish its exact grids; ours are chosen so the
  memory-capacity gates behave identically — elastic 3-D exceeds the M2090).
* :mod:`repro.bench.table3` / :mod:`repro.bench.table4` — modeling and RTM
  timing/speedup matrices.
* :mod:`repro.bench.figures` — the Figure 6-15 studies.
* :mod:`repro.bench.paper_data` — the paper's reported numbers, for the
  side-by-side comparison in EXPERIMENTS.md.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "workloads": ("CaseSpec", "modeling_case", "ALL_CASES"),
    "table3": ("table3_rows", "format_table3"),
    "table4": ("table4_rows", "format_table4"),
    "report": ("Cell", "Row", "format_gpu_times", "format_speedup_table"),
    "sweeps": ("SweepPoint", "grid_size_sweep", "achieved_bandwidth_sweep"),
    "": ("figures", "paper_data"),
})
