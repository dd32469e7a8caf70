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

from repro.bench.workloads import CaseSpec, modeling_case, ALL_CASES
from repro.bench.table3 import table3_rows, format_table3
from repro.bench.table4 import table4_rows, format_table4
from repro.bench.report import (
    Cell,
    Row,
    format_gpu_times,
    format_speedup_table,
)
from repro.bench.sweeps import (
    SweepPoint,
    grid_size_sweep,
    achieved_bandwidth_sweep,
)
from repro.bench import figures
from repro.bench import paper_data

__all__ = [
    "CaseSpec",
    "modeling_case",
    "ALL_CASES",
    "table3_rows",
    "format_table3",
    "table4_rows",
    "format_table4",
    "Cell",
    "Row",
    "format_gpu_times",
    "format_speedup_table",
    "SweepPoint",
    "grid_size_sweep",
    "achieved_bandwidth_sweep",
    "figures",
    "paper_data",
]
