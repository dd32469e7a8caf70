"""Parameter sweeps beyond the paper's fixed tables.

The paper observes that GPU utilization — and with it the CPU/GPU speedup —
grows with problem dimensionality ("The three-dimensional cases showed
better speedup measurements compared with the two-dimensional cases due to
better GPU utilization"). These sweeps generalise that observation into
curves: speedup and achieved bandwidth versus grid size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acc.compiler import PGI_14_6, CompilerPersona
from repro.core.config import GPUOptions
from repro.core.modeling import estimate_modeling
from repro.core.platform import CRAY_K40, Platform
from repro.core.reference import cpu_modeling_time
from repro.gpusim.kernelmodel import LaunchConfig, estimate_kernel_time
from repro.propagators.workloads import workloads_for
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    x: float
    speedup: float
    gpu_total: float
    cpu_total: float


def grid_size_sweep(
    physics: str = "acoustic",
    sizes: tuple[int, ...] = (128, 256, 512, 1024, 2048),
    ndim: int = 2,
    nt: int = 200,
    snap_period: int = 10,
    platform: Platform = CRAY_K40,
    persona: CompilerPersona = PGI_14_6,
) -> list[SweepPoint]:
    """Total modeling speedup versus (square/cubic) grid edge length."""
    if ndim not in (2, 3):
        raise ConfigurationError("ndim must be 2 or 3")
    points = []
    for n in sizes:
        shape = (n,) * ndim
        gpu = estimate_modeling(
            physics, shape, nt, snap_period, platform=platform,
            options=GPUOptions(compiler=persona),
        )
        if not gpu.success:
            continue
        cpu = cpu_modeling_time(platform.cluster, physics, shape, nt, snap_period)
        points.append(
            SweepPoint(
                x=float(n),
                speedup=cpu.total / gpu.total,
                gpu_total=gpu.total,
                cpu_total=cpu.total,
            )
        )
    if not points:
        raise ConfigurationError("no sweep point fit the device")
    return points


def achieved_bandwidth_sweep(
    physics: str = "acoustic",
    sizes: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096),
    ndim: int = 2,
    platform: Platform = CRAY_K40,
) -> dict[int, float]:
    """Main-kernel achieved bandwidth (bytes/s) versus grid edge — the
    utilization-growth curve behind the paper's 70 %-vs-90 % numbers."""
    cfg = LaunchConfig(maxregcount=64)
    out = {}
    for n in sizes:
        shape = (n,) * ndim
        workloads = workloads_for(physics, shape)
        main = max(workloads, key=lambda w: w.points * w.flops_per_point)
        est = estimate_kernel_time(platform.gpu, main, cfg)
        out[n] = est.achieved_bandwidth
    return out
