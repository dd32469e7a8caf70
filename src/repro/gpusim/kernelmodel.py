"""Roofline kernel cost model with occupancy, coalescing, divergence and
register-spill derates.

The model estimates one kernel launch's execution time from the
:class:`~repro.propagators.base.KernelWorkload` metadata and a
:class:`LaunchConfig` produced by the directive compiler:

``time = max(compute_time, memory_time) * wave_quantization + fixed_cost``

* **memory side** — DRAM traffic is the *compulsory* traffic
  ``4 bytes * (read streams + writes)`` per point (the stencil's spatial
  reuse is captured by the cache hierarchy on both CPU and GPU), divided by
  the achievable bandwidth: peak x toolkit codegen factor x base OpenACC
  efficiency x occupancy derate x coalescing factor x divergence factor.
* **compute side** — flops over peak x codegen x base efficiency x
  occupancy derate x divergence factor.
* **registers** — demand is estimated from the body's address streams and
  arithmetic (the paper: "most of the register pressure ... was with the
  array address variables"). A ``maxregcount`` clamp below demand is mostly
  absorbed by rematerialization (the compiler has slack); demand beyond the
  *architectural* per-thread maximum spills for real. This asymmetry is what
  makes loop fission worth 3x on Fermi (63-register ceiling) and nothing on
  Kepler (255) — the paper's Figure 12 finding — while ``maxregcount 64``
  stays optimal on Kepler (Figure 10).
* **wave quantization** — the block grid executes in waves of
  ``SMs x resident blocks``; the ceil() on the last partial wave is the
  small-kernel penalty that caps 2-D GPU utilization (~70 % in the paper)
  below 3-D (~90 %).

Calibration constants are module-level and named; the benchmark suite's
shape assertions (Tables 3-4, Figures 6-13) pin their joint behaviour.

Memo contract
-------------
A price is a pure function of *values*: the frozen ``GPUSpec``,
``CudaToolkit`` and ``LaunchConfig``, and the ``KernelWorkload`` fields
the model reads (``points``, ``flops_per_point``, ``writes_per_point``,
the nest depth ``len(loop_dims)``, ``address_streams``, ``has_branches``,
``inner_contiguous``, ``gather_axes``). :func:`estimate_kernel_time`
therefore keeps every estimate it computes in a process-wide memo keyed
on exactly those values; a run prices a few hundred distinct launches
tens of thousands of times. ``KernelWorkload`` is mutable, so the key is
built from its field values on every call, never from its identity.
Errors are never memoised: an input that raises raises on every call.
Two threads missing on one key may both compute it; the results are
equal, so either may stay.

* The calibration constants above enter every memoised price. They must
  never be reassigned at runtime (monkeypatched, tuned in place): the
  memo would keep serving prices computed under the old values.
* Every call still enters :func:`estimate_kernel_time`, so call counts
  taken around it (the wall-clock benchmark's ``gpusim.estimate.calls``)
  keep meaning "launches priced"; only the repeated body work is skipped.
* The memo holds one entry per distinct launch of the process and has no
  size knob; the key space is bounded by the cases a process runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.occupancy import OccupancyResult, occupancy
from repro.gpusim.specs import CUDA_5_0, CudaToolkit, GPUSpec
from repro.propagators.base import KernelWorkload
from repro.utils.errors import ConfigurationError

# ----------------------------------------------------------------------
# calibration constants
# ----------------------------------------------------------------------
#: fraction of peak DRAM bandwidth OpenACC-generated stencil code reaches
#: with perfect coalescing. Calibrated low: 2014-era OpenACC codegen has no
#: shared-memory blocking (the paper notes the tile/cache directives "are
#: not working properly"), no read-only/texture path, and re-fetches stencil
#: neighbours through L2 — the paper's own kernel speedups (~1.2x a 10-core
#: socket for the memory-bound isotropic case) pin this value.
BASE_MEM_EFFICIENCY = 0.135
#: fraction of peak FLOP throughput generated straight-line code reaches
BASE_COMPUTE_EFFICIENCY = 0.55
#: bandwidth multiplier when the innermost parallel loop is *not*
#: unit-stride (each warp access splinters into many memory transactions) —
#: the transposition fix of the paper's Figure 13 buys ~3x end to end
UNCOALESCED_FACTOR = 1.0 / 4.0
#: device-side floor of any kernel execution (setup/teardown on the GPU,
#: visible in the profiler even for one-point kernels — how 408k tiny
#: receiver-injection launches reach 26 % of the paper's Figure 14 profile)
KERNEL_DEVICE_FLOOR_S = 7.0e-6
#: throughput multiplier when gridification failed (imperfect nest left one
#: loop level serialized inside each thread)
UNGRIDIFIED_FACTOR = 0.40
#: raw slowdown of a fully divergent body before backend predication
DIVERGENCE_COST = 1.2
#: registers: base demand + per-address-stream and per-flop terms
REG_BASE = 10
REG_PER_STREAM_PER_DIM = 2.0
REG_PER_FLOP = 0.10
#: fraction of a maxregcount deficit the compiler absorbs by rematerializing
REMAT_SLACK = 0.25
#: DRAM bytes per point per hard-spilled register (spill store + reload)
SPILL_BYTES_PER_REG = 8.0
#: extra flops per point per register of deficit (rematerialization cost)
REMAT_FLOPS_PER_REG = 0.5
#: occupancy below which bandwidth cannot be saturated; the derate ramps
#: linearly and saturates at OCC_SATURATION
OCC_SATURATION = 0.50
OCC_FLOOR = 0.30
#: 2-D kernels reach ~70% of the utilization 3-D kernels do (paper
#: Section 6.2: "around 70% for the most intensive compute kernel, in
#: contrast with 90% in the 3D cases") — thin iteration spaces give the
#: scheduler fewer full waves and shorter bursts per block
TWOD_UTILIZATION_DERATE = 0.78
#: bandwidth penalty per extra stencil gather axis beyond the first: a
#: multi-axis gather (the isotropic 25-point cross) scatters each thread's
#: reads over many strided cache lines; 2014-era OpenACC codegen has no
#: shared-memory tiling to recover the waste. Per extra axis the effective
#: bandwidth is divided by (1 + GATHER_AXIS_PENALTY).
GATHER_AXIS_PENALTY = 0.05


def occupancy_bandwidth_derate(occ: float) -> float:
    """Achievable-bandwidth fraction as a function of occupancy: enough
    resident warps are needed to cover DRAM latency; beyond ~50 % extra
    occupancy buys nothing."""
    if occ <= 0:
        return OCC_FLOOR * 0.5
    return min(1.0, OCC_FLOOR + (1.0 - OCC_FLOOR) * occ / OCC_SATURATION)


@dataclass(frozen=True)
class LaunchConfig:
    """How the directive compiler mapped a loop nest onto the device."""

    #: threads per block (the OpenACC vector length x workers)
    threads_per_block: int = 128
    #: -maxregcount compiler flag; None = unclamped
    maxregcount: int | None = None
    #: innermost parallel loop walks unit-stride memory
    coalesced: bool = True
    #: a 2-D (or wider) grid of blocks was formed from the nest
    gridified: bool = True
    #: number of nest levels collapsed into the block grid
    collapsed_levels: int = 2
    #: asynchronous queue id (None = default stream, synchronous semantics)
    async_queue: int | None = None

    def __post_init__(self):
        if self.threads_per_block < 1:
            raise ConfigurationError("threads_per_block must be >= 1")
        if self.maxregcount is not None and self.maxregcount < 16:
            raise ConfigurationError("maxregcount below 16 is not supported")


@dataclass(frozen=True)
class KernelEstimate:
    """Modelled execution of one kernel launch."""

    seconds: float
    limited_by: str  # 'memory' | 'compute'
    occupancy: float
    regs_demand: int
    regs_allocated: int
    spilled_regs: int
    dram_bytes: float
    flops: float
    achieved_bandwidth: float
    achieved_gflops: float
    waves: int

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the binding roofline resource — the number
        the paper calls 'GPU utilization' of a kernel."""
        return self._eff

    _eff: float = 0.0


def estimate_register_demand(workload: KernelWorkload, ndim: int | None = None) -> int:
    """Estimated register demand of the kernel body.

    Dominated by address arithmetic: each distinct array base indexed in an
    ``ndim``-deep nest holds ~``ndim`` offset temporaries (the paper's
    explanation for the acoustic-3D fission win), plus a share of the
    arithmetic live range.
    """
    if ndim is None:
        ndim = len(workload.loop_dims)
    demand = (
        REG_BASE
        + REG_PER_STREAM_PER_DIM * ndim * workload.address_streams
        + REG_PER_FLOP * workload.flops_per_point
    )
    return max(16, int(round(demand)))


#: the launch an unspecified ``launch`` argument means
_DEFAULT_LAUNCH = LaunchConfig()

#: estimate_kernel_time's memo (see "Memo contract" above)
_ESTIMATES: dict[tuple, KernelEstimate] = {}


def estimate_kernel_time(
    spec: GPUSpec,
    workload: KernelWorkload,
    launch: LaunchConfig | None = None,
    toolkit: CudaToolkit = CUDA_5_0,
) -> KernelEstimate:
    """Model one launch of ``workload`` under ``launch`` on ``spec``.

    The returned time excludes the host-side launch overhead (charged by
    :class:`~repro.gpusim.device.Device` so async queues can hide it).
    Memoised on input values; equal inputs return the same (frozen)
    estimate object.
    """
    if launch is None:
        launch = _DEFAULT_LAUNCH
    key = (
        spec,
        toolkit,
        launch,
        workload.points,
        workload.flops_per_point,
        workload.writes_per_point,
        len(workload.loop_dims),
        workload.address_streams,
        workload.has_branches,
        workload.inner_contiguous,
        workload.gather_axes,
    )
    est = _ESTIMATES.get(key)
    if est is None:
        est = _ESTIMATES[key] = _estimate_kernel_time(spec, workload, launch, toolkit)
    return est


def _estimate_kernel_time(
    spec: GPUSpec,
    workload: KernelWorkload,
    launch: LaunchConfig,
    toolkit: CudaToolkit,
) -> KernelEstimate:
    """The uncached body of :func:`estimate_kernel_time`."""
    # --- registers -----------------------------------------------------
    demand = estimate_register_demand(workload)
    arch_max = spec.max_regs_per_thread
    clamp = min(launch.maxregcount or arch_max, arch_max)
    allocated = min(demand, clamp)
    deficit = demand - allocated
    if demand > arch_max:
        # architectural ceiling: unavoidable true spills
        hard_spill = demand - arch_max
    elif launch.maxregcount is not None and launch.maxregcount < demand:
        # flag clamp: the compiler rematerializes away a slack fraction
        hard_spill = max(0, int(deficit - REMAT_SLACK * demand))
    else:
        hard_spill = 0
    # --- occupancy -------------------------------------------------------
    tpb = min(launch.threads_per_block, spec.max_threads_per_block)
    occ_res: OccupancyResult = occupancy(spec, max(16, allocated), tpb)
    occ = occ_res.occupancy
    occ_bw = occupancy_bandwidth_derate(occ)
    # --- divergence ------------------------------------------------------
    div_factor = 1.0
    if workload.has_branches:
        div_factor = 1.0 + DIVERGENCE_COST * (1.0 - toolkit.predication_quality)
    grid_factor = 1.0 if launch.gridified else UNGRIDIFIED_FACTOR
    coal_factor = 1.0 if (launch.coalesced and workload.inner_contiguous) else UNCOALESCED_FACTOR
    gather_factor = 1.0 / (1.0 + GATHER_AXIS_PENALTY * max(0, workload.gather_axes - 1))
    if len(workload.loop_dims) <= 2:
        gather_factor *= TWOD_UTILIZATION_DERATE
    # --- memory side ------------------------------------------------------
    dram_bytes_per_point = 4.0 * (workload.address_streams + workload.writes_per_point)
    dram_bytes_per_point += SPILL_BYTES_PER_REG * hard_spill
    dram_bytes = dram_bytes_per_point * workload.points
    eff_bw = (
        spec.mem_bandwidth_bytes
        * BASE_MEM_EFFICIENCY
        * toolkit.memory_factor
        * occ_bw
        * coal_factor
        * grid_factor
        * gather_factor
        / div_factor
    )
    mem_time = dram_bytes / eff_bw
    # --- compute side -----------------------------------------------------
    flops_per_point = workload.flops_per_point + REMAT_FLOPS_PER_REG * deficit
    flops = flops_per_point * workload.points
    eff_flops = (
        spec.peak_gflops_sp
        * 1e9
        * BASE_COMPUTE_EFFICIENCY
        * toolkit.compute_factor
        * min(1.0, OCC_FLOOR + (1.0 - OCC_FLOOR) * occ / OCC_SATURATION)
        * grid_factor
        / div_factor
    )
    comp_time = flops / eff_flops
    # --- wave quantization --------------------------------------------------
    blocks = max(1, math.ceil(workload.points / tpb))
    resident = max(1, occ_res.active_blocks_per_sm * spec.sm_count)
    waves = max(1, math.ceil(blocks / resident))
    full_wave_fraction = blocks / (waves * resident)
    quant = 1.0 / max(full_wave_fraction, 1e-6)
    body = max(mem_time, comp_time) * quant + KERNEL_DEVICE_FLOOR_S
    limited = "memory" if mem_time >= comp_time else "compute"
    est = KernelEstimate(
        seconds=body,
        limited_by=limited,
        occupancy=occ,
        regs_demand=demand,
        regs_allocated=allocated,
        spilled_regs=hard_spill,
        dram_bytes=dram_bytes,
        flops=flops,
        achieved_bandwidth=dram_bytes / body if body > 0 else 0.0,
        achieved_gflops=flops / body / 1e9 if body > 0 else 0.0,
        waves=waves,
    )
    eff = (
        est.achieved_bandwidth / spec.mem_bandwidth_bytes
        if limited == "memory"
        else est.achieved_gflops / spec.peak_gflops_sp
    )
    object.__setattr__(est, "_eff", eff)
    return est
