"""Device and toolkit specifications.

Numbers come from the paper's Table 2 (GFLOPS, bandwidth, memory, cores)
completed with the public CUDA architecture limits for Fermi CC 2.0 and
Kepler CC 3.5 (registers per thread/SM, threads per SM, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, GiB


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a simulated GPU card."""

    name: str
    chip: str  # 'fermi' | 'kepler'
    compute_capability: tuple[int, int]
    cuda_cores: int
    sm_count: int
    clock_ghz: float
    peak_gflops_sp: float
    mem_bandwidth_bytes: float
    memory_bytes: int
    #: architecture limits (per SM unless noted)
    max_regs_per_thread: int
    regs_per_sm: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    warp_size: int = 32
    #: number of independent copy engines (overlap H2D/D2H with compute)
    copy_engines: int = 2
    #: hardware limit on concurrently resident kernels
    max_concurrent_kernels: int = 16
    #: host-visible kernel launch overhead (seconds)
    launch_overhead_s: float = 7e-6

    @property
    def cores_per_sm(self) -> int:
        return self.cuda_cores // self.sm_count

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Tesla M2090 (Fermi GF110, CC 2.0) on the IBM cluster — paper Table 2.
M2090 = GPUSpec(
    name="Tesla M2090",
    chip="fermi",
    compute_capability=(2, 0),
    cuda_cores=512,
    sm_count=16,
    clock_ghz=1.3,
    peak_gflops_sp=1331.2,
    mem_bandwidth_bytes=180 * GB,
    memory_bytes=6 * GiB,
    max_regs_per_thread=63,
    regs_per_sm=32768,
    max_threads_per_sm=1536,
    max_blocks_per_sm=8,
    max_threads_per_block=1024,
    max_concurrent_kernels=16,
    launch_overhead_s=9e-6,
)

#: Tesla K40 (Kepler GK110B, CC 3.5) on the Cray XC30 — paper Table 2.
K40 = GPUSpec(
    name="Tesla K40",
    chip="kepler",
    compute_capability=(3, 5),
    cuda_cores=2880,
    sm_count=15,
    clock_ghz=0.745,
    peak_gflops_sp=4291.0,
    mem_bandwidth_bytes=288 * GB,
    memory_bytes=12 * GiB,
    max_regs_per_thread=255,
    regs_per_sm=65536,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    max_concurrent_kernels=32,
    launch_overhead_s=7e-6,
)

GPU_CARDS = {"M2090": M2090, "K40": K40, "fermi": M2090, "kepler": K40}


@dataclass(frozen=True)
class CudaToolkit:
    """Code-generation characteristics of a CUDA toolkit version.

    The paper observes: "The CUDA version used affects GPU code generation
    and justifies performance variation" (PGI 14.3 defaults to CUDA 5.0,
    14.6 to CUDA 5.5). The factors below scale the achievable compute and
    memory efficiency of generated kernels and how well the backend handles
    divergent branches — the knobs behind the Figure 6 vs Figure 7 contrast.
    """

    name: str
    #: multiplier on achievable FLOP throughput of generated code
    compute_factor: float
    #: multiplier on achievable DRAM bandwidth of generated code
    memory_factor: float
    #: how much of the branch-divergence penalty the backend removes via
    #: predication (0 = none, 1 = all)
    predication_quality: float


#: CUDA 5.0 (default backend of PGI 14.3): slightly better straight-line
#: codegen for these stencils, poor handling of divergent branches.
CUDA_5_0 = CudaToolkit(
    name="CUDA 5.0", compute_factor=1.00, memory_factor=1.00, predication_quality=0.15
)

#: CUDA 5.5 (default of PGI 14.6): LLVM front-end with good predication —
#: branchy kernels no longer pay, but straight-line code is a touch slower,
#: which is why the paper's 14.3-era restructuring wins vanish under 14.6.
CUDA_5_5 = CudaToolkit(
    name="CUDA 5.5", compute_factor=0.93, memory_factor=0.95, predication_quality=0.85
)
