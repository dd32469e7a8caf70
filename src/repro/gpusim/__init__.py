"""Simulated NVIDIA accelerator.

The paper's hardware (Tesla M2090 / K40) is replaced by an analytic device
model parameterised by the real spec sheets (the paper's Table 2). The model
captures exactly the mechanisms the paper's optimizations act through:

* global-memory capacity (the elastic-3D OOM on the 6 GB M2090),
* PCIe transfers — pageable vs pinned, whole-field vs partial/ghost-node,
  contiguous vs strided (:mod:`repro.gpusim.pcie`),
* CUDA occupancy from registers-per-thread and block size, with Fermi
  (CC 2.0) vs Kepler (CC 3.5) limits (:mod:`repro.gpusim.occupancy`),
* a roofline kernel cost model with coalescing, branch-divergence and
  register-spill derates (:mod:`repro.gpusim.kernelmodel`),
* async stream timelines with launch-gap packing
  (:mod:`repro.gpusim.streams`),
* a profiler reproducing the per-kernel utilization breakdowns of the
  paper's Figures 11, 14 and 15 (:mod:`repro.gpusim.profiler`).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "specs": ("GPUSpec", "M2090", "K40", "CudaToolkit", "CUDA_5_0", "CUDA_5_5", "GPU_CARDS"),
    "memory": ("DeviceMemory", "Allocation"),
    "pcie": ("PCIeModel", "TransferStats"),
    "occupancy": ("occupancy", "OccupancyResult"),
    "kernelmodel": (
        "LaunchConfig", "KernelEstimate", "estimate_kernel_time", "estimate_register_demand",
    ),
    "streams": ("StreamPool",),
    "profiler": ("Profiler", "ProfileEvent", "ProfileReport"),
    "device": ("Device",),
})
