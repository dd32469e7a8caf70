"""repro — reproduction of *GPU Technology Applied to Reverse Time Migration
and Seismic Modeling via OpenACC* (Qawasmeh, Chapman, Hugues, Calandra,
PMAM/PPoPP 2015).

The package implements, from scratch and in pure NumPy:

* the three wave-physics formulations the paper ports (isotropic
  constant-density second-order, acoustic variable-density first-order
  staggered-grid, elastic velocity-stress), each in 2D and 3D
  (:mod:`repro.propagators`);
* seismic modeling and Reverse Time Migration drivers following the paper's
  Algorithm 1 and the five-step OpenACC offload pipeline of its Figure 4
  (:mod:`repro.core`);
* an OpenACC-style directive layer — data regions, ``kernels``/``parallel``
  constructs, loop-scheduling clauses, async queues — lowered by PGI-like and
  CRAY-like compiler personas (:mod:`repro.acc`);
* a simulated NVIDIA device (Fermi M2090 and Kepler K40) with a memory
  allocator, PCIe transfer model, CUDA occupancy calculator, roofline kernel
  cost model and profiler (:mod:`repro.gpusim`);
* an MPI-like substrate with Cartesian domain decomposition and halo exchange
  plus a CPU-cluster cost model used as the paper's full-socket reference
  (:mod:`repro.mpisim`);
* the paper's optimization catalogue — loop fission, transposition for
  coalescing, register tuning, async packing, PML restructuring
  (:mod:`repro.optim`);
* a benchmark harness regenerating every table and figure of the paper's
  evaluation section (:mod:`repro.bench`).

Quickstart::

    import repro
    model = repro.model.layered_model((301, 301), spacing=10.0,
                                      interfaces=[1500.0], velocities=[1500., 2500.])
    result = repro.core.run_modeling(repro.core.ModelingConfig(
        physics="acoustic", model=model, nt=500))
    print(result.snapshots.frames()[-1].shape)
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "version": ("__version__",),
    "": (
        "acc", "bench", "boundary", "core", "gpusim", "grid", "model", "mpisim", "optim",
        "propagators", "source", "stencil", "trace", "utils",
    ),
})
