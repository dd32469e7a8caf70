"""Wave-equation propagators for the paper's three formulations.

* :class:`IsotropicPropagator` — Eq. 1, constant-density second-order system
  with standard PML (25-point / width-8 Laplacian stencil).
* :class:`AcousticPropagator` — Eq. 2, variable-density first-order
  staggered-grid system with C-PML.
* :class:`ElasticPropagator2D` / :class:`ElasticPropagator3D` — Eq. 3,
  velocity-stress staggered-grid system with C-PML.

All are implemented dimension-explicitly in single precision, matching the
paper's experimental setup, and validated by the test suite against
analytic wavefront kinematics, energy decay in the absorbing layers, and
convergence behaviour.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Propagator", "PropagatorState"),
    "cfl": ("max_stable_dt", "default_dt"),
    "isotropic": ("IsotropicPropagator",),
    "acoustic": ("AcousticPropagator",),
    "elastic2d": ("ElasticPropagator2D",),
    "elastic3d": ("ElasticPropagator3D",),
    "vti": ("VTIPropagator",),
    "factory": ("make_propagator", "PHYSICS_NAMES", "EXTENDED_PHYSICS_NAMES"),
})
