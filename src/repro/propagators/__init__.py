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

from repro.propagators.base import Propagator, PropagatorState
from repro.propagators.cfl import (
    max_stable_dt,
    default_dt,
)
from repro.propagators.isotropic import IsotropicPropagator
from repro.propagators.acoustic import AcousticPropagator
from repro.propagators.elastic2d import ElasticPropagator2D
from repro.propagators.elastic3d import ElasticPropagator3D
from repro.propagators.vti import VTIPropagator
from repro.propagators.factory import make_propagator, PHYSICS_NAMES, EXTENDED_PHYSICS_NAMES

__all__ = [
    "Propagator",
    "PropagatorState",
    "max_stable_dt",
    "default_dt",
    "IsotropicPropagator",
    "AcousticPropagator",
    "ElasticPropagator2D",
    "ElasticPropagator3D",
    "VTIPropagator",
    "make_propagator",
    "PHYSICS_NAMES",
    "EXTENDED_PHYSICS_NAMES",
]
