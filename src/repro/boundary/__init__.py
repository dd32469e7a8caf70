"""Absorbing boundary layers.

Matching the paper's Section 5: the *standard PML* is used for the
second-order isotropic formulation, the *Convolutional PML* (C-PML) for the
acoustic variable-density and elastic media ("storing four different
one-dimensional arrays with the cpml-coefficients for each dimension").
"""

from repro.boundary.profiles import damping_profile, pml_sigma_max
from repro.boundary.pml import StandardPML
from repro.boundary.cpml import CPML

__all__ = [
    "damping_profile",
    "pml_sigma_max",
    "StandardPML",
    "CPML",
]
