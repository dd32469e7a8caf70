"""Absorbing boundary layers.

Matching the paper's Section 5: the *standard PML* is used for the
second-order isotropic formulation, the *Convolutional PML* (C-PML) for the
acoustic variable-density and elastic media ("storing four different
one-dimensional arrays with the cpml-coefficients for each dimension").
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "profiles": ("damping_profile", "pml_sigma_max"),
    "pml": ("StandardPML",),
    "cpml": ("CPML",),
})
