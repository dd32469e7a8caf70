"""Finite-difference coefficients and vectorised stencil operators.

The paper's propagators use "operators with a 3D stencil width of 8"
(8th-order accurate), i.e. a radius-4 stencil per axis; the second-derivative
Laplacian then touches 25 points in 3-D (3 axes x 8 neighbours + centre),
matching the paper's "25 data read accesses ... at each grid point".
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "coefficients": (
        "centered_coefficients", "staggered_coefficients", "second_derivative_coefficients",
        "DEFAULT_SPACE_ORDER",
    ),
    "dispersion": (
        "second_derivative_symbol", "staggered_first_derivative_symbol", "phase_velocity_ratio",
        "points_per_wavelength_for_accuracy",
    ),
    "operators": (
        "second_derivative", "laplacian", "staggered_diff_forward", "staggered_diff_backward",
        "stencil_radius", "laplacian_flops_per_point", "laplacian_reads_per_point",
    ),
})
