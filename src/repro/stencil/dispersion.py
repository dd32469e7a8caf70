"""Analytic dispersion analysis of the FD schemes.

For a plane wave :math:`e^{i(kx - \\omega t)}` the discrete schemes support
a numerical phase velocity that deviates from the physical one as the
wavelength approaches the grid spacing. These closed forms (derived from
the stencil symbols of :mod:`repro.stencil.coefficients`) predict the
deviation, complementing the measured sweep in
``benchmarks/test_numerics_quality.py`` and giving users a principled way
to choose grid spacing for a target accuracy — the trade behind the paper's
width-8 operators.
"""

from __future__ import annotations

import math

import numpy as np

from repro.stencil.coefficients import (
    DEFAULT_SPACE_ORDER,
    second_derivative_coefficients,
    staggered_coefficients,
)
from repro.utils.errors import ConfigurationError


def second_derivative_symbol(kh: np.ndarray, order: int = DEFAULT_SPACE_ORDER) -> np.ndarray:
    """Symbol of the centered 2nd-derivative stencil at normalised
    wavenumber ``kh = k * h`` (unit spacing): the exact operator gives
    ``-(kh)^2``; the discrete one gives ``c0 + 2 sum_m c_m cos(m kh)``."""
    kh = np.asarray(kh, dtype=np.float64)
    c0, side = second_derivative_coefficients(order)
    acc = np.full_like(kh, c0)
    for m, cm in enumerate(side, start=1):
        acc = acc + 2.0 * cm * np.cos(m * kh)
    return acc


def staggered_first_derivative_symbol(
    kh: np.ndarray, order: int = DEFAULT_SPACE_ORDER
) -> np.ndarray:
    """Imaginary part of the staggered D+ symbol at ``kh`` (unit spacing):
    the exact operator gives ``kh``; the discrete one
    ``2 sum_m c_m sin((2m-1) kh / 2)``."""
    kh = np.asarray(kh, dtype=np.float64)
    acc = np.zeros_like(kh)
    for m, cm in enumerate(staggered_coefficients(order), start=1):
        acc = acc + 2.0 * cm * np.sin((2 * m - 1) * kh / 2.0)
    return acc


def phase_velocity_ratio(
    kh: np.ndarray,
    scheme: str,
    order: int = DEFAULT_SPACE_ORDER,
    courant: float = 0.4,
) -> np.ndarray:
    """Numerical / physical phase velocity for one spatial wavenumber.

    ``scheme`` is ``'second_order'`` (leapfrog + centered Laplacian — the
    isotropic system) or ``'staggered'`` (staggered leapfrog — the
    acoustic/elastic systems); ``courant = v dt / h``. 1-D analysis (the
    worst-propagation-angle axis).
    """
    kh = np.asarray(kh, dtype=np.float64)
    if np.any(kh <= 0) or np.any(kh > math.pi):
        raise ConfigurationError("kh must lie in (0, pi]")
    if not 0 < courant < 1:
        raise ConfigurationError("courant must be in (0, 1)")
    if scheme == "second_order":
        # leapfrog: sin^2(omega dt / 2) = (C^2 / 4) * (-symbol)
        arg2 = 0.25 * courant**2 * (-second_derivative_symbol(kh, order))
    elif scheme == "staggered":
        # staggered leapfrog: sin(omega dt / 2) = (C/2) * |D+ symbol|
        arg2 = (0.5 * courant * staggered_first_derivative_symbol(kh, order)) ** 2
    else:
        raise ConfigurationError(f"unknown scheme '{scheme}'")
    if np.any(arg2 > 1.0 + 1e-12):
        raise ConfigurationError(
            "unstable configuration: courant exceeds the scheme's CFL bound "
            "at the requested wavenumber"
        )
    omega_dt = 2.0 * np.arcsin(np.sqrt(np.clip(arg2, 0.0, 1.0)))
    return omega_dt / (courant * kh)


def points_per_wavelength_for_accuracy(
    max_error: float,
    scheme: str,
    order: int = DEFAULT_SPACE_ORDER,
    courant: float = 0.4,
) -> float:
    """Minimum grid points per wavelength keeping the phase-velocity error
    under ``max_error`` (bisection over kh; ppw = 2 pi / kh)."""
    if not 0 < max_error < 1:
        raise ConfigurationError("max_error must be in (0, 1)")
    lo, hi = 1e-3, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        err = abs(float(phase_velocity_ratio(np.array([mid]), scheme, order, courant)[0]) - 1.0)
        if err <= max_error:
            lo = mid
        else:
            hi = mid
    return 2.0 * math.pi / lo
