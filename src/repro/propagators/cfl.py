"""Stability (CFL) and dispersion bounds for the FD schemes.

The bounds are derived from the actual stencil coefficients rather than
hard-coded: for the second-order-in-time leapfrog scheme the von Neumann
limit is ``dt <= 2 / (vmax * sqrt(lambda_max))`` where ``lambda_max`` bounds
the discrete Laplacian symbol; for the staggered first-order leapfrog it is
``dt <= 1 / (vmax * sqrt(sum_i (S / h_i)^2))`` with ``S = 2 * sum|c_m|`` the
peak of the staggered first-derivative symbol... both reduce to the familiar
Courant numbers when evaluated for 2nd-order coefficients.
"""

from __future__ import annotations

import math

from repro.stencil.coefficients import (
    DEFAULT_SPACE_ORDER,
    second_derivative_coefficients,
    staggered_coefficients,
)
from repro.utils.errors import ConfigurationError

#: Safety factor applied on top of the theoretical limit.
DEFAULT_SAFETY = 0.8


def _second_order_symbol_max(order: int) -> float:
    """Upper bound of ``|symbol|`` of the centered 2nd-derivative stencil at
    unit spacing: ``|c0| + 2 * sum|ck|``."""
    c0, side = second_derivative_coefficients(order)
    return abs(c0) + 2.0 * sum(abs(c) for c in side)


def _staggered_symbol_max(order: int) -> float:
    """Peak of the staggered first-derivative symbol at unit spacing:
    ``2 * sum|cm|`` (attained at the Nyquist wavenumber)."""
    return 2.0 * sum(abs(c) for c in staggered_coefficients(order))


def max_stable_dt(
    vmax: float,
    spacing: tuple[float, ...],
    scheme: str,
    order: int = DEFAULT_SPACE_ORDER,
) -> float:
    """Theoretical stability limit on ``dt`` for anisotropic spacing."""
    if vmax <= 0:
        raise ConfigurationError("vmax must be positive")
    ndim = len(spacing)
    if any(h <= 0 for h in spacing):
        raise ConfigurationError("spacings must be positive")
    if scheme == "second_order":
        m2 = _second_order_symbol_max(order)
        lam = sum(m2 / h**2 for h in spacing)
        return 2.0 / (vmax * math.sqrt(lam))
    if scheme == "staggered":
        s = _staggered_symbol_max(order)
        acc = sum((s / h) ** 2 for h in spacing)
        return 2.0 / (vmax * math.sqrt(acc))
    raise ConfigurationError(f"unknown scheme '{scheme}' (ndim={ndim})")


def default_dt(
    vmax: float,
    spacing: tuple[float, ...],
    scheme: str,
    order: int = DEFAULT_SPACE_ORDER,
    safety: float = DEFAULT_SAFETY,
) -> float:
    """A safe production time step: ``safety`` times the stability limit."""
    if not 0 < safety <= 1:
        raise ConfigurationError("safety must be in (0, 1]")
    return safety * max_stable_dt(vmax, spacing, scheme, order)
