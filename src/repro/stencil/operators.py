"""Vectorised stencil operators.

Each operator computes the *valid interior* of a same-shape output array,
``stencil_radius(order)`` points in from each end of its axis. The
propagators keep wavefields inside an absorbing layer wider than the
stencil radius, so the border never feeds back into the physics.

Every tap runs as one contiguous sweep over the flattened arrays: the
neighbour ``k`` points along an axis sits ``k`` axis strides away in flat
memory, so a tap is a 1-D slice pair whatever the axis. The sweep also
computes the points near the axis ends, whose neighbours wrap into the
adjacent rows; those are never part of the valid interior and each
operator overwrites them (see the per-function contracts). Tap order and
float32 operations are those of one N-D slice expression per tap, so the
results are bitwise equal to that form (the tests keep it as reference).
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


def stencil_radius(order: int = DEFAULT_SPACE_ORDER) -> int:
    """Half-width of the stencil of the given accuracy order (4 for the
    paper's width-8 operators)."""
    if order <= 0 or order % 2 != 0:
        raise ConfigurationError(f"order must be a positive even integer, got {order}")
    return order // 2


def _axis_slice(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _check_length(u: np.ndarray, axis: int, need: int, order: int) -> int:
    n = u.shape[axis]
    if n < need:
        raise ConfigurationError(
            f"axis {axis} has {n} points, needs >= {need} for order {order}"
        )
    return n


def second_derivative(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
    accumulate: bool = False,
) -> np.ndarray:
    """Centered 2nd derivative of ``u`` along ``axis``.

    Valid for indices ``radius .. n-radius-1`` along ``axis``; only those
    positions of ``out`` are written. With ``accumulate=True`` the result
    is added to ``out`` instead of overwriting — that is how
    :func:`laplacian` fuses the axis contributions.
    """
    m = stencil_radius(order)
    n = _check_length(u, axis, 2 * m + 1, order)
    c0, side = second_derivative_coefficients(order)
    inv_h2 = 1.0 / (spacing * spacing)
    center = _axis_slice(u.ndim, axis, slice(m, n - m))
    if out is None:
        out = np.zeros_like(u)
        accumulate = False
    scal = u.dtype.type  # keep scalar precision matched to the field
    stride = math.prod(u.shape[axis + 1:])
    flat = u.reshape(-1)
    start, length = m * stride, flat.size - 2 * m * stride
    scratch = np.empty(u.shape, dtype=u.dtype)
    acc = scratch.reshape(-1)[start:start + length]
    np.multiply(flat[start:start + length], scal(c0 * inv_h2), out=acc)
    tap = np.empty_like(acc)
    for k, ck in enumerate(side, start=1):
        up = flat[start + k * stride:start + k * stride + length]
        dn = flat[start - k * stride:start - k * stride + length]
        np.add(up, dn, out=tap)
        tap *= scal(ck * inv_h2)
        acc += tap
    if accumulate:
        out[center] += scratch[center]
    else:
        out[center] = scratch[center]
    return out


def laplacian(
    u: np.ndarray,
    spacing: tuple[float, ...],
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """High-order Laplacian of ``u`` (sum of per-axis 2nd derivatives).

    ``out`` is cleared and every axis accumulates into it, so only the
    *common* interior (radius border on every axis) holds the complete
    Laplacian; that is the region the propagators update. The border keeps
    the partial sums of the axes it is interior to.
    """
    if len(spacing) != u.ndim:
        raise ConfigurationError(
            f"spacing needs {u.ndim} entries, got {len(spacing)}"
        )
    if out is None:
        out = np.zeros_like(u)
    else:
        out.fill(0.0)
    for axis, h in enumerate(spacing):
        second_derivative(u, axis, h, order=order, out=out, accumulate=True)
    return out


def _staggered_diff(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int,
    out: np.ndarray | None,
    shift: int,
) -> np.ndarray:
    """Shared body of the staggered first derivatives: sample ``i`` of the
    result is ``(1/h) * sum_k c_k (u[i+k-shift] - u[i-k+1-shift])`` for
    ``i`` in ``m-1+shift .. n-m-1+shift`` along ``axis`` and +0.0 at every
    other position. ``shift`` is 0 forward, 1 backward.

    The first tap writes straight into ``out`` (which therefore must be
    C-contiguous and must not overlap ``u``), the others go through one
    scratch vector and accumulate in tap order; the border along ``axis``,
    wrapped points included, is zeroed last.
    """
    m = stencil_radius(order)
    n = _check_length(u, axis, 2 * m + shift, order)
    coefs = staggered_coefficients(order)
    inv_h = 1.0 / spacing
    if out is None:
        out = np.empty(u.shape, dtype=u.dtype)
    elif not out.flags.c_contiguous:
        raise ConfigurationError("out must be a C-contiguous array")
    scal = u.dtype.type
    stride = math.prod(u.shape[axis + 1:])
    flat = u.reshape(-1)
    first, end = m - 1 + shift, n - m + shift  # valid samples along the axis
    start, length = first * stride, flat.size - (2 * m - 1) * stride
    acc = out.reshape(-1)[start:start + length]
    tap = np.empty_like(acc)
    for k, ck in enumerate(coefs, start=1):
        hi = start + (k - shift) * stride
        lo = start - (k - 1 + shift) * stride
        dst = acc if k == 1 else tap
        np.subtract(flat[hi:hi + length], flat[lo:lo + length], out=dst)
        dst *= scal(ck * inv_h)
        if k > 1:
            acc += tap
    out[_axis_slice(u.ndim, axis, slice(0, first))] = 0.0
    out[_axis_slice(u.ndim, axis, slice(end, n))] = 0.0
    return out


def staggered_diff_forward(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First derivative taken *forward* to half points: sample ``i`` of the
    result approximates ``du/dx`` at ``i + 1/2``.

    ``D+ u[i] = (1/h) * sum_m c_m (u[i+m] - u[i-m+1])``.
    Valid for ``i`` in ``m-1 .. n-m-1``; every other position of ``out``
    is set to +0.0, so the whole of ``out`` is written.
    """
    return _staggered_diff(u, axis, spacing, order, out, shift=0)


def staggered_diff_backward(
    u: np.ndarray,
    axis: int,
    spacing: float,
    order: int = DEFAULT_SPACE_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """First derivative taken *backward* from half points: sample ``i`` of
    the result approximates ``du/dx`` at integer point ``i`` given samples at
    half points (stored with the same-shape convention, sample ``j`` == point
    ``j + 1/2``).

    ``D- u[i] = (1/h) * sum_m c_m (u[i+m-1] - u[i-m])``.
    Valid for ``i`` in ``m .. n-m``; every other position of ``out`` is set
    to +0.0, so the whole of ``out`` is written.
    """
    return _staggered_diff(u, axis, spacing, order, out, shift=1)


# ----------------------------------------------------------------------
# cost metadata consumed by the GPU cost model
# ----------------------------------------------------------------------
def laplacian_reads_per_point(ndim: int, order: int = DEFAULT_SPACE_ORDER) -> int:
    """Distinct input samples per output point of the Laplacian: the paper's
    25-point figure for ndim=3, order=8."""
    return ndim * order + 1


def laplacian_flops_per_point(ndim: int, order: int = DEFAULT_SPACE_ORDER) -> int:
    """Floating-point operations per output point of the symmetric-form
    Laplacian: per axis, m adds for symmetric pairs, m multiplies, m adds to
    accumulate, plus the centre multiply-add."""
    m = order // 2
    per_axis = 3 * m
    return ndim * per_axis + 2
