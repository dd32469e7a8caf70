"""Small NumPy helpers shared across the stencil and propagator code.

All wavefields in the package are single-precision C-contiguous arrays, as in
the paper ("All computations were carried out in single precision"). The
helpers here centralise dtype policy and the index gymnastics of applying
wide stencils to array interiors without copying (views, not copies — the
dominant cost in these kernels is memory traffic).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: The package-wide floating dtype (the paper uses single precision).
DTYPE = np.float32


def as_f32(a: np.ndarray | Sequence[float]) -> np.ndarray:
    """Return ``a`` as a C-contiguous float32 array, avoiding copies when
    the input already complies."""
    return np.ascontiguousarray(a, dtype=DTYPE)


def interior_slices(ndim: int, radius: int) -> tuple[slice, ...]:
    """Slices selecting the interior of an ``ndim``-D array, excluding a
    border of ``radius`` points on every side.

    ``radius=0`` returns full slices.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return (slice(None),) * ndim
    return (slice(radius, -radius),) * ndim


def shifted_slices(
    ndim: int, axis: int, shift: int, radius: int
) -> tuple[slice, ...]:
    """Slices selecting the interior shifted by ``shift`` along ``axis``.

    Used to express ``u[i + s]`` relative to the interior ``u[i]`` without
    fancy indexing: for an interior defined by ``radius``, the view
    ``u[shifted_slices(u.ndim, axis, s, radius)]`` aligns element-for-element
    with ``u[interior_slices(u.ndim, radius)]``.

    ``abs(shift)`` must not exceed ``radius``.
    """
    if abs(shift) > radius:
        raise ValueError(f"|shift|={abs(shift)} exceeds radius={radius}")
    sl = [slice(radius, -radius)] * ndim
    lo = radius + shift
    hi = -radius + shift
    sl[axis] = slice(lo, hi if hi != 0 else None)
    return tuple(sl)


def pad_tuple(value: int | Sequence[int], ndim: int, name: str = "value") -> tuple[int, ...]:
    """Broadcast a scalar to an ``ndim``-tuple, or validate a sequence length."""
    if np.isscalar(value):
        return (int(value),) * ndim  # type: ignore[arg-type]
    t = tuple(int(v) for v in value)  # type: ignore[union-attr]
    if len(t) != ndim:
        raise ValueError(f"{name} must have length {ndim}, got {len(t)}")
    return t
