"""The :class:`Grid` — a regular Cartesian mesh in 2 or 3 dimensions.

Axis convention follows the paper's notation ``(z, x)`` in 2-D and
``(z, x, y)`` in 3-D: depth first (axis 0), then horizontal axes. Fields are
stored C-contiguous, so the *last* axis is the fast (unit-stride) one — this
matters to the coalescing analysis in :mod:`repro.acc` and to the
transposition optimization of the paper's Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError

_AXIS_NAMES = {2: ("z", "x"), 3: ("z", "x", "y")}


@dataclass(frozen=True)
class Grid:
    """A regular grid over a physical box.

    Parameters
    ----------
    shape:
        Number of grid points along each axis, ``(nz, nx)`` or
        ``(nz, nx, ny)``.
    spacing:
        Grid step along each axis in metres. A scalar is broadcast to all
        axes.
    origin:
        Physical coordinate of grid point ``(0, ..., 0)`` in metres.
    """

    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...] = field(default=None)  # type: ignore[assignment]

    def __init__(
        self,
        shape: Sequence[int],
        spacing: float | Sequence[float] = 10.0,
        origin: float | Sequence[float] = 0.0,
    ):
        shape_t = tuple(int(n) for n in shape)
        ndim = len(shape_t)
        if ndim not in (2, 3):
            raise ConfigurationError(f"Grid supports 2-D and 3-D, got ndim={ndim}")
        if any(n < 2 for n in shape_t):
            raise ConfigurationError(f"each axis needs >= 2 points, got {shape_t}")
        if np.isscalar(spacing):
            spacing_t = (float(spacing),) * ndim  # type: ignore[arg-type]
        else:
            spacing_t = tuple(float(s) for s in spacing)  # type: ignore[union-attr]
        if len(spacing_t) != ndim:
            raise ConfigurationError(
                f"spacing must have {ndim} entries, got {len(spacing_t)}"
            )
        if any(s <= 0 for s in spacing_t):
            raise ConfigurationError(f"spacing must be positive, got {spacing_t}")
        if np.isscalar(origin):
            origin_t = (float(origin),) * ndim  # type: ignore[arg-type]
        else:
            origin_t = tuple(float(o) for o in origin)  # type: ignore[union-attr]
        if len(origin_t) != ndim:
            raise ConfigurationError(
                f"origin must have {ndim} entries, got {len(origin_t)}"
            )
        object.__setattr__(self, "shape", shape_t)
        object.__setattr__(self, "spacing", spacing_t)
        object.__setattr__(self, "origin", origin_t)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Number of spatial dimensions (2 or 3)."""
        return len(self.shape)

    @property
    def npoints(self) -> int:
        """Total number of grid points."""
        return int(np.prod(self.shape))

    @property
    def axis_names(self) -> tuple[str, ...]:
        """``('z', 'x')`` in 2-D, ``('z', 'x', 'y')`` in 3-D."""
        return _AXIS_NAMES[self.ndim]

    @property
    def extent(self) -> tuple[float, ...]:
        """Physical size of the box along each axis in metres."""
        return tuple((n - 1) * d for n, d in zip(self.shape, self.spacing))

    @property
    def min_spacing(self) -> float:
        return min(self.spacing)

    def axis(self, i: int) -> np.ndarray:
        """Physical coordinates of the grid points along axis ``i``."""
        n = self.shape[i]
        return self.origin[i] + self.spacing[i] * np.arange(n, dtype=np.float64)

    def axes(self) -> tuple[np.ndarray, ...]:
        """Coordinate vectors for all axes."""
        return tuple(self.axis(i) for i in range(self.ndim))

    # ------------------------------------------------------------------
    # fields
    # ------------------------------------------------------------------
    def zeros(self, dtype=DTYPE) -> np.ndarray:
        """Allocate a zero field on this grid."""
        return np.zeros(self.shape, dtype=dtype)

    def full(self, value: float, dtype=DTYPE) -> np.ndarray:
        """Allocate a constant field on this grid."""
        return np.full(self.shape, value, dtype=dtype)

    def field_bytes(self, dtype=DTYPE) -> int:
        """Memory footprint in bytes of one field on this grid."""
        return self.npoints * np.dtype(dtype).itemsize

    # ------------------------------------------------------------------
    # coordinate <-> index conversion
    # ------------------------------------------------------------------
    def nearest_index(self, coords: Sequence[float]) -> tuple[int, ...]:
        """Index of the grid point nearest to physical ``coords`` (metres).

        Raises :class:`ConfigurationError` when the point lies outside the
        grid box by more than half a cell.
        """
        if len(coords) != self.ndim:
            raise ConfigurationError(
                f"expected {self.ndim} coordinates, got {len(coords)}"
            )
        idx = []
        for i, c in enumerate(coords):
            f = (float(c) - self.origin[i]) / self.spacing[i]
            j = int(round(f))
            if j < 0 or j >= self.shape[i]:
                raise ConfigurationError(
                    f"coordinate {c} m lies outside axis {self.axis_names[i]} "
                    f"range [{self.origin[i]}, {self.origin[i] + self.extent[i]}] m"
                )
            idx.append(j)
        return tuple(idx)

    def index_coords(self, index: Sequence[int]) -> tuple[float, ...]:
        """Physical coordinates of grid point ``index``."""
        if len(index) != self.ndim:
            raise ConfigurationError(
                f"expected {self.ndim} indices, got {len(index)}"
            )
        return tuple(
            self.origin[i] + self.spacing[i] * int(j) for i, j in enumerate(index)
        )

    def center_index(self) -> tuple[int, ...]:
        """Index of the central grid point."""
        return tuple(n // 2 for n in self.shape)

    # ------------------------------------------------------------------
    # iteration / dunder sugar
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(n) for n in self.shape)
        sp = ",".join(f"{s:g}" for s in self.spacing)
        return f"Grid({dims}, spacing=({sp}) m)"

    def with_shape(self, shape: Sequence[int]) -> "Grid":
        """A grid with the same spacing/origin but a different shape.

        Used by the decomposition code to build subdomain-local grids.
        """
        return Grid(shape, self.spacing, self.origin)

    def scaled(self, factor: int) -> "Grid":
        """A refinement of this grid: ``factor``x more points per axis with
        proportionally smaller spacing (same physical extent). Used by the
        convergence tests."""
        if factor < 1:
            raise ConfigurationError("factor must be >= 1")
        new_shape = tuple((n - 1) * factor + 1 for n in self.shape)
        new_spacing = tuple(s / factor for s in self.spacing)
        return Grid(new_shape, new_spacing, self.origin)
