"""Staggered-grid conventions for the first-order systems.

The acoustic (Eq. 2 of the paper) and elastic (Eq. 3) propagators use
staggered grids: pressure/diagonal stresses live at integer grid points,
particle velocities at half-point offsets along their own axis, and shear
stresses at half-point offsets along both of their axes (the standard
Virieux / Levander layout).

We keep all staggered fields on arrays of the *same shape* as the base grid
— a half-offset field's sample ``i`` represents location ``i + 1/2`` along
the staggered axes. This is how production staggered-grid codes (and the
paper's Fortran) store them; the offset only changes which *derivative
flavour* (forward or backward half-point) applies.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Offset markers: a field component is either on integer points (FULL) or
#: half-point shifted (HALF) along each axis.
FULL = 0
HALF = 1


@dataclass(frozen=True)
class StaggerOffset:
    """Per-axis stagger of a field component.

    ``offsets[i]`` is :data:`FULL` (integer points) or :data:`HALF`
    (points ``j + 1/2``) along axis ``i``.
    """

    offsets: tuple[int, ...]

    def __post_init__(self):
        if not all(o in (FULL, HALF) for o in self.offsets):
            raise ValueError(f"offsets must be FULL(0) or HALF(1), got {self.offsets}")

    @property
    def ndim(self) -> int:
        return len(self.offsets)

    def is_half(self, axis: int) -> bool:
        return self.offsets[axis] == HALF

    @staticmethod
    def centered(ndim: int) -> "StaggerOffset":
        """All-integer-point stagger (pressure, diagonal stress)."""
        return StaggerOffset((FULL,) * ndim)

    @staticmethod
    def half_along(ndim: int, *axes: int) -> "StaggerOffset":
        """Half-point stagger along the given axes (velocities, shear
        stresses)."""
        off = [FULL] * ndim
        for a in axes:
            off[a] = HALF
        return StaggerOffset(tuple(off))

    def derivative_flavour(self, axis: int, target: "StaggerOffset") -> str:
        """Which half-point derivative moves a field at this stagger to
        ``target`` along ``axis``.

        Returns ``'forward'`` when this field is on integer points and the
        target on half points (D+ : samples i..i+1 -> i+1/2), ``'backward'``
        for the reverse (D- : samples i-1..i -> i). Raises ``ValueError``
        when the staggers agree along the axis (no half-point derivative
        connects them).
        """
        src, dst = self.offsets[axis], target.offsets[axis]
        if src == FULL and dst == HALF:
            return "forward"
        if src == HALF and dst == FULL:
            return "backward"
        raise ValueError(
            f"no half-point derivative along axis {axis} between {self} and {target}"
        )
