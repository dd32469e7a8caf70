"""Isotropic constant-density propagator — Eq. 1 of the paper.

Second-order-in-time leapfrog over a width-8 (25-point in 3-D) Laplacian
stencil with standard PML. The same kernel serves the forward and backward
phases ("The isotropic kernel used in both phases was the same"), which is
why the isotropic RTM does not suffer the backward-coalescing problem of the
staggered models.

Three code variants, matching the paper's Figures 6-7 study of the PML
if-statements:

* ``pml_variant="branchy"`` — the original code: plain update in the
  interior, damped update in the boundary slabs, selected by per-point
  conditions (modelled as divergent branches on the GPU);
* ``pml_variant="restructured"`` — the paper's first approach: "remove these
  if-conditions by changing the loop indices and restructuring the loop
  region accordingly" — the same region split expressed as separate perfectly
  nested loops (no branches; one kernel per region);
* ``pml_variant="everywhere"`` — the second approach: "compute PML everywhere
  in the grid domain" — one branch-free kernel applying the damped formula at
  every point (more flops, perfect gridification).

All three produce **identical numerics** (the damped formula reduces exactly
to the plain one where sigma == 0); they differ only in the kernel workload
metadata the GPU model sees. The test suite asserts the numerical identity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.boundary.pml import StandardPML
from repro.model.earth_model import EarthModel
from repro.propagators.base import KernelWorkload, Propagator
from repro.stencil.operators import laplacian
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError

_VARIANTS = ("branchy", "restructured", "everywhere")


def boundary_slabs(shape: tuple[int, ...], width: int) -> list[tuple[slice, ...]]:
    """Decompose the boundary frame of thickness ``width`` into
    non-overlapping slabs (two per axis, shrinking laterally with axis
    index so slabs never overlap)."""
    slabs: list[tuple[slice, ...]] = []
    if width == 0:
        return slabs
    for axis in range(len(shape)):
        for side in ("lo", "hi"):
            sl: list[slice] = []
            for ax2, n in enumerate(shape):
                if ax2 < axis:
                    sl.append(slice(width, n - width))
                elif ax2 == axis:
                    sl.append(slice(0, width) if side == "lo" else slice(n - width, n))
                else:
                    sl.append(slice(None))
            slabs.append(tuple(sl))
    return slabs


class IsotropicPropagator(Propagator):
    """Constant-density acoustic (isotropic) propagator.

    Fields: ``u`` (current) and ``u_prev``; the update writes ``u_next``
    into the ``u_prev`` storage and swaps references, mirroring the paper's
    "logically swapping t_n and t_{n+1} arrays".
    """

    scheme = "second_order"
    physics = "isotropic"

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        pml_variant: str = "branchy",
        pml_reflection: float = 1e-4,
        **kwargs,
    ):
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        if pml_variant not in _VARIANTS:
            raise ConfigurationError(
                f"pml_variant must be one of {_VARIANTS}, got '{pml_variant}'"
            )
        self.pml_variant = pml_variant
        self.pml = StandardPML(
            self.grid,
            boundary_width,
            model.max_wave_speed(),
            self.dt,
            reflection=pml_reflection,
        )
        self.u = self._new_field("u")
        self.u_prev = self._new_field("u_prev")
        self._lap = np.zeros(self.grid.shape, dtype=DTYPE)
        # precomputed: dt^2 * vp^2 (the paper's Q operator weight)
        self.vp2dt2 = (self.model.vp.astype(np.float64) ** 2 * self.dt**2).astype(DTYPE)
        self._slabs = boundary_slabs(self.grid.shape, self.pml.width)
        self._interior = self.pml.interior_slices()

    def snapshot_field(self) -> np.ndarray:
        return self.u

    # ------------------------------------------------------------------
    def _step_impl(self, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        lap = laplacian(self.u, self.grid.spacing, self.space_order, out=self._lap)
        u, up = self.u, self.u_prev
        if self.pml_variant == "everywhere" or not self.pml.is_absorbing():
            rhs = self.vp2dt2 * lap - (self.dt**2 * self.pml.sigma2) * u
            u_next = self.pml.coeff_curr * u - self.pml.coeff_prev * up + self.pml.coeff_rhs * rhs
            up[...] = u_next
        else:
            # plain leapfrog everywhere, then damped overwrite in the slabs
            u_next = 2.0 * u - up + self.vp2dt2 * lap
            for sl in self._slabs:
                rhs = (
                    self.vp2dt2[sl] * lap[sl]
                    - (self.dt**2 * self.pml.sigma2[sl]) * u[sl]
                )
                u_next[sl] = (
                    self.pml.coeff_curr[sl] * u[sl]
                    - self.pml.coeff_prev[sl] * up[sl]
                    + self.pml.coeff_rhs[sl] * rhs
                )
            up[...] = u_next
        # source injection: + dt^2 vp^2 f^n at the source point (Eq. 1)
        for index, amp in sources:
            up[index] += self.vp2dt2[index] * np.float32(amp)
        # logical swap of t_n / t_{n+1}
        self.u, self.u_prev = self.u_prev, self.u
        self.fields["u"], self.fields["u_prev"] = self.u, self.u_prev

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import isotropic_workloads

        return isotropic_workloads(
            self.grid.shape, self.space_order, self.pml.width, self.pml_variant
        )
