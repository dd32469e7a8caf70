"""Elastic 3-D velocity-stress propagator — Eq. 3 of the paper in full.

Nine wavefields on the standard 3-D staggered lattice, axes ``(z, x, y)``:

==============================  ============================
field                           stagger (half-shifted along)
==============================  ============================
``sxx``, ``syy``, ``szz``       — (integer points)
``vz`` / ``vx`` / ``vy``        z / x / y
``sxy``                         x and y
``sxz``                         x and z
``syz``                         y and z
==============================  ============================

This is "the most computationally intensive case" of the paper — nine field
updates with 22 C-PML-damped spatial derivatives per time step — and the one
whose wavefields exceed the Fermi M2090's 6 GB at the paper's 3-D sizes
(the ``x`` entries in its Tables 3 and 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.boundary.cpml import CPML
from repro.model.earth_model import EarthModel
from repro.propagators.base import (
    KernelWorkload,
    Propagator,
    add_scaled,
    staggered_average,
    staggered_harmonic_average,
)
from repro.stencil.operators import staggered_diff_backward, staggered_diff_forward
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError

_Z, _X, _Y = 0, 1, 2


class ElasticPropagator3D(Propagator):
    """Isotropic elastic velocity-stress propagator in 3-D."""

    scheme = "staggered"
    physics = "elastic"

    def __init__(
        self,
        model: EarthModel,
        dt: float | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        cpml_alpha_max: float = 0.0,
        **kwargs,
    ):
        if model.grid.ndim != 3:
            raise ConfigurationError("ElasticPropagator3D needs a 3-D model")
        super().__init__(model, dt, space_order, boundary_width, **kwargs)
        lam, mu = model.lame_parameters()
        rho = model.density().astype(np.float64)
        self.lam = lam
        self.lam2mu = (lam.astype(np.float64) + 2.0 * mu.astype(np.float64)).astype(DTYPE)
        inv_rho = (1.0 / rho).astype(DTYPE)
        self.buoy = {
            _Z: staggered_average(inv_rho, _Z),
            _X: staggered_average(inv_rho, _X),
            _Y: staggered_average(inv_rho, _Y),
        }
        self.mu_xy = staggered_harmonic_average(mu, (_X, _Y))
        self.mu_xz = staggered_harmonic_average(mu, (_X, _Z))
        self.mu_yz = staggered_harmonic_average(mu, (_Y, _Z))
        self.vx = self._new_field("vx")
        self.vy = self._new_field("vy")
        self.vz = self._new_field("vz")
        self.sxx = self._new_field("sxx")
        self.syy = self._new_field("syy")
        self.szz = self._new_field("szz")
        self.sxy = self._new_field("sxy")
        self.sxz = self._new_field("sxz")
        self.syz = self._new_field("syz")
        self.cpml = CPML(
            self.grid,
            boundary_width,
            model.max_wave_speed(),
            self.dt,
            alpha_max=cpml_alpha_max,
        )
        #: the three derivative slots and two work buffers of a step
        self._bufs = tuple(np.zeros(self.grid.shape, dtype=DTYPE) for _ in range(3))
        self._work = tuple(np.zeros(self.grid.shape, dtype=DTYPE) for _ in range(2))
        self._pressure = np.zeros(self.grid.shape, dtype=DTYPE)

    def snapshot_field(self) -> np.ndarray:
        """Pressure-like observable ``-(sxx + syy + szz)/3``."""
        np.add(self.sxx, self.syy, out=self._pressure)
        self._pressure += self.szz
        self._pressure *= np.float32(-1.0 / 3.0)
        return self._pressure

    def inject_pressure(self, indices, amplitudes, scale: float = 1.0) -> None:
        """Pressure injection drives the three diagonal stresses."""
        from repro.source.injection import inject

        for field in (self.sxx, self.syy, self.szz):
            inject(field, indices, amplitudes, scale=-scale)

    # ------------------------------------------------------------------
    def _diff(
        self, f: np.ndarray, axis: int, fwd: bool, name: str, slot: int
    ) -> np.ndarray:
        """One damped derivative (22 per step) into derivative buffer
        ``slot``: the operator overwrites all of it, so the buffer is
        reused as is. An update reads at most three derivatives at once,
        one per slot."""
        h = self.grid.spacing[axis]
        diff = staggered_diff_forward if fwd else staggered_diff_backward
        d = diff(f, axis, h, self.space_order, out=self._bufs[slot])
        return self.cpml.damp(name, axis, d, half=fwd)

    def _sum(self, taps) -> np.ndarray:
        """Left-to-right sum of the damped derivatives ``taps`` (each
        ``(field, axis, fwd, name)``), accumulated in the first slot."""
        total = self._diff(*taps[0], 0)
        for slot, tap in enumerate(taps[1:], start=1):
            total += self._diff(*tap, slot)
        return total

    def _step_impl(self, sources: Sequence[tuple[tuple[int, ...], float]]) -> None:
        dt = np.float32(self.dt)
        w, w2 = self._work
        # --- velocities: v += dt * buoy * (sum of three derivatives) ----
        for field, axis, taps in (
            (self.vx, _X, ((self.sxx, _X, True, "dsxx_dx"),
                           (self.sxy, _Y, False, "dsxy_dy"),
                           (self.sxz, _Z, False, "dsxz_dz"))),
            (self.vy, _Y, ((self.sxy, _X, False, "dsxy_dx"),
                           (self.syy, _Y, True, "dsyy_dy"),
                           (self.syz, _Z, False, "dsyz_dz"))),
            (self.vz, _Z, ((self.sxz, _X, False, "dsxz_dx"),
                           (self.syz, _Y, False, "dsyz_dy"),
                           (self.szz, _Z, True, "dszz_dz"))),
        ):
            add_scaled(field, dt, self.buoy[axis], self._sum(taps), w)
        if self.mid_step_hook is not None:
            self.mid_step_hook()
        # --- diagonal stresses (sharing the three divergence terms) ----
        dvx_dx = self._diff(self.vx, _X, False, "dvx_dx", 0)
        dvy_dy = self._diff(self.vy, _Y, False, "dvy_dy", 1)
        dvz_dz = self._diff(self.vz, _Z, False, "dvz_dz", 2)
        # s += dt * (lam2mu * own + lam * (other1 + other2))
        for field, own, other1, other2 in (
            (self.sxx, dvx_dx, dvy_dy, dvz_dz),
            (self.syy, dvy_dy, dvx_dx, dvz_dz),
            (self.szz, dvz_dz, dvx_dx, dvy_dy),
        ):
            np.add(other1, other2, out=w2)
            w2 *= self.lam
            np.multiply(self.lam2mu, own, out=w)
            w += w2
            w *= dt
            field += w
        # --- shear stresses: s += dt * mu * (sum of two derivatives) ----
        for field, mu, taps in (
            (self.sxy, self.mu_xy, ((self.vy, _X, True, "dvy_dx"),
                                    (self.vx, _Y, True, "dvx_dy"))),
            (self.sxz, self.mu_xz, ((self.vz, _X, True, "dvz_dx"),
                                    (self.vx, _Z, True, "dvx_dz"))),
            (self.syz, self.mu_yz, ((self.vz, _Y, True, "dvz_dy"),
                                    (self.vy, _Z, True, "dvy_dz"))),
        ):
            add_scaled(field, dt, mu, self._sum(taps), w)
        # --- explosive source ------------------------------------------
        for index, amp in sources:
            a = dt * np.float32(amp)
            self.sxx[index] += a
            self.syy[index] += a
            self.szz[index] += a

    # ------------------------------------------------------------------
    def kernel_workloads(self) -> list[KernelWorkload]:
        from repro.propagators.workloads import elastic_workloads

        return elastic_workloads(self.grid.shape, self.space_order)
