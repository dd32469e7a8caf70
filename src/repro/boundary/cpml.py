"""Convolutional PML (C-PML) for the first-order systems.

Komatitsch & Martin (2007) recursive-convolution formulation: each spatial
derivative :math:`\\partial_i u` entering the acoustic/elastic updates is
replaced by

.. math::

    \\widetilde{\\partial_i u} = \\frac{\\partial_i u}{\\kappa_i} + \\psi_i,
    \\qquad
    \\psi_i^{n+1} = b_i \\psi_i^n + a_i \\, \\partial_i u

with per-axis 1-D coefficient profiles

.. math::

    b_i = e^{-(\\sigma_i/\\kappa_i + \\alpha_i)\\Delta t}, \\qquad
    a_i = \\frac{\\sigma_i}{\\kappa_i(\\sigma_i + \\kappa_i\\alpha_i)}(b_i - 1).

As in the paper we keep :math:`\\kappa_i = 1`, so the per-dimension state is
exactly *four one-dimensional arrays*: ``(b, a)`` evaluated at integer and at
half-shifted positions (staggered fields sample the profiles at
``i + 1/2``). Memory variables :math:`\\psi` are lazily allocated per named
derivative, so propagators simply write::

    dpdx = staggered_diff_forward(p, axis=1, h)
    dpdx = cpml.damp("dpdx", axis=1, deriv=dpdx, half=True)

Only the two slabs along the differentiation axis where the 1-D profile
does something (``b != 1`` or ``a != 0``) are touched, and :math:`\\psi`
is stored for those slabs alone: everywhere else the recursion is the
identity, :math:`\\psi` stays +0.0 and the damped derivative equals the
raw one.

Equality contract. A full-grid sweep would add that +0.0 :math:`\\psi` to
the interior derivative, turning a -0.0 into +0.0; the slab-only sweep
keeps the -0.0. Nothing downstream sees the difference: wavefields take
derivatives only through ``+=`` of products, a field that starts at +0.0
and only accumulates is never -0.0, and ``x + (±0.0) == x`` bitwise for
every other ``x``. Wavefields, images and seismograms are therefore
byte-equal to the full-grid recursion; only an interior damped derivative
itself may differ, and only in the sign of a zero.
"""

from __future__ import annotations

import math

import numpy as np

from repro.boundary.profiles import damping_profile, pml_sigma_max
from repro.grid.grid import Grid
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


class CPML:
    """C-PML coefficient store + memory-variable manager for one grid.

    Parameters
    ----------
    grid:
        The wavefield grid.
    width:
        Layer width in cells (each side of each axis). ``0`` disables
        absorption (all ``a = 0``) while keeping the same code path.
    vmax:
        Fastest model velocity.
    dt:
        Time step.
    alpha_max:
        Peak of the frequency-shift profile; Komatitsch & Martin recommend
        ``pi * f_dominant``. Default 0 reduces to classic PML coefficients.
    reflection:
        Target theoretical reflection coefficient.
    """

    def __init__(
        self,
        grid: Grid,
        width: int,
        vmax: float,
        dt: float,
        alpha_max: float = 0.0,
        reflection: float = 1e-4,
        profile_order: int = 2,
    ):
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        if width < 0:
            raise ConfigurationError("width must be >= 0")
        if alpha_max < 0:
            raise ConfigurationError("alpha_max must be >= 0")
        self.grid = grid
        self.width = int(width)
        self.dt = float(dt)
        # the paper's "four different one-dimensional arrays ... for each
        # dimension": b_full, a_full, b_half, a_half per axis
        self.b: list[dict[bool, np.ndarray]] = []
        self.a: list[dict[bool, np.ndarray]] = []
        for axis, n in enumerate(grid.shape):
            if 2 * width >= n:
                raise ConfigurationError(
                    f"C-PML width {width} too large for axis of {n} points"
                )
            h = grid.spacing[axis]
            smax = (
                pml_sigma_max(vmax, width * h, reflection, profile_order)
                if width > 0
                else 0.0
            )
            per_pos_b: dict[bool, np.ndarray] = {}
            per_pos_a: dict[bool, np.ndarray] = {}
            for half in (False, True):
                sigma = damping_profile(
                    n, width, smax, h, order=profile_order, half_shift=half
                )
                # alpha ramps from alpha_max at the interior edge to 0 at the
                # outer edge (Komatitsch-Martin), proportional to 1 - depth/L
                if width > 0 and smax > 0:
                    depth_frac = np.where(smax > 0, (sigma / smax) ** (1.0 / profile_order), 0.0)
                else:
                    depth_frac = np.zeros(n)
                alpha = alpha_max * (1.0 - depth_frac)
                alpha = np.where(sigma > 0, alpha, 0.0)
                b = np.exp(-(sigma + alpha) * dt)
                denom = sigma + alpha
                with np.errstate(divide="ignore", invalid="ignore"):
                    a_arr = np.where(denom > 0, sigma / np.maximum(denom, 1e-300) * (b - 1.0), 0.0)
                per_pos_b[half] = b.astype(DTYPE)
                per_pos_a[half] = a_arr.astype(DTYPE)
            self.b.append(per_pos_b)
            self.a.append(per_pos_a)
        #: per axis and stagger: (grid slab, b, a) for each of the (at
        #: most two) slabs where the profile is not the identity
        self._slabs = [
            {half: self._active_slabs(axis, half) for half in (False, True)}
            for axis in range(grid.ndim)
        ]
        #: name -> one contiguous psi array per slab of its (axis, half)
        self._psi: dict[str, tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    def is_absorbing(self) -> bool:
        return self.width > 0

    def memory_names(self) -> tuple[str, ...]:
        """Names of the memory variables allocated so far."""
        return tuple(self._psi.keys())

    def memory_bytes(self) -> int:
        """Bytes held by all psi fields (their absorbing slabs only)."""
        return sum(p.nbytes for parts in self._psi.values() for p in parts)

    def reset(self) -> None:
        """Zero all memory variables (new simulation, same coefficients)."""
        for parts in self._psi.values():
            for p in parts:
                p.fill(0.0)

    def capture(self) -> dict[str, tuple[np.ndarray, ...]]:
        """Deep-copy every memory variable (one array per slab) — the
        C-PML half of a checkpoint. The psi fields are real recursion
        state: restoring a wavefield without them replays different
        absorption."""
        return {
            name: tuple(p.copy() for p in parts)
            for name, parts in self._psi.items()
        }

    def restore(self, snapshot: dict[str, tuple[np.ndarray, ...]]) -> None:
        """Restore :meth:`capture`'s state exactly. Memory variables are
        lazily allocated, so any psi born *after* the capture is deleted —
        keeping it would seed the replay with future state."""
        for name in [n for n in self._psi if n not in snapshot]:
            del self._psi[name]
        for name, parts in snapshot.items():
            live = self._psi.get(name)
            if live is None:
                self._psi[name] = tuple(p.copy() for p in parts)
            else:
                for dst, p in zip(live, parts):
                    dst[...] = p

    def _active_slabs(self, axis: int, half: bool) -> list[tuple]:
        """The low and high slabs along ``axis`` that hold every point
        where the profile is not the identity, read off the coefficients
        rather than ``width``."""
        b, a = self.b[axis][half], self.a[axis][half]
        n = len(b)
        active = np.flatnonzero((b != 1.0) | (a != 0.0))
        lo_end = int(active[active < n // 2].max(initial=-1)) + 1
        hi_start = int(active[active >= n // 2].min(initial=n))
        lead = (slice(None),) * axis
        shape_ones = [1] * self.grid.ndim
        slabs = []
        for start, stop in ((0, lo_end), (hi_start, n)):
            if stop > start:
                shape_ones[axis] = stop - start
                slabs.append((
                    lead + (slice(start, stop),),
                    b[start:stop].reshape(shape_ones),
                    a[start:stop].reshape(shape_ones),
                ))
        return slabs

    def damp(
        self,
        name: str,
        axis: int,
        deriv: np.ndarray,
        half: bool,
    ) -> np.ndarray:
        """Apply the C-PML convolution to a spatial derivative.

        Parameters
        ----------
        name:
            Unique key of this derivative (e.g. ``"dpdx"``); the associated
            memory variable persists across time steps under this key.
        axis:
            Differentiation axis.
        deriv:
            The raw derivative field (modified **in place** to the damped
            value, also returned; only its absorbing slabs change).
        half:
            Whether the derivative lives at half-shifted positions along
            ``axis`` (selects the staggered coefficient profile).
        """
        if deriv.shape != self.grid.shape:
            raise ConfigurationError(
                f"derivative shape {deriv.shape} does not match grid {self.grid.shape}"
            )
        slabs = self._slabs[axis][half]
        if not slabs:
            return deriv  # no-op layer (width 0): nothing to damp
        psi = self._psi.get(name)
        if psi is None:
            psi = tuple(np.zeros(deriv[sl].shape, dtype=DTYPE) for sl, _, _ in slabs)
            self._psi[name] = psi
        for p, (sl, b, a) in zip(psi, slabs):
            # psi <- b*psi + a*deriv ; deriv <- deriv + psi  (kappa = 1)
            d = deriv[sl]
            p *= b
            p += a * d
            d += p
        return deriv
