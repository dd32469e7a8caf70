"""Synthetic earth-model builders.

The paper's models come from TOTAL's production velocity workflows, which we
cannot have; these builders generate synthetic media exercising the same code
paths (sharp reflectors for RTM imaging, a fault for lateral velocity
contrasts). Each returns an
:class:`~repro.model.earth_model.EarthModel` with vp, rho (Gardner relation)
and optionally vs (constant vp/vs ratio).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.grid.grid import Grid
from repro.model.earth_model import EarthModel
from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


def _gardner_density(vp: np.ndarray) -> np.ndarray:
    """Gardner's relation ``rho = 310 * vp^0.25`` (SI units), the standard
    velocity-to-density proxy when no density log exists."""
    return (310.0 * np.asarray(vp, dtype=np.float64) ** 0.25).astype(DTYPE)


def _with_fields(
    grid: Grid,
    vp: np.ndarray,
    with_density: bool,
    vs_ratio: float | None,
    name: str,
) -> EarthModel:
    vp = vp.astype(DTYPE)
    rho = _gardner_density(vp) if with_density else None
    vs = None
    if vs_ratio is not None:
        if not 0.0 < vs_ratio < 1.0:
            raise ConfigurationError("vs_ratio must be in (0, 1)")
        vs = (vp * np.float32(vs_ratio)).astype(DTYPE)
    return EarthModel(grid, vp, rho=rho, vs=vs, name=name)


def constant_model(
    shape: Sequence[int],
    spacing: float | Sequence[float] = 10.0,
    vp: float = 2000.0,
    with_density: bool = True,
    vs_ratio: float | None = None,
) -> EarthModel:
    """Homogeneous medium — the analytic-solution test case."""
    grid = Grid(shape, spacing)
    return _with_fields(grid, grid.full(vp), with_density, vs_ratio, "constant")


def layered_model(
    shape: Sequence[int],
    spacing: float | Sequence[float] = 10.0,
    interfaces: Sequence[float] = (1000.0,),
    velocities: Sequence[float] = (1500.0, 2500.0),
    with_density: bool = True,
    vs_ratio: float | None = None,
) -> EarthModel:
    """Horizontally layered medium.

    ``interfaces`` are the depths (metres) of the layer boundaries;
    ``velocities`` has one more entry than ``interfaces`` (top layer first).
    This is the canonical RTM validation model: the migrated image should
    light up exactly at the interface depths.
    """
    if len(velocities) != len(interfaces) + 1:
        raise ConfigurationError(
            f"need len(velocities) == len(interfaces)+1, got "
            f"{len(velocities)} vs {len(interfaces)}"
        )
    if sorted(interfaces) != list(interfaces):
        raise ConfigurationError("interfaces must be sorted by depth")
    grid = Grid(shape, spacing)
    z = grid.axis(0)
    vp_profile = np.full(z.shape, velocities[0], dtype=np.float64)
    for depth, v in zip(interfaces, velocities[1:]):
        vp_profile[z >= depth] = v
    shape_ones = (len(z),) + (1,) * (grid.ndim - 1)
    vp = np.broadcast_to(vp_profile.reshape(shape_ones), grid.shape).copy()
    return _with_fields(grid, vp, with_density, vs_ratio, "layered")


def fault_model(
    shape: Sequence[int],
    spacing: float | Sequence[float] = 10.0,
    interface_depth: float = 1000.0,
    throw: float = 300.0,
    velocities: tuple[float, float] = (1800.0, 2800.0),
    with_density: bool = True,
    vs_ratio: float | None = None,
) -> EarthModel:
    """Two-layer medium with a vertical fault offsetting the interface by
    ``throw`` metres across the middle of the x axis — produces a lateral
    velocity discontinuity plus a diffracting edge, the structure Figure 5 of
    the paper images."""
    grid = Grid(shape, spacing)
    z = grid.axis(0)
    x = grid.axis(1)
    x_mid = x[len(x) // 2]
    depth_left = interface_depth
    depth_right = interface_depth + throw
    depth_of_x = np.where(x < x_mid, depth_left, depth_right)
    if grid.ndim == 2:
        mask = z[:, None] >= depth_of_x[None, :]
    else:
        mask = np.broadcast_to(
            (z[:, None] >= depth_of_x[None, :])[:, :, None], grid.shape
        )
    vp = np.where(mask, velocities[1], velocities[0]).astype(np.float64)
    return _with_fields(grid, vp, with_density, vs_ratio, "fault")


def with_thomsen(
    model: EarthModel, epsilon: float | np.ndarray, delta: float | np.ndarray
) -> EarthModel:
    """Return a copy of ``model`` carrying Thomsen anisotropy parameters
    (constant values are broadcast over the grid) — input for the VTI
    extension propagator."""
    shape = model.grid.shape
    eps = np.full(shape, epsilon, dtype=DTYPE) if np.isscalar(epsilon) else np.ascontiguousarray(epsilon, dtype=DTYPE)
    dlt = np.full(shape, delta, dtype=DTYPE) if np.isscalar(delta) else np.ascontiguousarray(delta, dtype=DTYPE)
    return EarthModel(
        model.grid,
        model.vp.copy(),
        rho=None if model.rho is None else model.rho.copy(),
        vs=None if model.vs is None else model.vs.copy(),
        epsilon=eps,
        delta=dlt,
        name=model.name + "+vti",
    )
