"""Regular grids, staggered-grid conventions and domain decomposition."""

from repro.grid.grid import Grid
from repro.grid.staggered import StaggerOffset, FULL, HALF
from repro.grid.decomposition import (
    CartesianDecomposition,
    Subdomain,
    HaloSpec,
    best_dims,
)

__all__ = [
    "Grid",
    "StaggerOffset",
    "FULL",
    "HALF",
    "CartesianDecomposition",
    "Subdomain",
    "HaloSpec",
    "best_dims",
]
