"""Regular grids, staggered-grid conventions and domain decomposition."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "grid": ("Grid",),
    "staggered": ("StaggerOffset", "FULL", "HALF"),
    "decomposition": ("CartesianDecomposition", "Subdomain", "HaloSpec", "best_dims"),
})
