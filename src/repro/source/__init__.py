"""Seismic sources, receivers and acquisition geometry."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "wavelets": ("ricker", "integrated_ricker"),
    "injection": ("PointSource", "inject", "extract"),
    "acquisition": ("Receivers", "Shot", "line_receivers", "grid_receivers"),
})
