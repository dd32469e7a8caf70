"""Earth (velocity/density) models and synthetic model builders."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "earth_model": ("EarthModel",),
    "builders": ("constant_model", "layered_model", "fault_model", "with_thomsen"),
})
