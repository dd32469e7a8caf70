"""Shared utilities: units, timers, errors, array helpers."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "units": ("KiB", "MiB", "GiB", "KB", "MB", "GB", "GFLOP", "bytes_to_human", "seconds_to_human"),
    "errors": (
        "ReproError", "ConfigurationError", "StabilityError", "DeviceError",
        "DeviceOutOfMemoryError", "PresentTableError", "CommunicationError",
    ),
    "timer": ("WallTimer", "SimClock"),
    "arrays": ("as_f32", "interior_slices", "shifted_slices", "pad_tuple"),
})
