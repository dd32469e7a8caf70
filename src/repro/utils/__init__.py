"""Shared utilities: units, timers, errors, array helpers."""

from repro.utils.units import (
    KiB,
    MiB,
    GiB,
    KB,
    MB,
    GB,
    GFLOP,
    bytes_to_human,
    seconds_to_human,
)
from repro.utils.errors import (
    ReproError,
    ConfigurationError,
    StabilityError,
    DeviceError,
    DeviceOutOfMemoryError,
    PresentTableError,
    CommunicationError,
)
from repro.utils.timer import WallTimer, SimClock
from repro.utils.arrays import (
    as_f32,
    interior_slices,
    shifted_slices,
    pad_tuple,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "GFLOP",
    "bytes_to_human",
    "seconds_to_human",
    "ReproError",
    "ConfigurationError",
    "StabilityError",
    "DeviceError",
    "DeviceOutOfMemoryError",
    "PresentTableError",
    "CommunicationError",
    "WallTimer",
    "SimClock",
    "as_f32",
    "interior_slices",
    "shifted_slices",
    "pad_tuple",
]
