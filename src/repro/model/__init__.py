"""Earth (velocity/density) models and synthetic model builders."""

from repro.model.earth_model import EarthModel
from repro.model.builders import (
    constant_model,
    layered_model,
    fault_model,
    with_thomsen,
)

__all__ = [
    "EarthModel",
    "constant_model",
    "layered_model",
    "fault_model",
    "with_thomsen",
]
