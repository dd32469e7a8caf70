"""Seismic sources, receivers and acquisition geometry."""

from repro.source.wavelets import (
    ricker,
    integrated_ricker,
)
from repro.source.injection import PointSource, inject, extract
from repro.source.acquisition import Receivers, Shot, line_receivers, grid_receivers

__all__ = [
    "ricker",
    "integrated_ricker",
    "PointSource",
    "inject",
    "extract",
    "Receivers",
    "Shot",
    "line_receivers",
    "grid_receivers",
]
