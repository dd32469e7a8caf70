"""RTM imaging condition and image post-processing.

The paper uses "the well established imaging condition I(z,x,y) of cross
correlation between the forward propagated source wave-field S and the
backward propagated receiver wave-field R summed over the sources":

.. math:: I(x) = \\sum_s \\sum_t S(x, t) \\, R(x, t)

applied at the snapshot times of the forward phase.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError


def cross_correlation_update(
    image: np.ndarray, source_field: np.ndarray, receiver_field: np.ndarray
) -> None:
    """Accumulate one time level of the cross-correlation imaging condition
    into ``image`` (in place, float32)."""
    if image.shape != source_field.shape or image.shape != receiver_field.shape:
        raise ConfigurationError(
            f"imaging shapes disagree: image {image.shape}, "
            f"S {source_field.shape}, R {receiver_field.shape}"
        )
    image += source_field * receiver_field


def illumination_update(illum: np.ndarray, source_field: np.ndarray) -> None:
    """Accumulate source illumination ``sum_t S^2`` for normalisation."""
    illum += source_field * source_field


def normalize_image(
    image: np.ndarray, illumination: np.ndarray | None = None, eps: float = 1e-3
) -> np.ndarray:
    """Source-normalised image ``I / (illum + eps*max)``; with no
    illumination, scales to unit peak amplitude.

    ``eps`` stabilises the division where illumination vanishes (deep /
    poorly lit zones would otherwise amplify correlation noise into fake
    reflectors)."""
    out = np.asarray(image, dtype=np.float64)
    if illumination is not None:
        if illumination.shape != image.shape:
            raise ConfigurationError("illumination shape mismatch")
        denom = np.asarray(illumination, dtype=np.float64)
        floor = eps * max(float(denom.max()), 1e-300)
        out = out / (denom + floor)
    peak = float(np.max(np.abs(out)))
    if peak > 0:
        out = out / peak
    return out.astype(np.float32)


def mute_shallow(image: np.ndarray, depth_cells: int) -> np.ndarray:
    """Zero the top ``depth_cells`` of the image — removes the strong
    direct-arrival correlation smear around source/receiver depth (standard
    RTM cosmetic mute)."""
    if depth_cells < 0:
        raise ConfigurationError("depth_cells must be >= 0")
    out = image.copy()
    out[:depth_cells] = 0.0
    return out
