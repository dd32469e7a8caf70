"""Source time functions.

The Ricker wavelet (negative-normalised second derivative of a Gaussian) is
the standard source in seismic modeling; its peak frequency controls the
``snap_period`` of Algorithm 1 ("the snap_period value depends on the maximum
frequency used in the attached velocity model").
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import DTYPE
from repro.utils.errors import ConfigurationError


def _time_axis(nt: int, dt: float) -> np.ndarray:
    if nt < 1:
        raise ConfigurationError("nt must be >= 1")
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    return np.arange(nt, dtype=np.float64) * dt


def ricker(nt: int, dt: float, peak_freq: float, delay: float | None = None) -> np.ndarray:
    """Ricker wavelet sampled at ``nt`` steps of ``dt`` seconds.

    Parameters
    ----------
    peak_freq:
        Peak (dominant) frequency in Hz.
    delay:
        Time of the wavelet peak in seconds; defaults to ``1.5/peak_freq``
        so the wavelet starts (numerically) at zero.
    """
    if peak_freq <= 0:
        raise ConfigurationError("peak_freq must be positive")
    t = _time_axis(nt, dt)
    t0 = 1.5 / peak_freq if delay is None else float(delay)
    arg = (np.pi * peak_freq * (t - t0)) ** 2
    w = (1.0 - 2.0 * arg) * np.exp(-arg)
    return w.astype(DTYPE)


def integrated_ricker(nt: int, dt: float, peak_freq: float, delay: float | None = None) -> np.ndarray:
    """Running time-integral of the Ricker wavelet.

    Equation 2 of the paper injects :math:`\\partial_t^{-1} f(x_s, t)` into
    the pressure update of the variable-density acoustic system; this is that
    antiderivative, computed by cumulative trapezoid.
    """
    w = ricker(nt, dt, peak_freq, delay).astype(np.float64)
    out = np.concatenate(([0.0], np.cumsum((w[1:] + w[:-1]) * 0.5 * dt)))
    return out.astype(DTYPE)
