import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.source import integrated_ricker, ricker
from repro.utils.errors import ConfigurationError


class TestRicker:
    def test_shape_dtype(self):
        w = ricker(100, 0.001, 25.0)
        assert w.shape == (100,)
        assert w.dtype == np.float32

    def test_peak_at_delay(self):
        dt, f = 0.001, 20.0
        w = ricker(400, dt, f)
        t0 = 1.5 / f
        assert abs(np.argmax(w) * dt - t0) <= dt

    def test_peak_amplitude_is_one(self):
        w = ricker(400, 0.001, 20.0)
        assert float(w.max()) == pytest.approx(1.0, abs=1e-6)

    def test_starts_near_zero(self):
        w = ricker(400, 0.001, 20.0)
        assert abs(float(w[0])) < 1e-3

    def test_near_zero_mean(self):
        """The Ricker wavelet integrates to ~0 (band-limited, no DC)."""
        w = ricker(2000, 0.0005, 15.0)
        assert abs(float(np.sum(w))) < 1e-2 * np.sum(np.abs(w))

    def test_custom_delay(self):
        dt = 0.001
        w = ricker(500, dt, 20.0, delay=0.3)
        assert abs(np.argmax(w) * dt - 0.3) <= dt

    def test_spectrum_peaks_near_peak_freq(self):
        dt, f = 0.001, 18.0
        w = ricker(1024, dt, f).astype(np.float64)
        spec = np.abs(np.fft.rfft(w))
        freqs = np.fft.rfftfreq(len(w), dt)
        f_meas = freqs[np.argmax(spec)]
        assert abs(f_meas - f) / f < 0.15

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            ricker(0, 0.001, 10.0)
        with pytest.raises(ConfigurationError):
            ricker(10, -0.001, 10.0)
        with pytest.raises(ConfigurationError):
            ricker(10, 0.001, 0.0)


class TestIntegratedRicker:
    def test_is_antiderivative(self):
        """Differencing the integral recovers the wavelet."""
        dt = 0.0005
        w = ricker(800, dt, 15.0).astype(np.float64)
        iw = integrated_ricker(800, dt, 15.0).astype(np.float64)
        recovered = np.diff(iw) / dt
        mid = 0.5 * (w[1:] + w[:-1])
        assert np.max(np.abs(recovered - mid)) < 1e-3 * np.max(np.abs(w))

    def test_starts_at_zero(self):
        assert integrated_ricker(100, 0.001, 20.0)[0] == 0.0

    def test_returns_to_near_zero(self):
        """Integral of a zero-mean wavelet ends near zero."""
        iw = integrated_ricker(3000, 0.0005, 15.0)
        assert abs(float(iw[-1])) < 0.05 * float(np.max(np.abs(iw)))

    @given(st.floats(min_value=5.0, max_value=50.0))
    def test_finite_for_any_frequency(self, f):
        assert np.all(np.isfinite(integrated_ricker(256, 0.001, f)))
