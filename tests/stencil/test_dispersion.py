import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stencil import (
    phase_velocity_ratio,
    points_per_wavelength_for_accuracy,
    second_derivative_symbol,
    staggered_first_derivative_symbol,
)
from repro.utils.errors import ConfigurationError


class TestSymbols:
    def test_second_derivative_long_wave_limit(self):
        """For kh -> 0 the symbol approaches -(kh)^2."""
        kh = np.array([0.01, 0.05])
        np.testing.assert_allclose(
            second_derivative_symbol(kh, 8), -(kh**2), rtol=1e-4
        )

    def test_staggered_long_wave_limit(self):
        kh = np.array([0.01, 0.05])
        np.testing.assert_allclose(
            staggered_first_derivative_symbol(kh, 8), kh, rtol=1e-4
        )

    def test_higher_order_tracks_exact_further(self):
        kh = np.array([math.pi / 2])  # 4 points per wavelength
        errs = [
            abs(float(second_derivative_symbol(kh, o)[0]) + float(kh[0]) ** 2)
            for o in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_symbol_negative_semidefinite(self):
        kh = np.linspace(0.01, math.pi, 50)
        assert np.all(second_derivative_symbol(kh, 8) <= 0)


class TestPhaseVelocity:
    def test_exact_in_long_wave_limit(self):
        for scheme in ("second_order", "staggered"):
            r = phase_velocity_ratio(np.array([0.01]), scheme, 8, courant=0.2)
            assert float(r[0]) == pytest.approx(1.0, abs=1e-4)

    def test_spatial_order_monotone_at_small_courant(self):
        """With the temporal error suppressed (tiny Courant number), higher
        spatial order means less dispersion."""
        kh = np.array([2 * math.pi / 5])  # 5 ppw
        errs = [
            abs(float(phase_velocity_ratio(kh, "second_order", o, courant=0.02)[0]) - 1)
            for o in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_temporal_error_dominates_wide_stencils_at_practical_courant(self):
        """At C = 0.4 the leapfrog time error is leading-order for order-8
        operators: shrinking dt (same h) reduces the total error."""
        kh = np.array([2 * math.pi / 6])
        e_fast = abs(float(phase_velocity_ratio(kh, "second_order", 8, courant=0.4)[0]) - 1)
        e_slow = abs(float(phase_velocity_ratio(kh, "second_order", 8, courant=0.1)[0]) - 1)
        assert e_slow < e_fast

    def test_staggered_less_dispersive_than_centered(self):
        """The staggered-grid accuracy advantage the paper cites: at equal
        order and sampling, the staggered symbol is closer to exact."""
        kh = np.array([2 * math.pi / 4])
        e_st = abs(float(phase_velocity_ratio(kh, "staggered", 8, courant=0.05)[0]) - 1)
        e_ce = abs(float(phase_velocity_ratio(kh, "second_order", 8, courant=0.05)[0]) - 1)
        assert e_st < e_ce

    def test_unstable_courant_rejected(self):
        with pytest.raises(ConfigurationError):
            phase_velocity_ratio(np.array([math.pi]), "second_order", 8, courant=0.9)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            phase_velocity_ratio(np.array([4.0]), "second_order", 8)
        with pytest.raises(ConfigurationError):
            phase_velocity_ratio(np.array([1.0]), "magic", 8)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=2.5),
           st.sampled_from([2, 4, 8]))
    def test_ratio_near_one_and_positive(self, kh, order):
        r = float(phase_velocity_ratio(np.array([kh]), "second_order", order,
                                       courant=0.3)[0])
        assert 0.5 < r < 1.5


class TestDesignHelpers:
    def test_points_per_wavelength_decreases_with_order_small_courant(self):
        ppw = {
            o: points_per_wavelength_for_accuracy(1e-3, "second_order", o, courant=0.02)
            for o in (2, 4, 8)
        }
        assert ppw[2] > ppw[4] > ppw[8]
        assert ppw[8] < 6.0  # the wide operators' selling point
