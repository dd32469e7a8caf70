import math

import pytest

from repro.propagators import default_dt, max_stable_dt
from repro.stencil import DEFAULT_SPACE_ORDER
from repro.utils.errors import ConfigurationError


def courant(scheme, ndim, order=DEFAULT_SPACE_ORDER):
    """Dimensionless Courant limit: the stable dt at unit spacing and speed."""
    return max_stable_dt(1.0, (1.0,) * ndim, scheme, order)


class TestCourantNumber:
    def test_second_order_2nd_scheme_classic(self):
        """For 2nd-order coefficients the leapfrog limit is the textbook
        1/sqrt(d): symbol max is 4/h^2 per axis."""
        assert courant("second_order", 1, order=2) == pytest.approx(1.0)
        assert courant("second_order", 2, order=2) == pytest.approx(1 / math.sqrt(2))

    def test_staggered_2nd_scheme_classic(self):
        assert courant("staggered", 1, order=2) == pytest.approx(1.0)
        assert courant("staggered", 2, order=2) == pytest.approx(1 / math.sqrt(2))

    def test_higher_order_is_stricter(self):
        for scheme in ("second_order", "staggered"):
            assert courant(scheme, 2, 8) < courant(scheme, 2, 2)

    def test_more_dimensions_stricter(self):
        assert courant("staggered", 3) < courant("staggered", 2)

    def test_order8_values_plausible(self):
        assert 0.4 < courant("second_order", 2, 8) < 0.7
        assert 0.35 < courant("staggered", 3, 8) < 0.55

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            courant("magic", 2)


class TestMaxStableDt:
    def test_isotropic_spacing_matches_courant(self):
        h, v = 10.0, 2500.0
        dt = max_stable_dt(v, (h, h), "second_order")
        assert dt == pytest.approx(courant("second_order", 2) * h / v)

    def test_anisotropic_spacing_dominated_by_fine_axis(self):
        dt_fine = max_stable_dt(2000.0, (5.0, 5.0), "staggered")
        dt_mixed = max_stable_dt(2000.0, (5.0, 50.0), "staggered")
        dt_coarse = max_stable_dt(2000.0, (50.0, 50.0), "staggered")
        assert dt_fine < dt_mixed < dt_coarse

    def test_scales_inverse_velocity(self):
        a = max_stable_dt(1000.0, (10.0, 10.0), "staggered")
        b = max_stable_dt(2000.0, (10.0, 10.0), "staggered")
        assert a == pytest.approx(2 * b)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            max_stable_dt(-1.0, (10.0,), "staggered")
        with pytest.raises(ConfigurationError):
            max_stable_dt(1000.0, (0.0,), "staggered")


class TestDefaultDt:
    def test_below_limit(self):
        lim = max_stable_dt(2000.0, (10.0, 10.0), "staggered")
        assert default_dt(2000.0, (10.0, 10.0), "staggered") < lim

    def test_safety_validated(self):
        with pytest.raises(ConfigurationError):
            default_dt(2000.0, (10.0,), "staggered", safety=1.5)

