"""Absorber behaviour: standard PML and C-PML.

The load-bearing checks run a real propagation against each absorber and
measure residual energy after the wavefront crosses the layer.
"""

import numpy as np
import pytest

from repro.boundary import CPML, StandardPML
from repro.grid import Grid
from repro.model import constant_model
from repro.propagators import AcousticPropagator, IsotropicPropagator
from repro.source import PointSource, integrated_ricker, ricker
from repro.utils.errors import ConfigurationError


class TestStandardPML:
    def test_coefficients_reduce_in_interior(self):
        g = Grid((64, 64))
        pml = StandardPML(g, 10, 2000.0, 1e-3)
        inner = pml.interior_slices()
        np.testing.assert_allclose(pml.coeff_curr[inner], 2.0)
        np.testing.assert_allclose(pml.coeff_prev[inner], 1.0)
        np.testing.assert_allclose(pml.coeff_rhs[inner], 1.0)
        np.testing.assert_allclose(pml.sigma2[inner], 0.0)

    def test_sigma_positive_in_layer(self):
        g = Grid((64, 64))
        pml = StandardPML(g, 10, 2000.0, 1e-3)
        assert float(pml.sigma[0, 32]) > 0.0

    def test_corner_sums_axes(self):
        g = Grid((64, 64))
        pml = StandardPML(g, 10, 2000.0, 1e-3)
        assert float(pml.sigma[0, 0]) == pytest.approx(
            float(pml.sigma[0, 32]) + float(pml.sigma[32, 0]), rel=1e-5
        )

    def test_zero_width_not_absorbing(self):
        pml = StandardPML(Grid((32, 32)), 0, 2000.0, 1e-3)
        assert not pml.is_absorbing()

    def test_invalid_dt(self):
        with pytest.raises(ConfigurationError):
            StandardPML(Grid((32, 32)), 4, 2000.0, -1.0)


class TestCPML:
    def test_four_1d_arrays_per_dimension(self):
        """The paper: 'four different one-dimensional arrays with the
        cpml-coefficients for each dimension'."""
        g = Grid((48, 48))
        c = CPML(g, 10, 2000.0, 1e-3)
        for ax in range(2):
            assert set(c.b[ax].keys()) == {False, True}
            assert set(c.a[ax].keys()) == {False, True}
            assert c.b[ax][False].shape == (48,)

    def test_identity_in_interior(self):
        g = Grid((48, 48))
        c = CPML(g, 10, 2000.0, 1e-3)
        assert np.all(c.a[0][False][10:-10] == 0.0)

    def test_b_in_unit_interval(self):
        c = CPML(Grid((48, 48)), 10, 2000.0, 1e-3)
        for ax in range(2):
            for half in (False, True):
                b = c.b[ax][half]
                assert np.all(b > 0.0) and np.all(b <= 1.0)

    def test_a_negative_in_layer(self):
        """a = sigma/(sigma+alpha) * (b-1) < 0 where sigma > 0."""
        c = CPML(Grid((48, 48)), 10, 2000.0, 1e-3)
        assert float(c.a[0][False][0]) < 0.0

    def test_damp_noop_when_disabled(self):
        g = Grid((48, 48))
        c = CPML(g, 0, 2000.0, 1e-3)
        d = np.ones(g.shape, dtype=np.float32)
        out = c.damp("t", 0, d, half=False)
        np.testing.assert_array_equal(out, 1.0)

    def test_memory_variables_persist(self):
        g = Grid((48, 48))
        c = CPML(g, 10, 2000.0, 1e-3)
        d = np.ones(g.shape, dtype=np.float32)
        c.damp("dq0", 0, d.copy(), half=False)
        assert "dq0" in c.memory_names()
        # psi covers the two 10-cell absorbing slabs along axis 0 only
        assert c.memory_bytes() == 2 * 10 * 48 * 4

    def test_reset_zeroes_memory(self):
        g = Grid((48, 48))
        c = CPML(g, 10, 2000.0, 1e-3)
        c.damp("x", 0, np.ones(g.shape, dtype=np.float32), half=False)
        assert any(np.any(p != 0) for parts in c.capture().values() for p in parts)
        c.reset()
        assert all(np.all(p == 0) for parts in c.capture().values() for p in parts)

    def test_damp_reduces_derivative_in_layer(self):
        """Steady unit derivative: the convolution pushes the damped value
        below the raw value inside the layer (absorbing behaviour)."""
        g = Grid((48, 48))
        c = CPML(g, 10, 2500.0, 5e-4)
        for _ in range(50):
            d = np.ones(g.shape, dtype=np.float32)
            out = c.damp("steady", 0, d, half=False)
        assert float(out[0, 24]) < 0.5
        assert float(out[24, 24]) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        c = CPML(Grid((48, 48)), 10, 2000.0, 1e-3)
        with pytest.raises(ConfigurationError):
            c.damp("x", 0, np.zeros((8, 8), dtype=np.float32), half=False)


class TestAbsorptionQuality:
    """End-to-end: propagate a pulse into each absorber and compare the
    residual amplitude after the wave should have left the domain."""

    @staticmethod
    def _run_acoustic(width):
        m = constant_model((120, 120), spacing=10.0, vp=2000.0)
        p = AcousticPropagator(m, boundary_width=width)
        w = integrated_ricker(600, p.dt, 15.0)
        src = PointSource.at_center(m.grid, w)
        # peak amplitude while the wave is inside
        p.run(140, source=src)
        peak = float(np.abs(p.snapshot_field()).max())
        p.run(500)
        residual = float(np.abs(p.snapshot_field()).max())
        return residual / peak

    def test_cpml_absorbs_orders_of_magnitude(self):
        assert self._run_acoustic(16) < 3e-2

    def test_wider_layer_absorbs_more(self):
        assert self._run_acoustic(24) < self._run_acoustic(8)

    def test_no_layer_reflects(self):
        """Without absorption the energy stays (reflecting edges)."""
        assert self._run_acoustic(0) > 0.3

    def test_isotropic_pml_reduces_reflections(self):
        def run(width):
            m = constant_model((120, 120), spacing=10.0, vp=2000.0, with_density=False)
            p = IsotropicPropagator(m, boundary_width=width)
            w = ricker(600, p.dt, 15.0)
            src = PointSource.at_center(m.grid, w)
            p.run(140, source=src)
            peak = float(np.abs(p.snapshot_field()).max())
            p.run(500)
            return float(np.abs(p.snapshot_field()).max()) / peak

        assert run(20) < 0.5 * run(0)
