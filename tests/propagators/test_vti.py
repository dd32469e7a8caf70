"""VTI pseudo-acoustic extension (the paper's deferred anisotropic case)."""

import numpy as np
import pytest

from repro.model import constant_model, with_thomsen
from repro.propagators import IsotropicPropagator, VTIPropagator, make_propagator
from repro.source import PointSource, ricker
from repro.utils.errors import ConfigurationError

VP, H, F = 2000.0, 10.0, 12.0


def _vti_model(eps, delta, shape=(161, 161)):
    return with_thomsen(
        constant_model(shape, spacing=H, vp=VP, with_density=False), eps, delta
    )


class TestConstruction:
    def test_factory_dispatch(self):
        p = make_propagator("vti", _vti_model(0.1, 0.05), boundary_width=16)
        assert isinstance(p, VTIPropagator)

    def test_fields(self):
        p = VTIPropagator(_vti_model(0.1, 0.05), boundary_width=16)
        assert set(p.fields) == {"p", "p_prev", "q", "q_prev"}

    def test_epsilon_below_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            VTIPropagator(_vti_model(0.0, 0.2), boundary_width=16)

    def test_missing_thomsen_defaults_isotropic(self):
        m = constant_model((64, 64), with_density=False)
        p = VTIPropagator(m, boundary_width=16)
        assert float(np.abs(p.epsilon).max()) == 0.0

    def test_thomsen_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            _vti_model(2.0, 0.0)

    def test_cfl_includes_anisotropic_stretch(self):
        iso = IsotropicPropagator(
            constant_model((64, 64), with_density=False), boundary_width=16
        )
        vti = VTIPropagator(_vti_model(0.3, 0.1, (64, 64)), boundary_width=16)
        assert vti.dt < iso.dt  # faster horizontal speed -> stricter dt


class TestPhysics:
    def test_isotropic_limit(self):
        """epsilon = delta = 0 must reproduce the isotropic propagator."""
        m_iso = constant_model((121, 121), spacing=H, vp=VP, with_density=False)
        vti = VTIPropagator(_vti_model(0.0, 0.0, (121, 121)), boundary_width=16)
        iso = IsotropicPropagator(m_iso, dt=vti.dt, boundary_width=16)
        w = ricker(100, vti.dt, F)
        for p in (vti, iso):
            p.run(90, source=PointSource.at_center(p.grid, w))
        a, b = vti.snapshot_field(), iso.snapshot_field()
        peak = float(np.abs(b).max())
        np.testing.assert_allclose(a, b, atol=2e-5 * peak)

    def test_elliptical_stretch(self):
        """epsilon = delta = 0.2: horizontal front radius / vertical radius
        ~ sqrt(1 + 2 * 0.2)."""
        p = VTIPropagator(_vti_model(0.2, 0.2), boundary_width=16)
        w = ricker(130, p.dt, F)
        p.run(120, source=PointSource.at_center(p.grid, w))
        u = p.snapshot_field()
        r_h = int(np.argmax(np.abs(u[80, 80:])))
        r_v = int(np.argmax(np.abs(u[80:, 80])))
        assert r_h / r_v == pytest.approx(np.sqrt(1.4), abs=0.12)

    def test_anelliptic_faster_horizontal(self):
        """epsilon > delta still stretches horizontally vs vertically."""
        p = VTIPropagator(_vti_model(0.25, 0.1), boundary_width=16)
        w = ricker(130, p.dt, F)
        p.run(120, source=PointSource.at_center(p.grid, w))
        u = p.snapshot_field()
        r_h = int(np.argmax(np.abs(u[80, 80:])))
        r_v = int(np.argmax(np.abs(u[80:, 80])))
        assert r_h > r_v

    def test_vertical_speed_unchanged(self):
        """Along the symmetry axis the P speed stays vp, whatever epsilon."""
        # the anisotropic run has the stricter CFL bound; share its dt
        p1 = VTIPropagator(_vti_model(0.3, 0.1), boundary_width=16)
        p0 = VTIPropagator(_vti_model(0.0, 0.0), dt=p1.dt, boundary_width=16)
        w = ricker(130, p0.dt, F)
        nsteps = 120
        for p in (p0, p1):
            p.run(nsteps, source=PointSource.at_center(p.grid, w))
        r0 = int(np.argmax(np.abs(p0.snapshot_field()[80:, 80])))
        r1 = int(np.argmax(np.abs(p1.snapshot_field()[80:, 80])))
        assert abs(r0 - r1) <= 2

    def test_absorbing_boundary(self):
        p = VTIPropagator(_vti_model(0.2, 0.1, (121, 121)), boundary_width=16)
        w = ricker(700, p.dt, F)
        p.run(100, source=PointSource.at_center(p.grid, w))
        mid = float(np.abs(p.snapshot_field()).max())
        p.run(700)
        assert float(np.abs(p.snapshot_field()).max()) < 0.25 * mid

    def test_3d(self):
        m = _vti_model(0.15, 0.05, (49, 49, 49))
        p = VTIPropagator(m, boundary_width=10)
        w = ricker(40, p.dt, F)
        p.run(35, source=PointSource.at_center(m.grid, w))
        assert np.all(np.isfinite(p.snapshot_field()))
        assert float(np.abs(p.snapshot_field()).max()) > 0


class TestWorkloads:
    def test_single_fused_kernel(self):
        p = VTIPropagator(_vti_model(0.1, 0.05, (64, 64)), boundary_width=16)
        (w,) = p.kernel_workloads()
        assert w.name == "vti_update_pq"
        assert w.gather_axes == 2

    def test_estimate_path_works(self):
        from repro.core import estimate_modeling

        t = estimate_modeling("vti", (256, 256, 256), nt=5, snap_period=5)
        assert t.success and t.total > 0


class TestModelSupport:
    def test_with_thomsen_copies(self):
        base = constant_model((32, 32))
        m = with_thomsen(base, 0.1, 0.05)
        assert m.is_anisotropic()
        assert not base.is_anisotropic()
        assert float(m.epsilon[0, 0]) == pytest.approx(0.1)

    def test_max_wave_speed_stretched(self):
        m = with_thomsen(constant_model((32, 32), vp=2000.0), 0.5, 0.1)
        assert m.max_wave_speed() == pytest.approx(2000.0 * np.sqrt(2.0), rel=1e-6)
