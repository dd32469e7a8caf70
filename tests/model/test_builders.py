import numpy as np
import pytest

from repro.model import constant_model, fault_model, layered_model
from repro.utils.errors import ConfigurationError


class TestConstantModel:
    def test_homogeneous(self):
        m = constant_model((20, 20), vp=2500.0)
        assert m.vp_min == m.vp_max == 2500.0

    def test_density_via_gardner(self):
        m = constant_model((10, 10), vp=2000.0)
        expected = 310.0 * 2000.0**0.25
        np.testing.assert_allclose(m.rho, expected, rtol=1e-5)

    def test_no_density(self):
        assert constant_model((10, 10), with_density=False).rho is None

    def test_vs_ratio(self):
        m = constant_model((10, 10), vp=2000.0, vs_ratio=0.5)
        np.testing.assert_allclose(m.vs, 1000.0, rtol=1e-6)

    def test_bad_vs_ratio(self):
        with pytest.raises(ConfigurationError):
            constant_model((10, 10), vs_ratio=1.5)

    def test_3d(self):
        assert constant_model((8, 9, 10)).ndim == 3


class TestLayeredModel:
    def test_two_layers(self):
        m = layered_model(
            (100, 50), spacing=10.0, interfaces=[500.0], velocities=[1500.0, 3000.0]
        )
        assert float(m.vp[0, 0]) == 1500.0
        assert float(m.vp[-1, 0]) == 3000.0
        # interface at depth 500 m = index 50
        assert float(m.vp[49, 0]) == 1500.0
        assert float(m.vp[50, 0]) == 3000.0

    def test_lateral_invariance(self):
        m = layered_model((40, 30), interfaces=[150.0], velocities=[1500.0, 2500.0])
        assert np.all(m.vp == m.vp[:, :1])

    def test_three_layers(self):
        m = layered_model(
            (100, 20),
            spacing=10.0,
            interfaces=[300.0, 600.0],
            velocities=[1500.0, 2200.0, 3500.0],
        )
        profile = m.vp[:, 0]
        assert len(np.unique(profile)) == 3

    def test_velocity_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            layered_model((50, 50), interfaces=[100.0], velocities=[1500.0])

    def test_unsorted_interfaces(self):
        with pytest.raises(ConfigurationError):
            layered_model(
                (50, 50), interfaces=[400.0, 100.0], velocities=[1, 2, 3]
            )

    def test_3d(self):
        m = layered_model((20, 10, 10), interfaces=[100.0], velocities=[1500.0, 2500.0])
        assert m.ndim == 3
        assert np.all(m.vp[0] == np.float32(1500.0))


class TestFaultModel:
    def test_throw_offsets_interface(self):
        m = fault_model(
            (120, 80), spacing=10.0, interface_depth=400.0, throw=200.0,
            velocities=(1800.0, 2800.0),
        )
        left = m.vp[:, 10]
        right = m.vp[:, 70]
        i_left = int(np.argmax(left > 2000.0))
        i_right = int(np.argmax(right > 2000.0))
        assert (i_right - i_left) == pytest.approx(20, abs=1)

    def test_3d(self):
        m = fault_model((30, 30, 10), interface_depth=100.0, throw=50.0)
        assert m.ndim == 3

