import pytest

from repro.grid.staggered import FULL, HALF, StaggerOffset


class TestStaggerOffset:
    def test_centered(self):
        s = StaggerOffset.centered(3)
        assert s.offsets == (FULL, FULL, FULL)
        assert not any(s.is_half(i) for i in range(3))

    def test_half_along(self):
        s = StaggerOffset.half_along(3, 1)
        assert s.is_half(1)
        assert not s.is_half(0)
        assert not s.is_half(2)

    def test_half_along_multiple(self):
        s = StaggerOffset.half_along(2, 0, 1)
        assert s.is_half(0) and s.is_half(1)

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            StaggerOffset((0, 2))

    def test_ndim(self):
        assert StaggerOffset.centered(2).ndim == 2


class TestDerivativeFlavour:
    def test_forward_full_to_half(self):
        full = StaggerOffset.centered(2)
        half = StaggerOffset.half_along(2, 0)
        assert full.derivative_flavour(0, half) == "forward"

    def test_backward_half_to_full(self):
        full = StaggerOffset.centered(2)
        half = StaggerOffset.half_along(2, 0)
        assert half.derivative_flavour(0, full) == "backward"

    def test_same_stagger_rejected(self):
        full = StaggerOffset.centered(2)
        with pytest.raises(ValueError):
            full.derivative_flavour(0, full)

    def test_virieux_2d_consistency(self):
        """The P-SV staggering used by the elastic propagator: every
        derivative in the update equations connects compatible staggers."""
        sxx = StaggerOffset.centered(2)
        vz = StaggerOffset.half_along(2, 0)
        vx = StaggerOffset.half_along(2, 1)
        sxz = StaggerOffset.half_along(2, 0, 1)
        # vx update: d(sxx)/dx forward; d(sxz)/dz backward
        assert sxx.derivative_flavour(1, vx) == "forward"
        assert sxz.derivative_flavour(0, vx) == "backward"
        # sxz update: d(vx)/dz forward, d(vz)/dx forward
        assert vx.derivative_flavour(0, sxz) == "forward"
        assert vz.derivative_flavour(1, sxz) == "forward"

