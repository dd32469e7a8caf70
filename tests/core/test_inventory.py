import numpy as np
import pytest

from repro.core.inventory import (
    device_resident_bytes,
    field_inventory,
    primary_wavefield,
)
from repro.model import constant_model
from repro.propagators import make_propagator
from repro.utils.errors import ConfigurationError


class TestInventoryStructure:
    def test_isotropic_fields(self):
        inv = field_inventory("isotropic", (64, 64))
        assert "wf:u" in inv and "wf:u_prev" in inv
        assert "mat:vp2dt2" in inv
        assert sum(1 for k in inv if k.startswith("pml:")) == 4

    def test_acoustic_2d_vs_3d(self):
        inv2 = field_inventory("acoustic", (64, 64))
        inv3 = field_inventory("acoustic", (64, 64, 64))
        assert "wf:qy" not in inv2
        assert "wf:qy" in inv3

    def test_elastic_3d_field_count(self):
        inv = field_inventory("elastic", (64, 64, 64))
        assert sum(1 for k in inv if k.startswith("wf:")) == 9
        assert sum(1 for k in inv if k.startswith("mat:")) == 8
        assert sum(1 for k in inv if k.startswith("pml:")) == 22

    def test_unknown_physics(self):
        with pytest.raises(ConfigurationError):
            field_inventory("anisotropic", (64, 64))

    def test_pml_memory_is_slab_restricted(self):
        """Device psi footprint covers only the absorbing frame."""
        inv = field_inventory("acoustic", (256, 256), boundary_width=16)
        full = 256 * 256 * 4
        psi = inv["pml:psi_dqz"]
        assert 0 < psi < 0.3 * full


class TestWavefieldConsistency:
    """Inventory wavefield bytes must match what a real propagator holds."""

    @pytest.mark.parametrize("physics", ["isotropic", "acoustic", "elastic"])
    def test_matches_propagator(self, physics):
        m = constant_model((48, 48), vp=2000.0, vs_ratio=0.5)
        p = make_propagator(physics, m, boundary_width=8)
        inv = field_inventory(physics, (48, 48), boundary_width=8)
        wf_bytes = sum(v for k, v in inv.items() if k.startswith("wf:"))
        assert wf_bytes == p.wavefield_bytes()

    def test_primary_wavefield_names(self):
        assert primary_wavefield("isotropic") == "wf:u"
        assert primary_wavefield("acoustic") == "wf:p"
        assert primary_wavefield("elastic") == "wf:szz"


class TestCapacityGates:
    def test_elastic_3d_oom_gate(self):
        """The central memory fact of the paper's x-cells."""
        from repro.gpusim.specs import K40, M2090

        need = device_resident_bytes("elastic", (448, 448, 448))
        assert need > M2090.memory_bytes * 0.9
        assert need < K40.memory_bytes * 0.97

    def test_acoustic_3d_fits_fermi(self):
        from repro.gpusim.specs import M2090

        need = device_resident_bytes("acoustic", (512, 512, 512))
        assert need < M2090.memory_bytes * 0.97

    def test_bytes_scale_with_grid(self):
        small = device_resident_bytes("acoustic", (64, 64))
        big = device_resident_bytes("acoustic", (128, 128))
        # full fields scale exactly 4x; the slab-restricted psi terms scale
        # sub-linearly (the frame fraction shrinks), so the total is a bit
        # under 4x
        assert 3.0 < big / small < 4.2
