"""Benchmark-harness machinery tests (fast paths only; the full
table/figure regeneration lives in benchmarks/)."""

import pytest

from repro.bench import (
    ALL_CASES,
    Cell,
    Row,
    format_speedup_table,
    modeling_case,
    paper_data,
)
from repro.bench.table3 import make_cell, tuned_options
from repro.core.config import GpuTimes
from repro.core.platform import CRAY_K40, IBM_M2090
from repro.core.reference import ReferenceTimes
from repro.utils.errors import ConfigurationError


class TestCases:
    def test_twelve_seismic_cases(self):
        """3 physics x 2 dims (x modeling/RTM at the harness level)."""
        assert len(ALL_CASES) == 6
        assert {c.physics for c in ALL_CASES} == {"isotropic", "acoustic", "elastic"}

    def test_case_lookup(self):
        c = modeling_case("acoustic", 3)
        assert c.shape == (512, 512, 512)
        assert modeling_case("elastic", 2).name == "ELASTIC 2D"

    def test_unknown_case(self):
        with pytest.raises(ConfigurationError):
            modeling_case("acoustic", 4)

    def test_elastic_3d_sized_for_the_oom_gate(self):
        from repro.core.inventory import device_resident_bytes
        from repro.gpusim.specs import K40, M2090

        c = modeling_case("elastic", 3)
        need = device_resident_bytes(c.physics, c.shape)
        assert need > M2090.memory_bytes * 0.9
        assert need < K40.memory_bytes


class TestTunedOptions:
    def test_fission_only_on_fermi_acoustic_3d(self):
        from repro.acc import PGI_14_3, PGI_14_6

        c3 = modeling_case("acoustic", 3)
        assert tuned_options(PGI_14_3, c3, IBM_M2090).loop_fission
        assert not tuned_options(PGI_14_6, c3, CRAY_K40).loop_fission
        c2 = modeling_case("acoustic", 2)
        assert not tuned_options(PGI_14_3, c2, IBM_M2090).loop_fission

    def test_maxregcount_64(self):
        from repro.acc import PGI_14_6

        opts = tuned_options(PGI_14_6, modeling_case("isotropic", 2), CRAY_K40)
        assert opts.flags.maxregcount == 64
        assert opts.flags.pin


class TestCells:
    def test_make_cell_success(self):
        gpu = GpuTimes(total=10.0, kernel=8.0, success=True)
        cpu = ReferenceTimes(total=20.0, kernel=16.0)
        c = make_cell(gpu, cpu)
        assert c.total_speedup == pytest.approx(2.0)
        assert c.kernel_speedup == pytest.approx(2.0)

    def test_make_cell_failure(self):
        c = make_cell(GpuTimes(success=False, failure="oom"), ReferenceTimes(1, 1))
        assert c.failed
        assert c.fmt(c.gpu_total) == "x"

    def test_format_table_renders(self):
        rows = [Row("TEST 2D", Cell(1.0, 2.0, 0.5, 3.0), Cell(), Cell(failure="oom"))]
        text = format_speedup_table("Table T", rows)
        assert "TEST 2D" in text
        assert "x" in text


class TestPaperData:
    def test_tables_cover_all_cases(self):
        for case in ALL_CASES:
            assert case.name in paper_data.TABLE3
            assert case.name in paper_data.TABLE4

    def test_known_x_cells(self):
        assert paper_data.TABLE3["ELASTIC 3D"]["ibm_pgi"] is None
        assert paper_data.TABLE4["ELASTIC 3D"]["cray_cray"] is None
        assert paper_data.TABLE4["ELASTIC 3D"]["ibm_pgi"] is None

    def test_headline_claims_present(self):
        assert paper_data.CLAIMS["best_maxregcount"] == 64
        assert paper_data.CLAIMS["fission_speedup_fermi"] == 3.0
