import warnings

import pytest

from repro.acc import (
    CRAY_8_2_6,
    PGI_14_3,
    PGI_14_6,
    CompileFlags,
    IneffectiveDirectiveWarning,
    LoopSchedule,
    Runtime,
    minfo,
)
from repro.gpusim import Device, K40
from repro.propagators.workloads import acoustic_workloads, isotropic_workloads
from repro.utils.errors import ConfigurationError
from repro.utils.units import MB


def flow_kernel():
    return acoustic_workloads((256, 256, 256))[1]


class TestMinfo:
    def test_pgi_parallelizable_message(self):
        msgs = minfo(PGI_14_6, "kernels", flow_kernel(), LoopSchedule(independent=True))
        text = "\n".join(msgs)
        assert "Loop is parallelizable" in text
        assert "Accelerator kernel generated" in text
        assert "vector(128)" in text

    def test_pgi_reports_register_clamp(self):
        msgs = minfo(
            PGI_14_6, "kernels", flow_kernel(), LoopSchedule(independent=True),
            CompileFlags(maxregcount=64),
        )
        assert any("64 registers used" in m for m in msgs)

    def test_pgi_143_branchy_diagnostic(self):
        (branchy,) = isotropic_workloads((256, 256, 256), variant="branchy")
        msgs = minfo(PGI_14_3, "kernels", branchy, LoopSchedule(independent=True))
        assert any("prevents gridification" in m for m in msgs)

    def test_pgi_dependence_message_without_independent(self):
        msgs = minfo(PGI_14_6, "kernels", flow_kernel(), LoopSchedule.auto())
        assert any("independent clause" in m for m in msgs)

    def test_cray_loopmark(self):
        msgs = minfo(CRAY_8_2_6, "parallel", flow_kernel(), LoopSchedule.gwv())
        assert msgs[0].startswith("GV")
        assert any("gang" in m for m in msgs)

    def test_cray_auto_heuristic_warning(self):
        msgs = minfo(CRAY_8_2_6, "kernels", flow_kernel(), LoopSchedule.auto())
        assert any("heuristically" in m for m in msgs)

    def test_explain_lowering_uses_preferred(self):
        def preferred(persona):
            return "\n".join(minfo(
                persona, persona.preferred_construct(), flow_kernel(),
                persona.preferred_schedule(),
            ))

        assert "Loop is parallelizable" in preferred(PGI_14_6)
        assert "gang, worker" in preferred(CRAY_8_2_6)


class TestInertDirectives:
    def test_tile_clause_warns(self):
        with pytest.warns(IneffectiveDirectiveWarning):
            LoopSchedule(tile=(32, 8))

    def test_tile_has_no_performance_effect(self):
        """The paper's complaint, encoded: tiled and untiled lowerings run
        at identical modelled speed."""
        rt = Runtime(Device(K40), compiler=PGI_14_6)
        w = flow_kernel()
        plain = rt.kernels(w, schedule=LoopSchedule(independent=True))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IneffectiveDirectiveWarning)
            tiled_schedule = LoopSchedule(independent=True, tile=(32, 8))
        tiled = rt.kernels(w, schedule=tiled_schedule)
        assert tiled.seconds == pytest.approx(plain.seconds)

    def test_tile_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            LoopSchedule(tile=(0,))

    def test_cache_directive_warns_and_checks_presence(self):
        rt = Runtime(Device(K40), compiler=PGI_14_6)
        rt.enter_data(copyin={"u": MB})
        with pytest.warns(IneffectiveDirectiveWarning):
            rt.cache("u")

    def test_cache_requires_present_data(self):
        from repro.utils.errors import PresentTableError

        rt = Runtime(Device(K40), compiler=PGI_14_6)
        with pytest.raises(PresentTableError):
            rt.cache("ghost")
