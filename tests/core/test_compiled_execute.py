"""Execute-mode drivers honour ``GPUOptions(compiled=True)``.

The physics steps host-only and the modelled timing comes from the
compiled runner, so a compiled ``run_rtm`` / ``run_modeling`` reports
exactly the estimate-mode figure for the same configuration, and its
numerics are bitwise those of the interpreted run.
"""

import numpy as np
import pytest

from repro.compile import runner
from repro.core import (
    GPUOptions,
    ModelingConfig,
    RTMConfig,
    estimate_modeling,
    estimate_rtm,
    run_modeling,
    run_rtm,
)
from repro.model import layered_model


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


def _cfg(cls, physics):
    model = layered_model(
        (48, 48), spacing=10.0, interfaces=[240.0],
        velocities=[1500.0, 2600.0],
        vs_ratio=0.5 if physics == "elastic" else None,
    )
    return cls(
        physics=physics, model=model, nt=10, peak_freq=12.0,
        space_order=8, boundary_width=8, snap_period=4,
        pml_variant="restructured",
    )


def _estimate_kwargs(result, config):
    return dict(
        nreceivers=result.seismogram.shape[1],
        space_order=config.space_order,
        boundary_width=config.boundary_width,
        pml_variant=config.pml_variant,
        options=GPUOptions(compiled=True),
    )


@pytest.mark.parametrize("physics", ["isotropic", "acoustic", "elastic"])
def test_compiled_run_rtm_reports_the_compiled_estimate(physics):
    config = _cfg(RTMConfig, physics)
    compiled = run_rtm(config, GPUOptions(compiled=True))
    interpreted = run_rtm(config, GPUOptions())
    expected = estimate_rtm(
        physics, config.model.grid.shape, config.nt, config.snap_period,
        **_estimate_kwargs(compiled, config),
    )
    assert compiled.gpu == expected
    assert compiled.gpu.success
    assert np.array_equal(compiled.image, interpreted.image)
    assert compiled.image.tobytes() == interpreted.image.tobytes()
    assert compiled.seismogram.tobytes() == interpreted.seismogram.tobytes()


def test_compiled_run_modeling_reports_the_compiled_estimate():
    config = _cfg(ModelingConfig, "acoustic")
    compiled = run_modeling(config, GPUOptions(compiled=True))
    interpreted = run_modeling(config, GPUOptions())
    expected = estimate_modeling(
        "acoustic", config.model.grid.shape, config.nt, config.snap_period,
        snapshot_decimate=config.snapshot_decimate,
        **_estimate_kwargs(compiled, config),
    )
    assert compiled.gpu == expected
    assert compiled.seismogram.tobytes() == interpreted.seismogram.tobytes()
    assert (
        compiled.final_wavefield.tobytes()
        == interpreted.final_wavefield.tobytes()
    )
