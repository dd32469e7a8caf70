"""Seismic modeling drivers (the forward phase of Algorithm 1).

``run_modeling`` executes the physics on the host; passing ``gpu_options``
and a ``platform`` additionally drives the Figure-4 offload pipeline so the
run carries modelled GPU timings (numerics are unchanged — the device
executes the same NumPy arrays). ``estimate_modeling`` runs the pipeline
alone for paper-scale grids.

The drivers own no time loop: a :class:`ShotVisitor` sets up one shot,
turns the forward half of its physics into handlers for the
:mod:`repro.core.schedule` events and walks them with the offload
pipeline alongside (or, under ``compiled=True``, host-only with the
compiled runner's timing). :mod:`repro.core.rtm` and the resilient
wrappers reuse it.
"""

from __future__ import annotations

import numpy as np

from repro.acc.runtime import Runtime
from repro.core.config import GPUOptions, GpuTimes, ModelingConfig, ModelingResult
from repro.core.pipeline import OffloadPipeline, run_pipeline
from repro.core.platform import CRAY_K40, Platform
from repro.core.schedule import figure4, walk
from repro.core.snapshots import SnapshotStore, default_snap_period
from repro.gpusim.device import Device
from repro.propagators.base import Propagator
from repro.propagators.factory import make_propagator
from repro.source.acquisition import Receivers, line_receivers
from repro.source.injection import PointSource
from repro.source.wavelets import integrated_ricker, ricker
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError


def _make_wavelet(physics: str, nt: int, dt: float, peak_freq: float) -> np.ndarray:
    """Physics-appropriate source time function: Eq. 2 injects the time
    integral of the wavelet; the others inject it directly."""
    if physics == "acoustic":
        return integrated_ricker(nt, dt, peak_freq)
    return ricker(nt, dt, peak_freq)


def _default_source(config: ModelingConfig, dt: float) -> PointSource:
    grid = config.model.grid
    depth = config.source_depth_index
    if depth is None:
        depth = min(config.boundary_width + 4, grid.shape[0] - 1)
    wavelet = _make_wavelet(config.physics.lower(), config.nt, dt, config.peak_freq)
    src = PointSource.at_center(grid, wavelet, depth_index=depth)
    if config.source_x_index is not None:
        x = int(config.source_x_index)
        if not 0 <= x < grid.shape[1]:
            raise ConfigurationError(f"source_x_index {x} outside the grid")
        idx = list(src.index)
        idx[1] = x
        src = PointSource(tuple(idx), src.wavelet)
    return src


def _default_receivers(config: ModelingConfig) -> Receivers:
    grid = config.model.grid
    depth = min(config.boundary_width + 2, grid.shape[0] - 1)
    return line_receivers(grid, depth, stride=4, margin=config.boundary_width)


def _build_runtime(
    options: GPUOptions, platform: Platform, tracer: Tracer | None = None
) -> Runtime:
    device = Device(
        platform.gpu,
        pcie=platform.pcie,
        toolkit=options.compiler.default_toolkit,
        pinned_host=options.flags.pin,
    )
    return Runtime(
        device, compiler=options.compiler, flags=options.flags, tracer=tracer
    )


def _strict_check(
    options: GPUOptions,
    platform: Platform,
    physics: str,
    shape: tuple[int, ...],
    mode: str,
    nreceivers: int,
    space_order: int,
    boundary_width: int,
    pml_variant: str,
    nt: int = 16,
    snap_period: int = 4,
) -> None:
    """Opt-in strict modes: lint, sanitize and/or statically validate a
    dry-run recording of this configuration's schedule and refuse (raise
    AnalysisError) on error-level findings before the real run starts."""
    if options.strict_lint:
        from repro.analyze.drivers import check_schedule

        check_schedule(
            physics,
            tuple(shape),
            mode,
            options,
            platform,
            nreceivers=nreceivers,
            space_order=space_order,
            boundary_width=boundary_width,
            pml_variant=pml_variant,
        )
    if options.sanitize:
        from repro.sanitize.drivers import check_sanitize

        check_sanitize(
            physics,
            tuple(shape),
            mode,
            options,
            platform,
            space_order=space_order,
            boundary_width=boundary_width,
        )
    if options.strict_validate:
        from repro.analyze.validate_cli import check_validate

        check_validate(
            physics,
            tuple(shape),
            mode,
            options,
            platform,
            nt=nt,
            snap_period=snap_period,
            space_order=space_order,
            boundary_width=boundary_width,
            pml_variant=pml_variant,
        )


class ShotVisitor:
    """One shot's forward physics, as Figure-4 event handlers.

    Construction is the shot's set-up, shared by the modeling and RTM
    drivers and their resilient wrappers: the source-side propagator,
    the ``snap_period`` (defaulted from its stable ``dt``), source,
    receivers, seismogram and snapshot store. ``forward`` steps the
    source wavefield and records the receivers; ``snapshot`` stores the
    wavefield. Every event also issues its offload-pipeline call through
    :meth:`device`.
    """

    mode = "modeling"

    def __init__(self, config: ModelingConfig):
        if config.model is None:
            raise ConfigurationError(f"run_{self.mode} needs an EarthModel")
        self.config = config
        self.physics = config.physics.lower()
        self.shape = config.model.grid.shape
        self.prop = self.propagator()
        self.snap_period = (
            config.snap_period
            if config.snap_period is not None
            else default_snap_period(self.prop.dt, config.peak_freq)
        )
        self.source = _default_source(config, self.prop.dt)
        self.receivers = (
            config.receivers
            if config.receivers is not None
            else _default_receivers(config)
        )
        self.seismogram = np.zeros(
            (config.nt, self.receivers.count), dtype=np.float32
        )
        # RTM images against full fields; the modeling movie is decimated
        decimate = 1 if self.mode == "rtm" else config.snapshot_decimate
        self.store = SnapshotStore(self.snap_period, decimate=decimate)
        self.pipeline: OffloadPipeline | None = None

    def propagator(self) -> Propagator:
        """A fresh propagator on the shot's model."""
        config = self.config
        kwargs = {}
        if self.physics == "isotropic":
            kwargs["pml_variant"] = config.pml_variant
        return make_propagator(
            self.physics,
            config.model,
            dt=config.dt,
            space_order=config.space_order,
            boundary_width=config.boundary_width,
            **kwargs,
        )

    def offload(self, rt: Runtime, options: GPUOptions) -> OffloadPipeline:
        """The offload pipeline of this shot's configuration on ``rt``."""
        config = self.config
        return OffloadPipeline(
            rt,
            self.physics,
            self.shape,
            nreceivers=self.receivers.count,
            space_order=config.space_order,
            boundary_width=config.boundary_width,
            options=options,
            pml_variant=config.pml_variant,
        )

    def device(self, method: str, phase: str, **kwargs) -> None:
        """Call ``method`` on the attached pipeline, if any; ``phase`` is
        the pipeline phase the call expects. The resilience layer
        replaces this per instance with its guarded dispatcher."""
        if self.pipeline is not None:
            getattr(self.pipeline, method)(**kwargs)

    def visit(self) -> dict:
        return {
            "allocate": self.allocate,
            "forward": self.forward,
            "snapshot": self.snapshot,
            "finalize": self.finalize,
        }

    def allocate(self, _) -> None:
        self.device("allocate_forward", "idle")

    def forward(self, n: int) -> None:
        amp = self.source.amplitude(n)
        srcs = [(self.source.index, amp)] if amp != 0.0 else []
        self.prop.step(srcs)
        self.seismogram[n, :] = self.receivers.record(self.prop.snapshot_field())
        self.device("forward_step", "forward", inject_source=bool(srcs))

    def snapshot(self, n: int) -> None:
        self.store.save(n, self.prop.snapshot_field())
        self.device("snapshot_to_host", "forward", decimate=self.store.decimate)

    def finalize(self, _) -> None:
        self.device("finalize", "forward", with_image=False)

    def result(self, gpu: GpuTimes | None, **extras) -> ModelingResult:
        return ModelingResult(
            seismogram=self.seismogram,
            snapshots=self.store,
            final_wavefield=self.prop.snapshot_field().copy(),
            dt=self.prop.dt,
            gpu=gpu,
            extras=extras,
        )

    def run(
        self,
        gpu_options: GPUOptions | None,
        platform: Platform,
        tracer: Tracer | None,
    ) -> GpuTimes | None:
        """Walk the shot's schedule, physics in every event; returns the
        modelled timing when ``gpu_options`` is given.

        The offload pipeline runs next to the physics, event by event.
        Under ``compiled=True`` the compiled step functions replace the
        interpreter instead: the physics walks host-only and the timing
        comes from the compiled runner (what estimate mode reports).
        """
        config = self.config
        pipeline = None
        if gpu_options is not None:
            _strict_check(
                gpu_options, platform, self.physics, self.shape, self.mode,
                self.receivers.count, config.space_order,
                config.boundary_width, config.pml_variant, nt=config.nt,
                snap_period=self.snap_period,
            )
            pipeline = self.offload(
                _build_runtime(gpu_options, platform, tracer), gpu_options
            )
            if not gpu_options.compiled:
                self.pipeline = pipeline
        walk(figure4(self.mode, config.nt, self.snap_period), self.visit())
        if pipeline is None:
            return None
        if gpu_options.compiled:
            return run_pipeline(
                pipeline, self.mode, config.nt, self.snap_period,
                config.snapshot_decimate,
            )
        return pipeline.gpu_times()


def run_modeling(
    config: ModelingConfig,
    gpu_options: GPUOptions | None = None,
    platform: Platform = CRAY_K40,
    tracer: Tracer | None = None,
) -> ModelingResult:
    """Run seismic modeling; returns the seismogram, the snapshot movie and
    (when ``gpu_options`` is given) the modelled GPU timing."""
    shot = ShotVisitor(config)
    return shot.result(shot.run(gpu_options, platform, tracer))


def estimate_modeling(
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    platform: Platform = CRAY_K40,
    options: GPUOptions | None = None,
    nreceivers: int = 128,
    space_order: int = 8,
    boundary_width: int = 16,
    pml_variant: str = "branchy",
    snapshot_decimate: int = 4,
    tracer: Tracer | None = None,
) -> GpuTimes:
    """Timing-only modeling run at arbitrary (paper-scale) grid sizes."""
    options = options if options is not None else GPUOptions()
    _strict_check(
        options, platform, physics, shape, "modeling",
        nreceivers, space_order, boundary_width, pml_variant,
        nt=nt, snap_period=snap_period,
    )
    rt = _build_runtime(options, platform, tracer)
    pipeline = OffloadPipeline(
        rt,
        physics,
        shape,
        nreceivers=nreceivers,
        space_order=space_order,
        boundary_width=boundary_width,
        options=options,
        pml_variant=pml_variant,
    )
    return run_pipeline(pipeline, "modeling", nt, snap_period, snapshot_decimate)
