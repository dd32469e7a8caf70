"""Reverse Time Migration drivers (both phases of Algorithm 1).

Forward: propagate the source wavefield, recording the seismogram at the
receivers and storing full-field snapshots every ``snap_period``.
Backward: propagate the *receiver* wavefield by injecting the time-reversed
seismogram at the receiver positions, and at every snapshot step apply the
cross-correlation imaging condition against the stored source wavefield.

``run_rtm`` executes the physics; with ``gpu_options`` it also drives the
five-step offload pipeline for modelled timings. ``estimate_rtm`` times the
pipeline alone at paper-scale sizes.

The time order comes from :mod:`repro.core.schedule`: :class:`RtmVisitor`
extends the modeling driver's forward visitor with the swap and the
backward half, and ``run_rtm`` walks it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GPUOptions, GpuTimes, RTMConfig, RTMResult
from repro.core.imaging import (
    cross_correlation_update,
    illumination_update,
    mute_shallow,
    normalize_image,
)
from repro.core.modeling import ShotVisitor, _build_runtime, _strict_check
from repro.core.pipeline import OffloadPipeline, run_pipeline
from repro.core.platform import CRAY_K40, Platform
from repro.trace.tracer import Tracer


class RtmVisitor(ShotVisitor):
    """Both halves of an RTM shot's physics, as Figure-4 event handlers.

    The forward half is :class:`~repro.core.modeling.ShotVisitor`'s plus
    the source illumination. ``swap`` builds the receiver-side
    propagator; each ``backward`` step injects the time-reversed
    seismogram and, at a stored snapshot step, cross-correlates the two
    wavefields into the image.
    """

    mode = "rtm"

    def __init__(self, config: RTMConfig):
        super().__init__(config)
        self.illum = np.zeros(self.shape, dtype=np.float32)
        self.bwd = None
        self.image: np.ndarray | None = None

    def visit(self) -> dict:
        return {
            **super().visit(),
            "swap": self.swap,
            "load_snapshot": self.load_snapshot,
            "imaging": self.imaging,
            "backward": self.backward,
        }

    def snapshot(self, n: int) -> None:
        illumination_update(self.illum, self.prop.snapshot_field())
        super().snapshot(n)

    def swap(self, _) -> None:
        self.device("swap_to_backward", "forward")
        self.bwd = self.propagator()
        self.image = np.zeros(self.shape, dtype=np.float32)

    def load_snapshot(self, _) -> None:
        self.device("load_forward_snapshot", "backward")

    def imaging(self, _) -> None:
        self.device("imaging_step", "backward")

    def backward(self, n: int) -> None:
        bwd = self.bwd
        bwd.step(())
        # receiver injection: the time-reversed records drive the backward
        # wavefield (inject_pressure reaches the real state fields — the
        # elastic observable is derived, so a plain field write would be
        # lost)
        bwd.inject_pressure(
            self.receivers.indices, self.seismogram[n, :],
            scale=np.float32(1.0 / bwd.dt),
        )
        if self.store.has(n):
            cross_correlation_update(
                self.image, self.store.load(n), bwd.snapshot_field()
            )
        self.device("backward_step", "backward", inject_receivers=True)

    def finalize(self, _) -> None:
        pipeline = self.pipeline
        self.device(
            "finalize", "backward",
            with_image=pipeline is not None and pipeline.options.image_on_gpu,
        )

    def result(self, gpu: GpuTimes | None, **extras) -> RTMResult:
        config = self.config
        raw = self.image.copy()
        out = normalize_image(
            self.image, self.illum if config.illumination_normalize else None
        )
        mute = (
            config.mute_cells
            if config.mute_cells is not None
            else config.boundary_width + 8
        )
        return RTMResult(
            image=mute_shallow(out, mute),
            raw_image=raw,
            seismogram=self.seismogram,
            dt=self.prop.dt,
            gpu=gpu,
            extras={
                "snap_period": self.snap_period,
                "snapshots": self.store.count,
                **extras,
            },
        )


def run_rtm(
    config: RTMConfig,
    gpu_options: GPUOptions | None = None,
    platform: Platform = CRAY_K40,
    tracer: Tracer | None = None,
) -> RTMResult:
    """Run one-shot RTM; returns the migrated image (normalised + muted)
    and, when ``gpu_options`` is given, the modelled GPU timing."""
    shot = RtmVisitor(config)
    return shot.result(shot.run(gpu_options, platform, tracer))


def estimate_rtm(
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
    tracer: Tracer | None = None,
) -> GpuTimes:
    """Timing-only RTM run at arbitrary (paper-scale) grid sizes."""
    options = options if options is not None else GPUOptions()
    _strict_check(
        options, platform, physics, shape, "rtm",
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
    return run_pipeline(pipeline, "rtm", nt, snap_period)
