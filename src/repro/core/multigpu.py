"""Multi-GPU domain decomposition — the paper's stated path forward.

"Path forward, we believe that exploiting multiple GPUs will provide
powerful insights. Consequently, overlapping MPI communications with GPU
computations could improve performance, especially when larger grid
dimensions are used." (Section 7.)

The model follows the paper's own single-GPU machinery: the domain is
decomposed into slabs along the depth axis (one per card); each step every
card runs its slab's kernels and exchanges stencil-radius ghost planes with
its neighbours over PCIe through the host ("Only the ghost nodes need to be
exchanged between host and GPU at each time step when partitioning the
domain among several GPUs"). Ghost faces are non-contiguous in general; the
``transpose_pack`` option models the paper's suggested on-GPU repacking
("One workaround is rearranging data of these ghost nodes by performing a
transposition on GPU"), collapsing the per-plane DMA chunks into one.

With ``overlap=True``, boundary-slab kernels run first and the ghost
exchange proceeds concurrently with the interior kernels (the
MPI/compute-overlap idea), so the per-step cost is
``max(kernels, boundary + comm)`` instead of their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acc.runtime import Runtime
from repro.core.config import GpuTimes, GPUOptions
from repro.core.inventory import device_resident_bytes
from repro.core.pipeline import OffloadPipeline
from repro.core.platform import CRAY_K40, Platform
from repro.core.schedule import figure4, walk
from repro.gpusim.device import Device
from repro.gpusim.kernelmodel import estimate_kernel_time
from repro.gpusim.memory import DeviceMemory
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.grid import Grid
from repro.mpisim.comm import SimMPI
from repro.mpisim.halo import HaloExchanger
from repro.observe import runlog
from repro.propagators.workloads import workloads_for
from repro.utils.errors import ConfigurationError

#: wavefields whose halos move per step, per formulation/dimension
_EXCHANGED_FIELDS = {
    ("isotropic", 2): 1,
    ("isotropic", 3): 1,
    ("acoustic", 2): 3,
    ("acoustic", 3): 4,
    ("elastic", 2): 5,
    ("elastic", 3): 9,
    ("vti", 2): 2,
    ("vti", 3): 2,
}


@dataclass
class MultiGpuTimes:
    """Modelled multi-GPU modeling run."""

    ngpus: int
    total: float = 0.0
    kernel: float = 0.0
    comm: float = 0.0
    snapshots: float = 0.0
    setup: float = 0.0
    success: bool = True
    failure: str | None = None
    per_device_bytes: list[int] = field(default_factory=list)

    def speedup_vs(self, single: "MultiGpuTimes") -> float:
        """Strong-scaling speedup against a single-card run."""
        if not (self.success and single.success) or self.total <= 0:
            raise ConfigurationError("speedup needs two successful runs")
        return single.total / self.total

    def efficiency_vs(self, single: "MultiGpuTimes") -> float:
        return self.speedup_vs(single) / self.ngpus


def _slab_shapes(shape: tuple[int, ...], ngpus: int) -> list[tuple[int, ...]]:
    """Block-distribute the depth axis across cards."""
    n0 = shape[0]
    base, extra = divmod(n0, ngpus)
    if base < 8:
        raise ConfigurationError(
            f"{n0} depth planes over {ngpus} GPUs leaves slabs too thin"
        )
    out = []
    for g in range(ngpus):
        nz = base + (1 if g < extra else 0)
        out.append((nz,) + tuple(shape[1:]))
    return out


def estimate_multi_gpu_modeling(
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    ngpus: int,
    platform: Platform = CRAY_K40,
    options: GPUOptions | None = None,
    overlap: bool = True,
    transpose_pack: bool = True,
    space_order: int = 8,
    boundary_width: int = 16,
    snapshot_decimate: int = 4,
) -> MultiGpuTimes:
    """Strong-scaling estimate of modeling across ``ngpus`` identical cards.

    All cards are assumed to step in lockstep (the slowest slab binds each
    step); neighbouring exchanges use each pair's own PCIe links
    concurrently, so one step pays a single D2H + H2D round trip of the
    widest face set.
    """
    if ngpus < 1:
        raise ConfigurationError("ngpus must be >= 1")
    if nt < 1 or snap_period < 1:
        raise ConfigurationError("nt and snap_period must be >= 1")
    options = options if options is not None else GPUOptions()
    physics = physics.lower()
    ndim = len(shape)
    try:
        slabs = _slab_shapes(shape, ngpus)
    except ConfigurationError:
        return MultiGpuTimes(ngpus=ngpus, success=False, failure="too-thin")
    toolkit = options.compiler.default_toolkit
    flags = options.flags
    pinned = flags.pin
    result = MultiGpuTimes(ngpus=ngpus)

    # --- capacity check + per-slab kernel time -------------------------
    kernel_times = []
    boundary_times = []
    for slab in slabs:
        need = device_resident_bytes(physics, slab, boundary_width)
        result.per_device_bytes.append(need)
        mem = DeviceMemory(platform.gpu.memory_bytes)
        if need > mem.usable:
            return MultiGpuTimes(
                ngpus=ngpus, success=False, failure="oom",
                per_device_bytes=result.per_device_bytes,
            )
        kw = {}
        if physics == "isotropic":
            kw = {"variant": "restructured", "pml_width": boundary_width}
        workloads = workloads_for(physics, slab, space_order, **kw)
        t_k = 0.0
        for w in workloads:
            launch = options.compiler.lower(
                options.compiler.preferred_construct(), w,
                options.compiler.preferred_schedule(), flags,
            )
            t_k += estimate_kernel_time(platform.gpu, w, launch, toolkit).seconds
            t_k += platform.gpu.launch_overhead_s
        kernel_times.append(t_k)
        # boundary sub-slabs (stencil-radius planes next to each face) must
        # complete before their halos can ship
        radius = space_order // 2
        frac = min(1.0, 2.0 * radius / slab[0])
        boundary_times.append(t_k * frac)

    t_kernel_step = max(kernel_times)

    # --- per-step ghost exchange ----------------------------------------
    radius = space_order // 2
    face_points = int(np.prod(shape[1:])) * radius
    nfields = _EXCHANGED_FIELDS[(physics, ndim)]
    face_bytes = face_points * 4 * nfields
    if ngpus == 1:
        t_comm_step = 0.0
    else:
        # ghost planes are contiguous along the slab axis here (depth-major
        # C order), but each *field* ships separately; without the on-GPU
        # packing transposition every field pays its own DMA setup chain
        chunks = 1 if transpose_pack else nfields * radius
        d2h = platform.pcie.transfer_time(face_bytes, pinned=pinned, chunks=chunks)
        h2d = platform.pcie.transfer_time(face_bytes, pinned=pinned, chunks=chunks)
        # both directions per interface; pairs run on their own links
        t_comm_step = 2.0 * (d2h + h2d)

    if overlap and ngpus > 1:
        t_step = max(t_kernel_step, max(boundary_times) + t_comm_step)
    else:
        t_step = t_kernel_step + t_comm_step

    # --- snapshots: every card offloads its slab concurrently -----------
    snap_bytes = max(
        int(np.prod(s)) * 4 // (snapshot_decimate**ndim) for s in slabs
    )
    t_snap = platform.pcie.transfer_time(snap_bytes, pinned=pinned)
    nsnaps = nt // snap_period

    # --- initial copyin of each card's inventory (concurrent) -----------
    t_setup = platform.pcie.transfer_time(
        max(result.per_device_bytes), pinned=pinned
    )

    result.kernel = nt * t_kernel_step
    result.comm = nt * t_comm_step
    result.snapshots = nsnaps * t_snap
    result.setup = t_setup
    result.total = nt * t_step + result.snapshots + result.setup
    return result


def scaling_study(
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    gpu_counts: tuple[int, ...] = (1, 2, 4, 8),
    platform: Platform = CRAY_K40,
    options: GPUOptions | None = None,
    overlap: bool = True,
) -> dict[int, MultiGpuTimes]:
    """Run the estimate across a set of card counts."""
    return {
        n: estimate_multi_gpu_modeling(
            physics, shape, nt, snap_period, n,
            platform=platform, options=options, overlap=overlap,
        )
        for n in gpu_counts
    }


# ---------------------------------------------------------------------------
# executed per-rank path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExchangeProtocol:
    """How the per-step ghost exchange talks to each card.

    The defaults are the correct protocol (pull the send faces, exchange,
    push the ghost slabs back). Each knob doubles as a fault injector for
    the sanitizer's fault-seeded tests:

    * ``update_host_before_send=False`` — the MPI send packs a host buffer
      no ``update host`` refreshed (``stale-host-read``);
    * ``update_ghost_device=False`` — the received ghost slab never reaches
      the card (``stale-device-read`` on the next kernel);
    * ``async_updates=True`` with ``sync_before_send=False`` — the send
      races the asynchronous ``update host`` still filling the face
      (``halo-send-before-sync``); with ``sync_before_send=True`` this is
      the legitimate overlap protocol (a ``wait(queue)`` orders the pair).
    """

    update_host_before_send: bool = True
    update_ghost_device: bool = True
    async_updates: bool = False
    sync_before_send: bool = True
    queue: int = 1

    @classmethod
    def from_faults(cls, specs, queue: int = 1) -> "ExchangeProtocol":
        """Build a (mis)protocol from shared fault specs — the single fault
        vocabulary of :mod:`repro.resilience.faults`. Accepts
        :class:`~repro.resilience.faults.FaultSpec` objects or kind strings;
        non-protocol kinds are ignored (they inject through the device/MPI
        hooks instead)."""
        from repro.resilience import faults as F

        kinds = {getattr(s, "kind", s) for s in specs}
        unknown = kinds - set(F.ALL_KINDS)
        if unknown:
            raise ConfigurationError(
                f"unknown fault kind(s): {', '.join(sorted(unknown))}"
            )
        racy = F.HALO_SEND_BEFORE_SYNC in kinds
        return cls(
            update_host_before_send=F.HALO_STALE_HOST not in kinds,
            update_ghost_device=F.HALO_STALE_DEVICE not in kinds,
            async_updates=racy,
            sync_before_send=not racy,
            queue=queue,
        )


@dataclass
class _RankContext:
    """One card's slice of the run."""

    rank: int
    sub: object  # Subdomain
    pipe: OffloadPipeline
    host_field: np.ndarray
    local_shape: tuple[int, ...]
    plane_bytes: int


class MultiGpuPipeline:
    """Executed (per-rank) multi-GPU offload: one :class:`OffloadPipeline`
    per card over a slab decomposition, ghost planes exchanged through the
    host via :mod:`repro.mpisim` each step.

    Unlike :func:`estimate_multi_gpu_modeling` (a closed-form timing
    model), this drives real per-rank directive streams — every ``update``
    of a ghost face, every ``note_host_write`` of a landed slab, every MPI
    message — so the analyzer and the sanitizer see the actual schedule.
    Pass a :class:`~repro.sanitize.session.SanitizeSession` as ``session``
    to check it live.
    """

    #: exchanged halo field key (the exchanger's name space, not the
    #: present table's — ``session.map_field`` bridges the two)
    FIELD_KEY = "u"

    def __init__(
        self,
        physics: str,
        shape: tuple[int, ...],
        ngpus: int,
        platform: Platform = CRAY_K40,
        options: GPUOptions | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        nreceivers: int = 16,
        halo_width: int | None = None,
        session: object | None = None,
        protocol: ExchangeProtocol | None = None,
        tracers: list | None = None,
        exchange_tracer: object | None = None,
        injector: object | None = None,
    ):
        if ngpus < 1:
            raise ConfigurationError("ngpus must be >= 1")
        if tracers is not None and len(tracers) != ngpus:
            raise ConfigurationError(
                f"need one tracer per rank: got {len(tracers)} for {ngpus} GPUs"
            )
        self.physics = physics.lower()
        self.shape = tuple(int(n) for n in shape)
        self.ndim = len(self.shape)
        self.ngpus = int(ngpus)
        self.options = options if options is not None else GPUOptions()
        self.session = session
        self.protocol = protocol if protocol is not None else ExchangeProtocol()
        self.radius = space_order // 2
        halo = self.radius if halo_width is None else int(halo_width)
        if session is not None:
            session.declare_stencil(self.radius)
        dims = (self.ngpus,) + (1,) * (self.ndim - 1)
        self.decomp = CartesianDecomposition(Grid(self.shape), dims, halo=halo)
        self.mpi = SimMPI(self.ngpus)
        if injector is not None:
            injector.attach_mpi(self.mpi)
        self._exchange_tracer = exchange_tracer
        self.ranks: list[_RankContext] = []
        for r in range(self.ngpus):
            sub = self.decomp.subdomain(r)
            local_shape = sub.local_grid.shape
            device = Device(
                platform.gpu,
                pcie=platform.pcie,
                toolkit=self.options.compiler.default_toolkit,
                pinned_host=self.options.flags.pin,
            )
            rt = Runtime(
                device,
                compiler=self.options.compiler,
                flags=self.options.flags,
                tracer=tracers[r] if tracers is not None else None,
            )
            if session is not None:
                rt.attach_recorder(session.recorder(r))
            if injector is not None:
                rt.attach_injector(injector, rank=r)
            pipe = OffloadPipeline(
                rt,
                self.physics,
                local_shape,
                nreceivers=nreceivers,
                space_order=space_order,
                boundary_width=boundary_width,
                options=self.options,
            )
            self.ranks.append(_RankContext(
                rank=r,
                sub=sub,
                pipe=pipe,
                host_field=np.zeros(local_shape, dtype=np.float32),
                local_shape=local_shape,
                plane_bytes=int(np.prod(local_shape[1:])) * 4,
            ))
        self.primary = self.ranks[0].pipe.primary
        # the exchanger's halo spans share rank 0's simulated timeline, so a
        # merged Perfetto export lines kernels and messages up on one axis
        self.exchanger = HaloExchanger(
            self.decomp,
            self.mpi,
            tracer=exchange_tracer,
            clock=(
                self.ranks[0].pipe.rt.device.clock
                if exchange_tracer is not None
                else None
            ),
            sanitizer=session,
        )

    # ------------------------------------------------------------------
    def makespan_s(self) -> float:
        """The node's simulated makespan so far: the slowest rank's device
        clock. The serve layer charges each node's shot window with this
        (recovery waits are on the same clocks, so the figure includes
        them); it survives as a snapshot when the pipeline is torn down
        for a re-decomposition."""
        return max(rc.pipe.rt.device.clock.now for rc in self.ranks)

    def _backward_name(self) -> str:
        return "bwd:" + self.primary.split(":", 1)[1]

    def exchange(self, device_name: str | None = None) -> None:
        """One ghost swap of ``device_name`` (default: the primary
        wavefield) across all ranks, through the host.

        Per face: ``update host`` of the owned planes feeding the send
        (synchronous, or on the protocol's async queue), the MPI exchange,
        then ``note_host_write`` + ``update device`` of the landed ghost
        slab — so each card's directive stream carries the whole round
        trip. This is the instrumented path the sanitizer checks.
        """
        name = device_name if device_name is not None else self.primary
        proto = self.protocol
        if self.session is not None:
            self.session.map_field(self.FIELD_KEY, name)
        h = self.decomp.halo
        for rc in self.ranks:
            rt = rc.pipe.rt
            n0 = rc.local_shape[0]
            nbytes = h * rc.plane_bytes
            queue = proto.queue if proto.async_updates else None
            for axis, side in rc.sub.halo.exchange_faces():
                lo = h * rc.plane_bytes if side == "lo" else (n0 - 2 * h) * rc.plane_bytes
                if proto.update_host_before_send:
                    rt.update_host(name, nbytes=nbytes, offset=lo, queue=queue)
            faces = rc.sub.halo.exchange_faces()
            if faces and proto.async_updates and proto.sync_before_send:
                rt.wait(proto.queue)
            for axis, side in faces:
                lo = h * rc.plane_bytes if side == "lo" else (n0 - 2 * h) * rc.plane_bytes
                # the face is packed into the message from the host copy
                rt.note_host_read(name, offset=lo, nbytes=nbytes)
        self.exchanger.exchange(
            [{self.FIELD_KEY: rc.host_field} for rc in self.ranks]
        )
        for rc in self.ranks:
            rt = rc.pipe.rt
            n0 = rc.local_shape[0]
            nbytes = h * rc.plane_bytes
            for axis, side in rc.sub.halo.exchange_faces():
                lo = 0 if side == "lo" else (n0 - h) * rc.plane_bytes
                # the neighbour's planes landed in the host ghost slab
                rt.note_host_write(name, offset=lo, nbytes=nbytes)
                if proto.update_ghost_device:
                    rt.update_device(name, nbytes=nbytes, offset=lo)
        runlog.count("multigpu.exchanges")

    # ------------------------------------------------------------------
    def _compiled_steps(
        self,
        mode: str,
        nt: int,
        snap_period: int,
        phase: str,
        snapshot_decimate: int = 1,
    ):
        """Per-rank compiled step callables for ``phase`` when
        ``options.compiled`` is set, else None (interpreted).

        Only the interior step loop compiles — halo exchange, snapshots
        and phase transitions stay interpreted because they touch live
        neighbour state. A compilation that produced phase prologues
        (hoisted updates) is admitted when the translation validator's
        cross-rank reorder proof (``DF204``) shows the prologue touches
        no halo-exchanged field: the prologue then runs lazily before
        each rank's first step of the phase, after the interpreted
        allocation/swap it must follow.  When the proof refuses, the
        fallback to the interpreter is *loud*: a warning plus the
        ``multigpu.compiled_fallback`` ledger counter. Ranks under a
        sanitize session bind faithfully, so their recorders still see
        every directive.
        """
        if not self.options.compiled:
            return None
        from repro.compile.runner import compiled_steps_for_rank

        bound = [
            compiled_steps_for_rank(
                rc.pipe, mode, nt, snap_period, snapshot_decimate
            )
            for rc in self.ranks
        ]
        prologue_name = f"{phase}_prologue"
        prologue_ranks = [
            b.steps.get(prologue_name) for b in bound
        ]
        if any(p is not None for p in prologue_ranks):
            from repro.analyze.framework import Severity
            from repro.compile.validate import prologue_lift_proof

            exchanged = {self.primary, self._backward_name()}
            diags = prologue_lift_proof(
                [tuple(p.ops) if p is not None else () for p in prologue_ranks],
                exchanged,
            )
            if any(d.severity >= Severity.ERROR for d in diags):
                import warnings

                reasons = "; ".join(d.message for d in diags[:2])
                warnings.warn(
                    f"multi-GPU {phase} falls back to the interpreter: "
                    f"the prologue lift fails the cross-rank reorder "
                    f"proof (DF204): {reasons}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                runlog.count("multigpu.compiled_fallback")
                runlog.emit(
                    "compiled.fallback", phase=phase, rule="DF204",
                    reasons=reasons,
                )
                return None

            def lift(step, prologue):
                ran = [False]

                def call() -> None:
                    if prologue is not None and not ran[0]:
                        ran[0] = True
                        prologue()
                    step()

                return call

            runlog.emit(
                "compiled", ranks=len(bound), phase=phase,
                prologue_lifted=True,
            )
            return [
                lift(b.steps[phase], p)
                for b, p in zip(bound, prologue_ranks)
            ]
        runlog.emit("compiled", ranks=len(bound), phase=phase)
        return [b.steps[phase] for b in bound]

    # ------------------------------------------------------------------
    def run_modeling(
        self, nt: int, snap_period: int, snapshot_decimate: int = 4
    ) -> list[GpuTimes]:
        """The Figure-4 forward schedule on every card, ghost swaps between
        steps; returns per-rank modelled timings."""
        return self._run("modeling", nt, snap_period, snapshot_decimate)

    def run_rtm(self, nt: int, snap_period: int) -> list[GpuTimes]:
        """Both phases: forward with full-field snapshots, swap, backward
        with imaging — the backward wavefield's halos swap per step too."""
        return self._run("rtm", nt, snap_period, 1)

    def _run(
        self, mode: str, nt: int, snap_period: int, snapshot_decimate: int
    ) -> list[GpuTimes]:
        """Walk the schedule on every rank; each forward/backward event is
        one step per card followed by the ghost swap of its wavefield."""
        runlog.emit("run", op=mode, nt=nt, ranks=len(self.ranks))
        compiled = {
            "forward": self._compiled_steps(
                mode, nt, snap_period, "forward", snapshot_decimate
            ),
        }
        if mode == "rtm":
            compiled["backward"] = self._compiled_steps(
                mode, nt, snap_period, "backward"
            )
        with_image = mode == "rtm" and self.options.image_on_gpu

        def each(method: str, **kwargs):
            def run(_) -> None:
                for rc in self.ranks:
                    getattr(rc.pipe, method)(**kwargs)

            return run

        def stepped(phase: str, method: str, exchanged: str):
            def run(_) -> None:
                steps = compiled[phase]
                for r, rc in enumerate(self.ranks):
                    steps[r]() if steps else getattr(rc.pipe, method)()
                self.exchange(exchanged)

            return run

        walk(figure4(mode, nt, snap_period), {
            "allocate": each("allocate_forward"),
            "forward": stepped("forward", "forward_step", self.primary),
            "snapshot": each("snapshot_to_host", decimate=snapshot_decimate),
            "swap": each("swap_to_backward"),
            "load_snapshot": each("load_forward_snapshot"),
            "imaging": each("imaging_step"),
            "backward": stepped("backward", "backward_step", self._backward_name()),
            "finalize": each("finalize", with_image=with_image),
        })
        runlog.emit("run.done", op=mode)
        return [rc.pipe.gpu_times() for rc in self.ranks]
