"""The recovery layer: guarded pipelines that survive injected faults.

Three mechanisms, applied in escalation order (the degradation ladder):

1. **Retry with capped exponential backoff** — transient faults
   (:class:`~repro.utils.errors.PCIeTransferError`,
   :class:`~repro.utils.errors.KernelLaunchError`, a failed halo exchange).
   Backoff delays are deterministic — seeded jitter, charged to the
   *simulated* clock, never wall time.
2. **Restart from the last periodic checkpoint** — when retries exhaust, or
   immediately on an uncorrectable ECC event (device data is corrupt, so
   re-running the op would read garbage). This is the *executed* form of
   :mod:`repro.core.checkpointing`: :class:`CheckpointStore` saves real
   wavefield + C-PML + image state on the
   :func:`~repro.core.checkpointing.plan_checkpoints` schedule and restores
   it bit-for-bit, so the replay reproduces the fault-free run exactly.
   A residency build (allocate / swap) that escalates is rebuilt
   straight to its target phase instead: the host state is intact.
3. **Graceful degradation** — capacity loss. A mid-run device OOM asks
   :func:`~repro.core.offload_plan.plan_offload` which strategy the card
   can afford and records it, then drops and rebuilds the *same*
   residency; the retry succeeds because the modelled repair resolves the
   injected OOM. A dead rank re-decomposes the domain onto the surviving
   cards.

The ladder lives once, on ``_Guard``; the two drivers supply only how
their state and residency are put back.
:class:`ResilientPipeline` wraps the single-card executed drivers
(:func:`~repro.core.modeling.run_modeling` /
:func:`~repro.core.rtm.run_rtm` semantics, physics bit-identical) by
reusing their shot set-up and visitors with a guarded ``device`` hook;
:class:`ResilientMultiGpu` wraps the decomposed
:class:`~repro.core.multigpu.MultiGpuPipeline` path with a real (simple,
deterministic, ghost-dependent) host physics so halo faults are observable
in the answer. Both walk the :mod:`repro.core.schedule` events; a restart
moves the walk's cursor back to the first event of the checkpointed loop
iteration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpointing import plan_checkpoints
from repro.core.config import (
    GPUOptions,
    ModelingConfig,
    ModelingResult,
    RTMConfig,
    RTMResult,
)
from repro.core.modeling import ShotVisitor, _build_runtime
from repro.core.multigpu import MultiGpuPipeline
from repro.core.offload_plan import plan_offload
from repro.core.pipeline import OffloadPipeline
from repro.core.platform import CRAY_K40, Platform
from repro.core.rtm import RtmVisitor
from repro.core.schedule import (
    REPEATED_PHASES,
    Rewind,
    figure4,
    loop_positions,
    walk,
)
from repro.core.snapshots import SnapshotStore
from repro.observe import runlog
from repro.resilience.faults import OOM, PCIE_PERMANENT, RANK_DEAD
from repro.resilience.injector import TRACE_PROCESS, FaultInjector
from repro.trace.tracer import NULL_TRACER
from repro.utils.errors import (
    CommunicationError,
    ConfigurationError,
    DeviceECCError,
    DeviceLostError,
    DeviceOutOfMemoryError,
    KernelLaunchError,
    PCIeTransferError,
    ReproError,
)

RECOVERY_TRACK = "recovery"

#: faults where retrying the same operation can succeed
_TRANSIENT = (PCIeTransferError, KernelLaunchError)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with deterministic, seeded jitter.

    ``delay(attempt)`` = ``base_delay_s * factor**attempt`` stretched by up
    to ``jitter`` (drawn from the policy's own RNG stream). Delays are
    charged to the simulated device clock — never wall time — so identical
    seeds reproduce identical recovery timelines.
    """

    max_retries: int = 3
    base_delay_s: float = 1e-3
    factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = self.base_delay_s * self.factor ** min(attempt, 16)
        return base * (1.0 + self.jitter * rng.random())


class CheckpointStore:
    """Executed periodic checkpointing on a
    :func:`~repro.core.checkpointing.plan_checkpoints` schedule.

    Checkpoints are taken at loop-iteration boundaries: index ``0`` (the
    pristine state) plus every ``period``-th boundary the plan's budget
    keeps. Each is one state dict (propagator fields, C-PML memory,
    accumulated image/illumination), stored once under its step.
    """

    def __init__(self, nt: int, period: int, budget: int | None = None):
        if nt < 1:
            raise ConfigurationError("nt must be >= 1")
        self.period = max(1, int(period))
        nstates = nt // self.period
        self.plan = None
        steps = {0}
        if nstates >= 1:
            budget = nstates if budget is None else max(1, int(budget))
            self.plan = plan_checkpoints(nt, self.period, budget)
            steps |= {
                (k + 1) * self.period
                for k in self.plan.stored_indices
                if (k + 1) * self.period < nt
            }
        self._steps = steps
        self._states: dict[int, dict] = {}
        self.saves = 0

    def is_checkpoint_step(self, step: int) -> bool:
        """Whether a checkpoint is due at the top of iteration ``step``."""
        return step in self._steps

    def save(self, step: int, state: dict) -> None:
        self._states[step] = state
        self.saves += 1

    def latest(self, at_or_before: int) -> int:
        """Most recent stored step <= ``at_or_before`` (0 always exists
        once the run has started)."""
        stored = [s for s in self._states if s <= at_or_before]
        if not stored:
            raise ConfigurationError(
                f"no checkpoint at or before step {at_or_before}"
            )
        return max(stored)

    def load(self, step: int) -> dict:
        return self._states[step]


@dataclass
class RecoveryStats:
    """What recovery did during one guarded run."""

    detected: int = 0
    retries: int = 0
    restarts: int = 0
    degraded: list = field(default_factory=list)
    #: simulated seconds spent on recovery actions (backoff waits +
    #: residency teardown/rebuild), excluding replayed compute
    recovery_cost_s: float = 0.0
    actions: list = field(default_factory=list)

    def note(self, action: str, kind: str = "action") -> None:
        self.actions.append(action)
        # recovery actions land in the ambient run ledger record too, so
        # a chaos/serve campaign's retries/restarts/degrades are queryable
        # next to the run's reduced metrics (no-op outside a run scope);
        # the per-kind counters are what `report --check` trends
        runlog.emit("recovery", action=action, action_kind=kind)
        runlog.count("recovery.actions")
        if kind != "action":
            runlog.count(f"recovery.{kind}s")

    def counts(self) -> dict:
        """Flat recovery counters (ledger-metric shaped)."""
        return {
            "recovery_retries": float(self.retries),
            "recovery_restarts": float(self.restarts),
            "recovery_degrades": float(len(self.degraded)),
            "recovery_cost_s": float(self.recovery_cost_s),
        }

    def absorb(self, other: "RecoveryStats") -> None:
        """Fold another guarded run's stats into this aggregate (the
        service's per-worker totals across shots)."""
        self.detected += other.detected
        self.retries += other.retries
        self.restarts += other.restarts
        self.degraded.extend(other.degraded)
        self.recovery_cost_s += other.recovery_cost_s
        self.actions.extend(other.actions)


class _RestartNeeded(ReproError):
    """Internal: escalate from op-level retry to checkpoint restart."""

    def __init__(self, cause: Exception):
        super().__init__(str(cause))
        self.cause = cause


class _Guard:
    """The recovery ladder both drivers share: op-level retry, the OOM
    degrade, and the two restart rungs (:meth:`restart` from a checkpoint,
    :meth:`rebuild` of a residency build). A driver supplies only what is
    its own: ``reside(phase)``, which tears its cards' residency down and
    rebuilds it for ``phase``, and how to put a checkpoint's state back."""

    def __init__(
        self,
        injector: FaultInjector,
        backoff: BackoffPolicy,
        stats: RecoveryStats,
        tracer,
        clock,
        mode: str,
        max_restarts: int,
        reside,
    ):
        self.injector = injector
        self.backoff = backoff
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clock = clock
        self.mode = mode
        self.max_restarts = max_restarts
        self.reside = reside
        self._rng = backoff.rng()

    def _wait(self, attempt: int) -> None:
        delay = self.backoff.delay(attempt, self._rng)
        self.clock.advance(delay, "recovery")
        self.stats.recovery_cost_s += delay

    def _span(self, name, **args):
        return self.tracer.span(
            name, process=TRACE_PROCESS, track=RECOVERY_TRACK, cat="recovery",
            **args,
        )

    def retry(self, label: str, attempt: int, exc: Exception, undo=None) -> int:
        """The retry rung for a transient fault on attempt ``attempt``:
        escalate to a restart once the retry budget is spent, else run
        ``undo`` (when given) and wait out the backoff. A string ``undo``
        returns joins the action note. Returns the next attempt."""
        self.stats.detected += 1
        if attempt >= self.backoff.max_retries:
            raise _RestartNeeded(exc)
        with self._span(f"retry:{label}", attempt=attempt, error=str(exc)):
            detail = undo() if undo is not None else None
            self._wait(attempt)
        attempt += 1
        self.stats.retries += 1
        detail = f", {detail}" if detail else ""
        self.stats.note(f"retry {label} (attempt {attempt}{detail}): {exc}", kind="retry")
        return attempt

    def run(self, label: str, op, pipeline: OffloadPipeline, phase: str,
            reset=None):
        """Run ``op`` under the ladder. ``phase`` is the pipeline phase the
        op expects; a degrade rebuilds residency to it before retrying.
        ``reset`` (when given) undoes a partial op before a retry —
        residency-building ops are not idempotent, so a transfer fault
        halfway through ``allocate_forward`` must tear down the partial
        present-table before re-entering."""
        attempt = 0
        while True:
            try:
                return op()
            except _TRANSIENT as exc:
                attempt = self.retry(label, attempt, exc, reset)
            except DeviceECCError as exc:
                # device memory is corrupt — re-running the op would compute
                # on garbage; only a checkpoint restart re-uploads good state
                self.stats.detected += 1
                self.stats.note(f"ecc during {label}: {exc}", kind="detect")
                raise _RestartNeeded(exc)
            except DeviceOutOfMemoryError as exc:
                self.stats.detected += 1
                self.degrade_oom(label, exc, pipeline, phase)
                self.stats.retries += 1

    def degrade_oom(
        self, label: str, exc: Exception, pipeline: OffloadPipeline, phase: str
    ) -> None:
        """The OOM rung: record the strategy the offload planner says this
        card can afford, drop and rebuild the same residency (the
        modelled repair resolves the OOM), and let the caller retry the
        op."""
        plan = plan_offload(
            pipeline.physics,
            pipeline.shape,
            pipeline.rt.device.spec,
            boundary_width=pipeline.boundary_width,
            rtm=self.mode == "rtm",
        )
        with self._span(
            f"degrade:{label}", strategy=plan.strategy, error=str(exc),
        ):
            t0 = self.clock.now
            pipeline.drop_residency()
            self.injector.resolve(OOM)
            pipeline.restore_residency(phase)
            self.stats.recovery_cost_s += self.clock.now - t0
        action = f"re-plan:{plan.strategy}"
        self.stats.degraded.append(action)
        self.stats.note(f"degrade {label}: {action} ({exc})", kind="degrade")

    def _restart_rung(self, exc: _RestartNeeded, note: str, repair,
                      **span_args) -> None:
        """One restart: reset the link (the modelled link/card reset clears
        a permanent PCIe fault latched before the escalation), run
        ``repair`` and charge its simulated time as recovery cost.
        Re-raises the original fault once the restart budget is spent
        (unrecoverable)."""
        if self.stats.restarts >= self.max_restarts:
            raise exc.cause
        self.stats.restarts += 1
        with self._span("restart", **span_args, error=str(exc.cause)):
            t0 = self.clock.now
            self.injector.resolve(PCIE_PERMANENT)
            repair()
            self.stats.recovery_cost_s += self.clock.now - t0
        self.stats.note(f"{note} after {type(exc.cause).__name__}",
                        kind="restart")

    def restart(self, exc: _RestartNeeded, ckpt: CheckpointStore, loop: str,
                at: int, restore) -> int:
        """Restore the most recent checkpoint of ``loop`` at or before
        iteration ``at`` (``restore(state)`` puts its host state back) and
        rebuild the loop's residency. Returns the iteration to resume
        from."""
        step = ckpt.latest(at)

        def repair() -> None:
            restore(ckpt.load(step))
            self.reside(loop)

        self._restart_rung(
            exc, f"restart from checkpoint {step}", repair,
            from_step=at, to_step=step, phase=loop,
        )
        return step

    def rebuild(self, build, phase: str, label: str, note: str) -> None:
        """Run the residency-building ``build`` (allocate / swap) with its
        restart rung: the host state is intact, so no checkpoint is
        involved — on escalation tear down and rebuild straight to
        ``phase``. ``label`` is the span's phase argument, ``note`` the
        action text's head."""
        try:
            build()
        except _RestartNeeded as exc:
            self._restart_rung(
                exc, note, lambda: self.reside(phase), phase=label,
            )


class ResilientPipeline:
    """Fault-tolerant executed modeling/RTM on one simulated card.

    With an empty fault plan this runs *exactly* the plain drivers'
    operation sequence — the physics is bitwise identical and the device
    timeline matches to the last launch (checkpoint capture is pure host
    work). With faults armed, recovery guarantees the same final answer.

    Parameters
    ----------
    config:
        :class:`ModelingConfig` (for :meth:`run_modeling`) or
        :class:`RTMConfig` (for :meth:`run_rtm`).
    gpu_options / platform / tracer:
        As for the plain drivers; the pipeline is always attached (faults
        inject through device operations).
    injector:
        The armed :class:`FaultInjector` (one is built from ``plan`` when
        omitted).
    backoff:
        Retry policy (deterministic defaults).
    checkpoint_period:
        Loop iterations between checkpoints (default: ``nt // 4``, min 1).
    checkpoint_budget:
        Max stored checkpoints (:func:`plan_checkpoints` spreads them);
        ``None`` keeps every periodic one.
    max_restarts:
        Restart budget before the run is declared unrecoverable (the
        original fault is re-raised).
    """

    def __init__(
        self,
        config: ModelingConfig,
        gpu_options: GPUOptions | None = None,
        platform: Platform = CRAY_K40,
        tracer=None,
        injector: FaultInjector | None = None,
        plan=None,
        backoff: BackoffPolicy | None = None,
        checkpoint_period: int | None = None,
        checkpoint_budget: int | None = None,
        max_restarts: int = 4,
    ):
        if config.model is None:
            raise ConfigurationError("ResilientPipeline needs an EarthModel")
        self.config = config
        self.options = gpu_options if gpu_options is not None else GPUOptions()
        self.platform = platform
        self.tracer = tracer
        if injector is None:
            injector = FaultInjector(plan, tracer=tracer)
        self.injector = injector
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        period = checkpoint_period
        if period is None:
            period = max(1, config.nt // 4)
        self.checkpoint_period = period
        self.checkpoint_budget = checkpoint_budget
        self.max_restarts = int(max_restarts)
        self.stats = RecoveryStats()
        self.checkpoints: CheckpointStore | None = None
        self.backward_checkpoints: CheckpointStore | None = None

    # ------------------------------------------------------------------
    def _run(self, shot: ShotVisitor):
        """Walk ``shot`` with every pipeline call under the recovery
        ladder; returns its result."""
        rt = _build_runtime(self.options, self.platform, self.tracer)
        rt.attach_injector(self.injector)
        pipeline = shot.pipeline = shot.offload(rt, self.options)

        def reside(phase: str) -> None:
            pipeline.drop_residency()
            pipeline.restore_residency(phase)

        guard = _Guard(
            self.injector, self.backoff, self.stats,
            pipeline.tracer, rt.device.clock,
            "rtm" if isinstance(self.config, RTMConfig) else "modeling",
            self.max_restarts, reside,
        )
        shot.device = self._device(guard, pipeline)
        self._walk(shot, guard, pipeline)
        return shot.result(pipeline.gpu_times(), resilience=self.stats)

    def _finalize(self, guard, pipeline, phase, with_image: bool):
        try:
            guard.run("finalize", lambda: pipeline.finalize(with_image), pipeline, phase)
        except _RestartNeeded:
            # the answer already lives on the host — a finalize that cannot
            # talk to the card degrades to dropping residency outright
            pipeline.drop_residency()
            self.injector.resolve(PCIE_PERMANENT)
            self.stats.degraded.append("finalize:drop")
            self.stats.note("finalize degraded to residency drop", kind="degrade")

    def _device(self, guard, pipeline):
        """The visitors' ``device`` hook: every pipeline call goes through
        the recovery ladder; the residency builds get the rebuild rung."""
        #: residency builds: method -> (op, phase it builds, rung label)
        builds = {
            "allocate_forward": (pipeline.allocate_forward, "forward", "allocate"),
            "swap_to_backward": (lambda: _swap(pipeline), "backward", "swap"),
        }

        def device(method: str, phase: str, **kwargs) -> None:
            if method in builds:
                op, target, label = builds[method]
                guard.rebuild(
                    lambda: guard.run(method, op, pipeline, phase,
                                      reset=pipeline.drop_residency),
                    target, label, f"{label} restarted",
                )
            elif method == "finalize":
                self._finalize(guard, pipeline, phase, kwargs["with_image"])
            else:
                guard.run(
                    method, lambda: getattr(pipeline, method)(**kwargs),
                    pipeline, phase,
                )

        return device

    def _walk(self, shot, guard, pipeline) -> None:
        """Walk the shot's schedule with a checkpoint store per loop; a
        restart restores the loop's propagator and accumulated arrays."""
        config = self.config

        def store() -> CheckpointStore:
            return CheckpointStore(
                config.nt, self.checkpoint_period, self.checkpoint_budget
            )

        ckpts = {"forward": store()}
        self.checkpoints = ckpts["forward"]
        if shot.mode == "rtm":
            ckpts["backward"] = self.backward_checkpoints = store()

        def state(loop: str):
            """The propagator and accumulated arrays ``loop`` checkpoints."""
            if loop == "forward":
                extra = {"illum": shot.illum} if shot.mode == "rtm" else {}
                return shot.prop, extra
            return shot.bwd, {"image": shot.image}

        def begin(loop: str, it: int) -> None:
            if ckpts[loop].is_checkpoint_step(it):
                prop, arrays = state(loop)
                ckpts[loop].save(it, {
                    "prop": prop.capture_state(),
                    **{k: a.copy() for k, a in arrays.items()},
                })

        def restart(exc, loop: str, it: int) -> int:
            prop, arrays = state(loop)

            def restore(saved: dict) -> None:
                prop.restore_state(saved["prop"])
                for k, a in arrays.items():
                    a[...] = saved[k]

            return guard.restart(exc, ckpts[loop], loop, it, restore)

        _walk_checkpointed(
            figure4(shot.mode, config.nt, shot.snap_period),
            shot.visit(), begin, restart,
        )

    # ------------------------------------------------------------------
    def run_modeling(self) -> ModelingResult:
        return self._run(ShotVisitor(self.config))

    def run_rtm(self) -> RTMResult:
        if not isinstance(self.config, RTMConfig):
            raise ConfigurationError("run_rtm needs an RTMConfig")
        return self._run(RtmVisitor(self.config))


def _swap(pipeline: OffloadPipeline) -> None:
    """The guarded swap. A retry after a teardown re-enters from idle:
    rebuild the forward residency, then swap — same end state as one
    swap."""
    if pipeline.phase == "idle":
        pipeline.restore_residency("backward")
    else:
        pipeline.swap_to_backward()


def _walk_checkpointed(events, visit, begin, restart) -> None:
    """Walk ``events`` with checkpoints at loop-iteration boundaries.

    ``begin(loop, iteration)`` runs before the first event of every loop
    iteration (see :func:`~repro.core.schedule.loop_positions`). A
    :class:`_RestartNeeded` raised by a loop event calls ``restart(exc,
    loop, iteration)``, which restores a checkpoint and returns the
    iteration it holds: the cursor rewinds to that iteration's first
    event.
    """
    positions = loop_positions(events)
    first: dict[tuple[str, int], int] = {}
    for i, event in enumerate(events):
        if event in positions:
            first.setdefault(positions[event], i)
    current = None

    def entering(phase: str, handler):
        def run(step) -> None:
            nonlocal current
            loop, it = pos = positions[(phase, step)]
            if pos != current:
                current = pos
                begin(loop, it)
            try:
                handler(step)
            except _RestartNeeded as exc:
                current = None
                raise Rewind(first[(loop, restart(exc, loop, it))]) from exc

        return run

    walk(events, {
        phase: entering(phase, handler) if phase in REPEATED_PHASES else handler
        for phase, handler in visit.items()
    })


class ResilientMultiGpu:
    """Fault-tolerant decomposed run over :class:`MultiGpuPipeline`.

    Each rank carries a *real* host field (the decomposed scatter of a
    seeded global field) advanced by a deterministic, halo-dependent
    axis-0 smoothing stencil each step — deliberately simple physics whose
    answer is provably wrong if a ghost exchange is lost and not recovered.
    The per-rank device pipelines and the MPI world run the full
    instrumented schedule, so every fault kind (device *and* message) has a
    real injection surface, and recovery must reproduce the fault-free
    gathered field exactly.

    Degradation ladder additions over the single-card wrapper: a dead rank
    gathers the global state from the surviving host copies, re-decomposes
    onto ``ngpus - 1`` cards, and continues the same step.
    """

    def __init__(
        self,
        physics: str,
        shape: tuple[int, ...],
        ngpus: int,
        platform: Platform = CRAY_K40,
        options: GPUOptions | None = None,
        injector: FaultInjector | None = None,
        plan=None,
        backoff: BackoffPolicy | None = None,
        checkpoint_period: int | None = None,
        max_restarts: int = 4,
        seed: int = 1234,
        space_order: int = 8,
        boundary_width: int = 16,
        tracer=None,
    ):
        if ngpus < 1:
            raise ConfigurationError("ngpus must be >= 1")
        self.physics = physics.lower()
        self.shape = tuple(int(x) for x in shape)
        self.ngpus = int(ngpus)
        self.platform = platform
        self.options = options if options is not None else GPUOptions()
        if injector is None:
            injector = FaultInjector(plan, tracer=tracer)
        self.injector = injector
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.checkpoint_period = checkpoint_period
        self.max_restarts = int(max_restarts)
        self.space_order = int(space_order)
        self.boundary_width = int(boundary_width)
        self.tracer = tracer
        self.stats = RecoveryStats()
        rng = np.random.default_rng(seed)
        self.global_field = rng.standard_normal(self.shape).astype(np.float32)
        self.image: np.ndarray | None = None
        self.mgp: MultiGpuPipeline | None = None
        #: device seconds retired by torn-down pipelines (a re-decompose
        #: builds fresh cards with fresh clocks; the node's timeline must
        #: not forget the work the lost configuration already did)
        self._retired_device_s = 0.0
        self._build(self.ngpus)

    # ------------------------------------------------------------------
    def device_seconds(self) -> float:
        """Total simulated device seconds this node has consumed, across
        every re-decomposition (the serve layer's node-time charge)."""
        return self._retired_device_s + self.mgp.makespan_s()

    def _build(self, ngpus: int) -> None:
        if self.mgp is not None:
            self._retired_device_s += self.mgp.makespan_s()
        self.ngpus = ngpus
        self.mgp = MultiGpuPipeline(
            self.physics,
            self.shape,
            ngpus,
            platform=self.platform,
            options=self.options,
            space_order=self.space_order,
            boundary_width=self.boundary_width,
            injector=self.injector,
        )
        self._scatter()

    def _scatter(self) -> None:
        for rc in self.mgp.ranks:
            rc.host_field[...] = rc.sub.scatter(self.global_field)

    def _gather(self) -> None:
        for rc in self.mgp.ranks:
            rc.sub.gather_into(self.global_field, rc.host_field)

    def _clock(self):
        """Rank 0's device clock, the one recovery is charged to."""
        return self.mgp.ranks[0].pipe.rt.device.clock

    # ------------------------------------------------------------------
    # the host physics: deterministic, halo-dependent axis-0 smoothing
    # ------------------------------------------------------------------
    @staticmethod
    def reference_step(g: np.ndarray) -> np.ndarray:
        """The global-domain update one :meth:`_local_step` sweep equals
        when every halo is fresh (used by tests as the decomposition-free
        oracle)."""
        pad = [(1, 1)] + [(0, 0)] * (g.ndim - 1)
        p = np.pad(g, pad, mode="edge")
        return (0.25 * p[:-2] + 0.5 * p[1:-1] + 0.25 * p[2:]).astype(np.float32)

    def _local_step(self) -> None:
        h = self.mgp.decomp.halo
        for rc in self.mgp.ranks:
            a = rc.host_field
            # physical-edge halos replicate the current edge plane (what the
            # global rule's edge padding sees); exchanged halos were filled
            # by the previous ghost swap
            if not rc.sub.halo.lo[0]:
                a[:h] = a[h]
            if not rc.sub.halo.hi[0]:
                a[-h:] = a[-h - 1]
            n0 = a.shape[0]
            core = (
                0.25 * a[h - 1:n0 - h - 1]
                + 0.5 * a[h:n0 - h]
                + 0.25 * a[h + 1:n0 - h + 1]
            ).astype(np.float32)
            a[h:n0 - h] = core

    # ------------------------------------------------------------------
    def _exchange(self, guard: _Guard, name: str) -> None:
        """One guarded ghost swap: a failed exchange flushes the world and
        retries wholesale (owned cells are untouched by the exchange, so
        the retry converges on exactly the clean ghost state)."""
        attempt = 0
        while True:
            try:
                self.mgp.exchange(name)
                return
            except (CommunicationError,) + _TRANSIENT as exc:
                attempt = guard.retry(
                    "exchange", attempt, exc,
                    lambda: f"flushed {self.mgp.mpi.flush()}",
                )

    def _reside(self, phase: str) -> None:
        for rc in self.mgp.ranks:
            rc.pipe.drop_residency()
        for rc in self.mgp.ranks:
            rc.pipe.restore_residency(phase)

    def _restore(self, state: dict) -> None:
        """Put a checkpoint's global state back on every rank's host slab
        (in-flight messages belong to the abandoned timeline)."""
        self.global_field[...] = state["global"]
        if self.image is not None and "image" in state:
            self.image[...] = state["image"]
        self.mgp.mpi.flush()
        self._scatter()

    def _redecompose(self, guard: _Guard, exc: DeviceLostError, phase: str) -> None:
        """The dead-rank rung: the card is gone but every host slab is
        intact — gather, rebuild on the survivors, scatter, re-upload.
        Recovery is charged to the new rank 0's clock from here on."""
        if self.ngpus <= 1:
            raise exc  # nothing left to decompose onto
        self.stats.detected += 1
        old = self.ngpus
        with guard._span(
            "redecompose", from_ranks=old, to_ranks=old - 1, error=str(exc),
        ):
            self._gather()
            self.injector.resolve(RANK_DEAD)
            self._build(old - 1)
            guard.clock = self._clock()
            for rc in self.mgp.ranks:
                rc.pipe.restore_residency(phase)
        action = f"re-decompose:{old}->{old - 1}"
        self.stats.degraded.append(action)
        self.stats.note(f"{action} after rank loss", kind="degrade")

    # ------------------------------------------------------------------
    def run(self, nt: int, snap_period: int, mode: str = "modeling") -> np.ndarray:
        """Run ``nt`` decomposed steps (plus a backward imaging phase for
        ``mode='rtm'``); returns the final gathered global field
        (modeling) or the accumulated image (rtm)."""
        if mode not in ("modeling", "rtm"):
            raise ConfigurationError(f"unknown mode '{mode}'")
        period = self.checkpoint_period
        if period is None:
            period = max(1, nt // 4)
        ckpts = {"forward": CheckpointStore(nt, period), "backward": CheckpointStore(nt, period)}
        store = SnapshotStore(snap_period) if mode == "rtm" else None
        guard = _Guard(
            self.injector, self.backoff, self.stats, self.tracer, self._clock(),
            "modeling", self.max_restarts, self._reside,
        )

        def begin(loop: str, it: int) -> None:
            if ckpts[loop].is_checkpoint_step(it):
                self._gather()
                state = {"global": self.global_field.copy()}
                if loop == "backward":
                    state["image"] = self.image.copy()
                ckpts[loop].save(it, state)

        def restart(exc, loop: str, it: int) -> int:
            return guard.restart(exc, ckpts[loop], loop, it, self._restore)

        def on_ranks(label: str, phase: str, op, reset: bool = False) -> None:
            for rc in self.mgp.ranks:
                guard.run(
                    label, lambda p=rc.pipe: op(p), rc.pipe, phase,
                    reset=rc.pipe.drop_residency if reset else None,
                )

        def build(label: str, start: str, phase: str, op) -> None:
            """A residency-building sweep from ``start`` to ``phase``."""
            guard.rebuild(
                lambda: on_ranks(label, start, op, reset=True),
                phase, phase, f"{phase} residency restarted",
            )

        def sweep(method: str, phase: str, exchanged: str) -> None:
            """One host step, one device step per card, one ghost swap."""
            self._local_step()
            for rc in list(self.mgp.ranks):
                try:
                    guard.run(method, getattr(rc.pipe, method), rc.pipe, phase)
                except DeviceLostError as exc:
                    self._redecompose(guard, exc, phase)
                    raise _RestartNeeded(exc)
            self._exchange(guard, exchanged)

        def snapshot(n: int) -> None:
            if store is not None:
                self._gather()
                store.save(n, self.global_field.copy())

        def swap(_) -> None:
            self._gather()
            build("swap_to_backward", "forward", "backward", _swap)
            self.image = np.zeros(self.shape, dtype=np.float32)
            # deterministic backward seed: the time-reverse starts from the
            # final forward state, halved
            self.global_field[...] = 0.5 * self.global_field
            self._scatter()

        def backward(n: int) -> None:
            sweep("backward_step", "backward", self.mgp._backward_name())
            if store.has(n):
                self._gather()
                self.image += store.load(n) * self.global_field

        def finalize(_) -> None:
            if mode == "modeling":
                self._gather()
                on_ranks("finalize", "forward", lambda p: p.finalize(with_image=False))
            else:
                on_ranks(
                    "finalize", "backward",
                    lambda p: p.finalize(with_image=p.options.image_on_gpu),
                )

        _walk_checkpointed(figure4(mode, nt, snap_period), {
            "allocate": lambda _: build(
                "allocate_forward", "idle", "forward",
                lambda p: p.allocate_forward(),
            ),
            "forward": lambda _: sweep("forward_step", "forward", self.mgp.primary),
            "snapshot": snapshot,
            "swap": swap,
            "load_snapshot": lambda _: None,
            "imaging": lambda _: None,
            "backward": backward,
            "finalize": finalize,
        }, begin, restart)
        return self.global_field.copy() if mode == "modeling" else self.image.copy()


__all__ = [
    "BackoffPolicy",
    "CheckpointStore",
    "RecoveryStats",
    "ResilientPipeline",
    "ResilientMultiGpu",
]
