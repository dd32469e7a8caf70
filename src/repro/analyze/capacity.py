"""Static device-capacity prover over the event IR.

Abstract-interprets a :class:`~repro.analyze.program.DirectiveProgram`'s
``enter``/``exit`` lifetime events into a per-phase device-residency
high-water mark — the same 256-byte-aligned accounting
:class:`~repro.gpusim.memory.DeviceMemory` performs, so the proven peak
matches what ``gpu.peak_bytes`` will observe, bit for bit, before any
allocation happens. Two findings share the ``DF2xx`` registry
(:mod:`repro.analyze.rules`):

* ``DF210`` *device-over-capacity* — the proven peak exceeds the card's
  :attr:`~repro.gpusim.memory.DeviceMemory.usable_bytes`; the run would
  OOM, and the prover can refuse it statically (the paper's "forward and
  backward wave-field variables of RTM cannot be allocated at the same
  time" constraint, decided without allocating anything).
* ``DF211`` *checkpoint-spike* — the backward phase fits, but restoring a
  checkpointed state (:func:`~repro.core.checkpointing.plan_checkpoints`)
  stages one more full wavefield on top of the backward residency and
  that combined transient does not.

The second half prices register pressure/occupancy of fused kernels
(:func:`register_bound`, :func:`admissible_maxregcounts`) through the
same models the roofline uses (:mod:`repro.optim.tuning`), so the
compiler's fusion pricing and the autotuner's ``maxregcount`` search
consult *proven* bounds rather than re-deriving them per call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyze.framework import Diagnostic
from repro.analyze.program import AccEvent, DirectiveProgram
from repro.analyze.rules import rule
from repro.gpusim.memory import _aligned
from repro.gpusim.specs import CUDA_5_0, CudaToolkit, GPUSpec
from repro.utils.units import bytes_to_human

PASS_NAME = "capacity"


# ----------------------------------------------------------------------
# residency abstract interpretation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseResidency:
    """One phase's proven residency high-water mark."""

    phase: str
    high_water: int
    #: event index at which the phase peak is reached
    at_event: int
    #: live ``(name, aligned_bytes)`` pairs at the peak
    resident: tuple[tuple[str, int], ...]


@dataclass
class CapacityProof:
    """The prover's verdict for one program on one card."""

    peak_bytes: int = 0
    peak_event: int = -1
    resident_at_peak: tuple[tuple[str, int], ...] = ()
    #: event indices of the ``enter`` events whose allocations are live at
    #: the peak — the would-OOM witness chain
    witness: tuple[int, ...] = ()
    phases: list[PhaseResidency] = field(default_factory=list)
    usable_bytes: int | None = None
    device: str | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def fits(self) -> bool:
        return self.usable_bytes is None or self.peak_bytes <= self.usable_bytes

    def phase_peak(self, phase: str) -> int:
        """High-water mark of every phase whose name contains ``phase``."""
        return max(
            (p.high_water for p in self.phases if phase in p.phase), default=0
        )

    def to_dict(self) -> dict:
        return {
            "peak_bytes": self.peak_bytes,
            "peak_event": self.peak_event,
            "usable_bytes": self.usable_bytes,
            "device": self.device,
            "fits": self.fits,
            "phases": [
                {"phase": p.phase, "high_water": p.high_water,
                 "at_event": p.at_event}
                for p in self.phases
            ],
            "resident_at_peak": [list(r) for r in self.resident_at_peak],
        }


def _released(event: AccEvent) -> tuple[str, ...]:
    """Names an ``exit`` event frees (``copyout`` implies delete)."""
    return tuple(dict.fromkeys(event.delete + event.copyout))


def prove_capacity(
    program: DirectiveProgram,
    usable_bytes: int | None = None,
    device: str | None = None,
    phase_of=None,
) -> CapacityProof:
    """Walk the program's lifetime events under the allocator's alignment
    and return the proven high-water marks (plus a ``DF210`` diagnostic
    when ``usable_bytes`` is given and the peak exceeds it).

    ``phase_of`` maps an event index to a phase name; by default the
    event's recorded ``label`` is used (the pipeline recorder stamps phase
    names there), falling back to ``"program"``.
    """
    if phase_of is None:
        def phase_of(idx: int) -> str:
            label = program.events[idx].label
            return label if label else "program"

    proof = CapacityProof(usable_bytes=usable_bytes, device=device)
    resident: dict[str, int] = {}
    alloc_event: dict[str, int] = {}
    used = 0
    phase_marks: dict[str, PhaseResidency] = {}
    for event in program.events:
        if event.kind == "enter":
            for name in event.copyin + event.create:
                if name in resident:
                    continue
                nbytes = _aligned(program.extents.get(name, 0))
                resident[name] = nbytes
                alloc_event[name] = event.index
                used += nbytes
        elif event.kind == "exit":
            for name in _released(event):
                used -= resident.pop(name, 0)
                alloc_event.pop(name, None)
        else:
            continue
        phase = phase_of(event.index)
        mark = phase_marks.get(phase)
        if mark is None or used > mark.high_water:
            phase_marks[phase] = PhaseResidency(
                phase, used, event.index, tuple(sorted(resident.items()))
            )
        if used > proof.peak_bytes:
            proof.peak_bytes = used
            proof.peak_event = event.index
            proof.resident_at_peak = tuple(sorted(resident.items()))
            proof.witness = tuple(sorted(set(alloc_event.values())))
    proof.phases = sorted(phase_marks.values(), key=lambda p: p.at_event)

    if usable_bytes is not None and proof.peak_bytes > usable_bytes:
        r = rule("device-over-capacity")
        top = ", ".join(
            f"{name}={bytes_to_human(nbytes)}"
            for name, nbytes in sorted(
                proof.resident_at_peak, key=lambda kv: -kv[1]
            )[:4]
        )
        proof.diagnostics.append(Diagnostic(
            pass_name=PASS_NAME,
            rule=r.static_rule,
            severity=r.severity,
            message=r.format(
                peak=proof.peak_bytes, detail=f"live: {top}",
                usable=usable_bytes, device=device or "device",
                idx=proof.peak_event,
            ),
            event_index=proof.peak_event,
            witness=proof.witness,
        ))
    return proof


def checkpoint_spike(
    proof: CapacityProof,
    state_bytes: int,
    nt: int,
    snap_period: int,
    budget: int | None = None,
) -> Diagnostic | None:
    """``DF211``: does the backward phase survive a checkpoint restore?

    Restoring a stored forward state stages one full wavefield
    (``state_bytes``) on top of the backward phase's proven residency; a
    plan that stores fewer states than it needs restores more often, so
    the spike is checked whenever the plan stores at least one state.
    Returns the warning diagnostic (also appended to the proof) or None.
    """
    from repro.core.checkpointing import plan_checkpoints

    if proof.usable_bytes is None:
        return None
    plan = plan_checkpoints(nt, snap_period, budget or max(1, nt // snap_period))
    if plan.stored == 0:
        return None
    base = proof.phase_peak("backward") or proof.peak_bytes
    spike = _aligned(state_bytes)
    total = base + spike
    if base <= proof.usable_bytes < total:
        r = rule("checkpoint-spike")
        diag = Diagnostic(
            pass_name=PASS_NAME,
            rule=r.static_rule,
            severity=r.severity,
            message=r.format(
                spike=spike, base=base,
                detail=(
                    f"{plan.stored}/{plan.nsnaps} states stored, "
                    f"recompute factor {plan.recompute_factor:.2f}"
                ),
                total=total, usable=proof.usable_bytes,
                device=proof.device or "device",
            ),
            event_index=proof.peak_event if proof.peak_event >= 0 else None,
            witness=proof.witness,
        )
        proof.diagnostics.append(diag)
        return diag
    return None


# ----------------------------------------------------------------------
# register-pressure / occupancy bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisterBound:
    """Proven launch bounds for one (possibly fused) kernel body."""

    kernel: str
    parts: tuple[str, ...]
    effective_maxregcount: int | None
    occupancy: float
    spilled_regs: int
    seconds: float

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "parts": list(self.parts),
            "effective_maxregcount": self.effective_maxregcount,
            "occupancy": self.occupancy,
            "spilled_regs": self.spilled_regs,
            "seconds": self.seconds,
        }


def register_bound(
    spec: GPUSpec,
    workloads: list,
    maxregcount: int | None = None,
    threads_per_block: int = 128,
    toolkit: CudaToolkit = CUDA_5_0,
) -> RegisterBound:
    """Occupancy/spill bound of launching ``workloads`` as one body.

    For two or more workloads the body is the merged fusion
    (:func:`~repro.optim.tuning.fused_launch_estimate` — summed address
    streams, so fusion can spill where the parts did not); a single
    workload is priced directly. The compiler attaches this to every
    applied fusion's record.
    """
    from repro.gpusim.kernelmodel import LaunchConfig, estimate_kernel_time
    from repro.optim.tuning import fused_launch_estimate

    if len(workloads) >= 2:
        est = fused_launch_estimate(
            spec, workloads, maxregcount=maxregcount,
            threads_per_block=threads_per_block, toolkit=toolkit,
        )
        return RegisterBound(
            kernel="+".join(w.name for w in workloads),
            parts=tuple(w.name for w in workloads),
            effective_maxregcount=est.effective_maxregcount,
            occupancy=est.fused.occupancy,
            spilled_regs=est.fused.spilled_regs,
            seconds=est.fused_seconds,
        )
    w = workloads[0]
    reg_eff = (
        min(maxregcount, spec.max_regs_per_thread)
        if maxregcount is not None else None
    )
    est = estimate_kernel_time(
        spec, w,
        LaunchConfig(threads_per_block=threads_per_block, maxregcount=reg_eff),
        toolkit,
    )
    return RegisterBound(
        kernel=w.name, parts=(w.name,),
        effective_maxregcount=reg_eff,
        occupancy=est.occupancy, spilled_regs=est.spilled_regs,
        seconds=est.seconds,
    )


def admissible_maxregcounts(
    spec: GPUSpec,
    workloads: list,
    candidates: tuple[int | None, ...] = (64, None),
    toolkit: CudaToolkit = CUDA_5_0,
    threads_per_block: int = 128,
) -> tuple[int | None, ...]:
    """Prune a ``maxregcount`` search space by proof, never by guess.

    A clamped candidate is dropped only when the model *proves* it both
    spills and is no faster than a surviving candidate — the bound the
    autotuner's search consults so it never probes a schedule the static
    model already refutes. At least one candidate always survives.
    """
    from repro.optim.tuning import register_sweep

    finite = [c for c in candidates if c is not None]
    if not finite or not workloads:
        return tuple(candidates)
    points = {
        p.maxregcount: p
        for p in register_sweep(
            spec, list(workloads), tuple(finite), toolkit, threads_per_block
        )
    }
    best_clean = min(
        (p.seconds for p in points.values() if p.spilled_regs == 0),
        default=None,
    )
    kept: list[int | None] = []
    for cand in candidates:
        p = points.get(cand) if cand is not None else None
        if (
            p is not None and best_clean is not None
            and p.spilled_regs > 0 and p.seconds >= best_clean
        ):
            continue
        kept.append(cand)
    return tuple(kept) if kept else tuple(candidates)


__all__ = [
    "PASS_NAME",
    "PhaseResidency",
    "CapacityProof",
    "prove_capacity",
    "checkpoint_spike",
    "RegisterBound",
    "register_bound",
    "admissible_maxregcounts",
]
