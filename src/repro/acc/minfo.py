"""Compiler feedback messages — the ``-Minfo=accel`` experience.

The paper's best PGI strategy includes ``-Minfo=accel,loop,opt``; the
messages that flag emits (is the loop parallelizable? what got collapsed?
how many registers? was the body gridified?) are how the authors debugged
their mappings. :func:`minfo` renders the same kind of report from a
persona's lowering decision, so users of the simulated toolchain get the
same feedback loop.
"""

from __future__ import annotations

from repro.acc.clauses import CompileFlags, LoopSchedule
from repro.acc.compiler import CompilerPersona
from repro.gpusim.kernelmodel import estimate_register_demand
from repro.gpusim.specs import GPUSpec, K40
from repro.propagators.base import KernelWorkload


def minfo(
    persona: CompilerPersona,
    construct: str,
    workload: KernelWorkload,
    schedule: LoopSchedule | None = None,
    flags: CompileFlags | None = None,
    spec: GPUSpec = K40,
) -> list[str]:
    """Compiler-style diagnostics for one construct lowering.

    Returns the message lines (also suitable for printing verbatim); the
    wording follows PGI's accelerator-information style for PGI personas
    and CCE's loopmark style for CRAY.
    """
    schedule = schedule if schedule is not None else LoopSchedule.auto()
    flags = flags if flags is not None else CompileFlags()
    cfg = persona.lower(construct, workload, schedule, flags)
    demand = estimate_register_demand(workload)
    allocated = min(demand, flags.maxregcount or spec.max_regs_per_thread,
                    spec.max_regs_per_thread)
    msgs: list[str] = []
    name = workload.name
    if persona.vendor == "pgi":
        msgs.append(f"{name}:")
        if workload.has_branches and not persona.gridifies_branchy_bodies:
            msgs.append(
                "     Loop carried control flow prevents gridification; "
                "generating sequential inner loop"
            )
        elif schedule.independent or schedule.explicit:
            msgs.append("     Loop is parallelizable")
        else:
            msgs.append(
                "     Complex loop carried dependence: parallelization "
                "requires the independent clause"
            )
        msgs.append(f"     Accelerator kernel generated ({spec.name})")
        if cfg.gridified and cfg.collapsed_levels >= 2:
            msgs.append(
                f"     {cfg.collapsed_levels} innermost loops collapsed into "
                f"a {min(cfg.collapsed_levels, 2)}-D thread grid"
            )
        msgs.append(
            f"     gang, vector({cfg.threads_per_block}) "
            f"/* blockIdx.x threadIdx.x */"
        )
        msgs.append(f"     {allocated} registers used (demand {demand})")
        if allocated < demand and demand > spec.max_regs_per_thread:
            msgs.append(
                f"     {demand - spec.max_regs_per_thread} registers spilled "
                "to local memory"
            )
        if not (cfg.coalesced and workload.inner_contiguous):
            msgs.append(
                "     Non-stride-1 accesses detected on the vector loop; "
                "memory coalescing degraded"
            )
    else:  # CRAY loopmark style
        tag = "G" if cfg.gridified else "g"
        v = "V" if (cfg.coalesced and workload.inner_contiguous) else "v"
        msgs.append(f"{tag}{v}---- < {name} >")
        if schedule.explicit:
            msgs.append(
                f"       A loop starting at line 1 was partitioned: gang, "
                f"worker, vector({cfg.threads_per_block})"
            )
        else:
            msgs.append(
                "       Autothreading selected a vector loop heuristically; "
                "consider an explicit gang/worker/vector schedule"
            )
        if persona.auto_async_kernels and cfg.async_queue is None:
            msgs.append(
                "       auto_async_kernels: kernel will be placed on an "
                "asynchronous queue"
            )
        msgs.append(f"       registers: {allocated} (demand {demand})")
    return msgs
