"""Fault injection, recovery and chaos testing for the simulated stack.

``repro.resilience`` closes the loop the ROADMAP's production-scale north
star leaves open: the stack *plans* checkpoints and *detects* hazards, but
nothing could survive a fault. This package injects typed, seeded faults
into every layer (PCIe, kernels, allocations, MPI messages), recovers
(retry with deterministic backoff, restart from an executed checkpoint,
degrade via re-planning or re-decomposition) and proves — per run — that
the recovered answer matches the fault-free one.

Layout
------
``faults``
    The shared fault vocabulary: :class:`FaultSpec`, :class:`FaultPlan`,
    parse helpers, kind constants.
``injector``
    :class:`FaultInjector` — arms a plan against the hooks threaded into
    :mod:`repro.gpusim`, :mod:`repro.acc` and :mod:`repro.mpisim`.
``recovery``
    :class:`ResilientPipeline` / :class:`ResilientMultiGpu` — the guarded
    execution wrappers, plus :class:`BackoffPolicy` and
    :class:`CheckpointStore`.
``chaos``
    Seeded campaign runner behind ``python -m repro chaos``.
``report``
    :class:`ResilienceReport` (text/JSON).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "faults": (
        "ALL_KINDS", "DEVICE_KINDS", "KIND_ALIASES", "MPI_KINDS", "PROTOCOL_KINDS", "SHOT_POISON",
        "FaultEvent", "FaultPlan", "FaultSpec", "parse_fault_spec", "parse_faults",
    ),
    "report": ("FaultOutcome", "ResilienceReport"),
    "injector": ("FaultInjector", "BoundInjector"),
    "recovery": (
        "BackoffPolicy", "CheckpointStore", "ResilientPipeline", "ResilientMultiGpu",
        "RecoveryStats",
    ),
    "chaos": ("run_chaos_case", "run_chaos_case_multigpu", "run_chaos_campaign"),
})
