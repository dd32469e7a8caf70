"""Compiler personas: how PGI and CRAY lower the same directives.

The paper's Section 5.2 catalogues the asymmetry this module encodes:

* **PGI** — "it was more efficient to use the *kernels* directive to allow
  the compiler to handle the existing worksharing ... the loop *independent*
  scheduling in PGI triggers gridification in kernels regions, and 2D
  gridification requires perfectly nested loops". A ``parallel`` region
  without a full explicit schedule maps gangs to the outer loop only.
  PGI 14.3 (CUDA 5.0 backend) cannot gridify a branchy body — the
  restructured/PML-everywhere variants win big (Figure 7); PGI 14.6
  (CUDA 5.5) predicates branches, so the rewrite no longer pays (Figure 6).
  PGI could not inline the receiver-injection routine, and its async
  enqueue path is expensive enough that async *hurts* ("PGI compilers gave
  a worst performance ... when async was used").
* **CRAY** — "the more information you pass to the compiler, the better
  performance you get": ``parallel`` with explicit gang/worker/vector is
  best; bare ``kernels`` lets the compiler pick which loop to vectorize and
  it often picks a non-contiguous one (Figures 8-9). CRAY inlines routines
  and enables ``auto_async_kernels`` by default (the 30 % Figure 11 win).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acc.clauses import CompileFlags, LoopSchedule
from repro.gpusim.kernelmodel import LaunchConfig
from repro.gpusim.specs import CUDA_5_0, CUDA_5_5, CudaToolkit
from repro.propagators.base import KernelWorkload
from repro.utils.errors import ConfigurationError

_CONSTRUCTS = ("kernels", "parallel")

#: the defaults of an unspecified schedule / flags argument
_AUTO_SCHEDULE = LoopSchedule.auto()
_DEFAULT_FLAGS = CompileFlags()
#: the schedules the paper found best: kernels + independent, letting PGI
#: do the worksharing; explicit gang/worker/vector for CRAY
_PGI_SCHEDULE = LoopSchedule(independent=True, vector_length=128)
_CRAY_SCHEDULE = LoopSchedule.gwv(vector_length=128)

#: CompilerPersona.lower's memo: key -> LaunchConfig
_LOWERED: dict[tuple, LaunchConfig] = {}


@dataclass(frozen=True)
class CompilerPersona:
    """One compiler version's lowering behaviour."""

    name: str
    vendor: str  # 'pgi' | 'cray'
    version: tuple[int, ...]
    default_toolkit: CudaToolkit
    #: whether `acc routine` bodies can be inlined into calling kernels
    #: (CRAY yes, PGI no — the paper's receiver-injection finding)
    supports_inlining: bool
    #: multiplier on the async enqueue cost (PGI's async path is expensive)
    async_enqueue_factor: float
    #: queue kernels asynchronously even without an async clause
    auto_async_kernels: bool
    #: can the backend gridify a loop nest whose body branches?
    gridifies_branchy_bodies: bool
    #: configurations this compiler version cannot build (the paper's
    #: Table 4 marks elastic-3D RTM 'x' under the CRAY compiler)
    known_failures: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def lower(
        self,
        construct: str,
        workload: KernelWorkload,
        schedule: LoopSchedule | None = None,
        flags: CompileFlags | None = None,
        async_queue: int | None = None,
    ) -> LaunchConfig:
        """Map a compute construct + loop schedule onto a launch config.

        A pure function of values, memoised like
        :func:`~repro.gpusim.kernelmodel.estimate_kernel_time`: the key is
        the persona, the construct, the schedule, ``flags.maxregcount``,
        the queue and the workload fields the rules read (nest depth,
        ``has_branches``, ``inner_contiguous``). Errors are never memoised.
        """
        if construct not in _CONSTRUCTS:
            raise ConfigurationError(
                f"construct must be one of {_CONSTRUCTS}, got '{construct}'"
            )
        schedule = schedule if schedule is not None else _AUTO_SCHEDULE
        flags = flags if flags is not None else _DEFAULT_FLAGS
        key = (
            self,
            construct,
            schedule,
            flags.maxregcount,
            async_queue,
            len(workload.loop_dims),
            workload.has_branches,
            workload.inner_contiguous,
        )
        cfg = _LOWERED.get(key)
        if cfg is None:
            cfg = _LOWERED[key] = self._lower(
                construct, workload, schedule, flags, async_queue
            )
        return cfg

    def _lower(
        self,
        construct: str,
        workload: KernelWorkload,
        schedule: LoopSchedule,
        flags: CompileFlags,
        async_queue: int | None,
    ) -> LaunchConfig:
        """The uncached body of :meth:`lower`."""
        if self.vendor == "pgi":
            cfg = self._lower_pgi(construct, workload, schedule)
        else:
            cfg = self._lower_cray(construct, workload, schedule)
        return LaunchConfig(
            threads_per_block=cfg.threads_per_block,
            maxregcount=flags.maxregcount,
            coalesced=cfg.coalesced,
            gridified=cfg.gridified,
            collapsed_levels=cfg.collapsed_levels,
            async_queue=async_queue,
        )

    def _lower_pgi(
        self, construct: str, workload: KernelWorkload, schedule: LoopSchedule
    ) -> LaunchConfig:
        nlevels = len(workload.loop_dims)
        if construct == "kernels":
            # the generator collapses the two innermost loops into a 2-D
            # thread grid when the nest is perfect and iterations are
            # declared (or proven) independent
            gridified = schedule.independent or schedule.explicit
            if workload.has_branches and not self.gridifies_branchy_bodies:
                gridified = False
            return LaunchConfig(
                threads_per_block=schedule.vector_length,
                coalesced=workload.inner_contiguous,
                gridified=gridified,
                collapsed_levels=min(2, nlevels),
            )
        # parallel: gang-redundant unless fully scheduled; without an
        # explicit vector clause PGI maps gangs over the outer loop only
        if schedule.explicit:
            gridified = not (
                workload.has_branches and not self.gridifies_branchy_bodies
            )
            return LaunchConfig(
                threads_per_block=schedule.vector_length,
                coalesced=workload.inner_contiguous,
                gridified=gridified,
                collapsed_levels=min(schedule.collapse, nlevels),
            )
        return LaunchConfig(
            threads_per_block=128,
            coalesced=workload.inner_contiguous,
            gridified=False,
            collapsed_levels=1,
        )

    def _lower_cray(
        self, construct: str, workload: KernelWorkload, schedule: LoopSchedule
    ) -> LaunchConfig:
        nlevels = len(workload.loop_dims)
        if construct == "parallel" and schedule.explicit:
            # "vectorizing the innermost loop explicitly improved mapping"
            return LaunchConfig(
                threads_per_block=schedule.vector_length,
                coalesced=workload.inner_contiguous,
                gridified=True,
                collapsed_levels=min(max(schedule.collapse, 2), nlevels),
            )
        if construct == "parallel":
            # gangs on the outer i-loop; the heuristic "analyzes the j and k
            # loops to determine which loop looks most profitable to be
            # vectorized" — and which one wins "is completely dependent on
            # the code inside the loop"; for these stencil bodies it tends
            # to pick a non-unit-stride loop
            return LaunchConfig(
                threads_per_block=128,
                coalesced=False,
                gridified=True,
                collapsed_levels=1,
            )
        # kernels on CRAY: each nest becomes a kernel with auto scheduling;
        # same vectorization heuristic, so coalescing is again at risk
        return LaunchConfig(
            threads_per_block=128,
            coalesced=False,
            gridified=True,
            collapsed_levels=min(2, nlevels),
        )

    def preferred_construct(self) -> str:
        """The construct this compiler rewards (paper Section 5.2)."""
        return "kernels" if self.vendor == "pgi" else "parallel"

    def preferred_schedule(self) -> LoopSchedule:
        """The schedule the paper found best for this compiler."""
        return _PGI_SCHEDULE if self.vendor == "pgi" else _CRAY_SCHEDULE


#: PGI 13.7 — first version the authors used; CUDA 5.0 backend, no
#: branchy-body gridification, expensive async.
PGI_13_7 = CompilerPersona(
    name="PGI 13.7",
    vendor="pgi",
    version=(13, 7),
    default_toolkit=CUDA_5_0,
    supports_inlining=False,
    async_enqueue_factor=8.0,
    auto_async_kernels=False,
    gridifies_branchy_bodies=False,
)

#: PGI 14.3 — defaults to CUDA 5.0; the version whose Figure 7 shows big
#: wins from removing the PML if-statements.
PGI_14_3 = CompilerPersona(
    name="PGI 14.3",
    vendor="pgi",
    version=(14, 3),
    default_toolkit=CUDA_5_0,
    supports_inlining=False,
    async_enqueue_factor=8.0,
    auto_async_kernels=False,
    gridifies_branchy_bodies=False,
)

#: PGI 14.6 — defaults to CUDA 5.5, whose predicating backend makes the
#: Figure 6 restructuring wins vanish.
PGI_14_6 = CompilerPersona(
    name="PGI 14.6",
    vendor="pgi",
    version=(14, 6),
    default_toolkit=CUDA_5_5,
    supports_inlining=False,
    async_enqueue_factor=8.0,
    auto_async_kernels=False,
    gridifies_branchy_bodies=True,
)

#: CRAY CCE 8.2.6 on the XC30 — inlines routines, auto_async_kernels on.
CRAY_8_2_6 = CompilerPersona(
    name="CRAY 8.2.6",
    vendor="cray",
    version=(8, 2, 6),
    default_toolkit=CUDA_5_5,
    supports_inlining=True,
    async_enqueue_factor=1.0,
    auto_async_kernels=True,
    gridifies_branchy_bodies=True,
    known_failures=("elastic-3d-rtm",),
)

COMPILERS = {
    "pgi-13.7": PGI_13_7,
    "pgi-14.3": PGI_14_3,
    "pgi-14.6": PGI_14_6,
    "cray-8.2.6": CRAY_8_2_6,
}


def compiler_named(name: str) -> CompilerPersona:
    """The persona a ``--compiler`` value names (a key of :data:`COMPILERS`)."""
    try:
        return COMPILERS[name]
    except KeyError:
        known = ", ".join(sorted(COMPILERS))
        raise ConfigurationError(
            f"unknown compiler '{name}' (expected one of: {known})"
        ) from None
