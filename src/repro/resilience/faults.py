"""The shared fault vocabulary: typed, seeded, deterministic fault specs.

Production RTM runs for hours across cards and ranks; the faults that kill
surveys are not exotic — a PCIe transfer that times out, a kernel launch
that fails, an uncorrectable ECC event, a mid-run device OOM at the
Figure-4 swap, or a halo message that never arrives. This module gives each
of those a *typed spec* so every layer of the stack (gpusim, acc, mpisim,
the sanitizer's exchange-protocol knobs and the chaos CLI) speaks exactly
one fault language.

Determinism is the design center: a :class:`FaultPlan` is a pure function
of its seed and specs. Faults fire on the *N-th eligible operation* of
their category (transfers, launches, allocations, messages), counted by the
injector — never on wall time — so identical seeds reproduce identical
injection points, recovery actions and reports.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from repro.utils.errors import ConfigurationError

# ---------------------------------------------------------------------------
# fault kinds
# ---------------------------------------------------------------------------

#: transient PCIe DMA failure: the retried transfer succeeds
PCIE_TRANSIENT = "pcie-transient"
#: permanent PCIe link fault: every transfer fails until a restart-level
#: recovery resets the link
PCIE_PERMANENT = "pcie-permanent"
#: kernel launch failure (cudaErrorLaunchFailure): relaunch succeeds
KERNEL_LAUNCH = "kernel-launch"
#: uncorrectable (double-bit) ECC event: device data corrupt, retry is not
#: enough — recovery must restore device state from a checkpoint
ECC = "ecc"
#: mid-run DeviceOutOfMemoryError at an allocation site
OOM = "oom"
#: the card falls off the bus for good (decomposed runs re-decompose)
RANK_DEAD = "rank-dead"
#: MPI message dropped in flight (receiver starves)
MPI_DROP = "mpi-drop"
#: MPI message duplicated (a stale extra copy stays queued)
MPI_DUP = "mpi-dup"
#: MPI message delayed past the superstep that needed it
MPI_DELAY = "mpi-delay"
#: exchange-protocol hazards (PR 4's ExchangeProtocol knobs, promoted):
#: the MPI send packs a host buffer no ``update host`` refreshed
HALO_STALE_HOST = "halo-stale-host"
#: the received ghost slab never reaches the card
HALO_STALE_DEVICE = "halo-stale-device"
#: the send races the asynchronous ``update host`` still filling the face
HALO_SEND_BEFORE_SYNC = "halo-send-before-sync"
#: a poisoned *shot*: the job itself fails on every node it lands on
#: (corrupt trace headers, NaN source wavelet). Injected at the service
#: layer (:mod:`repro.serve`) — it has no device category, so the
#: operation-level injector ignores it; ``rank`` names the shot index.
SHOT_POISON = "shot-poison"

#: every kind, in canonical order
ALL_KINDS = (
    PCIE_TRANSIENT,
    PCIE_PERMANENT,
    KERNEL_LAUNCH,
    ECC,
    OOM,
    RANK_DEAD,
    MPI_DROP,
    MPI_DUP,
    MPI_DELAY,
    HALO_STALE_HOST,
    HALO_STALE_DEVICE,
    HALO_SEND_BEFORE_SYNC,
    SHOT_POISON,
)

#: kinds injected through device operations (any rank count)
DEVICE_KINDS = (PCIE_TRANSIENT, PCIE_PERMANENT, KERNEL_LAUNCH, ECC, OOM)
#: kinds that need a message-passing world (ranks > 1)
MPI_KINDS = (MPI_DROP, MPI_DUP, MPI_DELAY)
#: protocol-hazard kinds consumed by the sanitizer's ExchangeProtocol
PROTOCOL_KINDS = (HALO_STALE_HOST, HALO_STALE_DEVICE, HALO_SEND_BEFORE_SYNC)

#: kinds whose fault persists across retries of the same operation
PERMANENT_KINDS = (PCIE_PERMANENT, RANK_DEAD)

#: accepted spellings from other tools' vocabularies, normalised on parse
#: (operators arrive with MPI-flavoured names for the same failure)
KIND_ALIASES = {
    "mpi-rank-dead": RANK_DEAD,
    "dead-rank": RANK_DEAD,
    "node-dead": RANK_DEAD,
    "poison-shot": SHOT_POISON,
}

#: injection category counted by the injector, per kind
CATEGORY = {
    PCIE_TRANSIENT: "transfer",
    PCIE_PERMANENT: "transfer",
    KERNEL_LAUNCH: "launch",
    ECC: "launch",
    RANK_DEAD: "launch",
    OOM: "alloc",
    MPI_DROP: "message",
    MPI_DUP: "message",
    MPI_DELAY: "message",
}


def is_permanent(kind: str) -> bool:
    return kind in PERMANENT_KINDS


# ---------------------------------------------------------------------------
# specs and plans
# ---------------------------------------------------------------------------

# the op digits are optional after ``@`` so spellings like
# ``rank-dead@x2`` (explicit default op, repeated twice) stay parseable
_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z][a-z0-9-]*)"
    r"(?:@(?P<op>\d+)?)?"
    r"(?:x(?P<count>\d+))?"
    r"(?::(?P<rank>\d+))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One typed fault to inject.

    Attributes
    ----------
    kind:
        One of :data:`ALL_KINDS`.
    op_index:
        1-based index of the eligible operation (within the kind's
        category, per matching rank) on which the fault first fires.
        Protocol kinds ignore it (they describe a standing misprotocol,
        not a point event).
    count:
        How many consecutive eligible operations fail, starting at
        ``op_index`` (transient kinds; ``count=2`` makes the first retry
        fail too). Permanent kinds fail every operation from ``op_index``
        until recovery resolves the spec.
    rank:
        Restrict to one rank's device/messages; ``None`` matches any rank.
    """

    kind: str
    op_index: int = 1
    count: int = 1
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigurationError(
                f"unknown fault kind '{self.kind}' "
                f"(expected one of: {', '.join(ALL_KINDS)})"
            )
        if self.op_index < 1:
            raise ConfigurationError("op_index is 1-based (must be >= 1)")
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")

    @property
    def category(self) -> str | None:
        return CATEGORY.get(self.kind)

    def spec_string(self) -> str:
        s = self.kind
        if self.op_index != 1:
            s += f"@{self.op_index}"
        if self.count != 1:
            s += f"x{self.count}"
        if self.rank is not None:
            s += f":{self.rank}"
        return s


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one ``kind[@op][xcount][:rank]`` token, e.g.
    ``pcie-transient@40x2`` or ``rank-dead@9:1``. Alias spellings from
    :data:`KIND_ALIASES` (``mpi-rank-dead``, ...) normalise to their
    canonical kind, and the op digits may be omitted after ``@``."""
    m = _SPEC_RE.match(text.strip().lower())
    if m is None:
        raise ConfigurationError(
            f"malformed fault spec '{text}' "
            "(expected kind[@op][xcount][:rank], e.g. 'ecc@12' or "
            "'mpi-drop@3:1')"
        )
    kind = m.group("kind")
    return FaultSpec(
        kind=KIND_ALIASES.get(kind, kind),
        op_index=int(m.group("op") or 1),
        count=int(m.group("count") or 1),
        rank=None if m.group("rank") is None else int(m.group("rank")),
    )


def parse_faults(text: str) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated ``--faults`` argument."""
    tokens = [t for t in (p.strip() for p in text.split(",")) if t]
    if not tokens:
        raise ConfigurationError("empty fault spec list")
    return tuple(parse_fault_spec(t) for t in tokens)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of fault specs — the unit the chaos
    CLI runs and the injector arms. Equal (seed, specs) produce equal
    injection behaviour by construction."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def spec_string(self) -> str:
        return ",".join(s.spec_string() for s in self.specs)

    @classmethod
    def seeded(
        cls,
        seed: int,
        kinds: tuple[str, ...],
        op_counts: dict[str, int],
        ranks: int = 1,
    ) -> "FaultPlan":
        """Draw one spec per kind, its op index uniform over the observed
        operation count of that kind's category (from a fault-free counting
        run), its rank uniform over the world. Pure function of the
        arguments — the chaos harness's campaign generator."""
        rng = random.Random(seed)
        specs = []
        for kind in kinds:
            cat = CATEGORY.get(kind)
            if cat is None:  # protocol kinds: standing hazards, no op index
                specs.append(FaultSpec(kind))
                continue
            n = max(1, int(op_counts.get(cat, 1)))
            op = rng.randint(1, n)
            rank = rng.randrange(ranks) if ranks > 1 else None
            specs.append(FaultSpec(kind, op_index=op, rank=rank))
        return cls(seed=seed, specs=tuple(specs))


# ---------------------------------------------------------------------------
# fault events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One fired injection, as recorded by the injector."""

    kind: str
    category: str
    op_index: int
    rank: int | None = None
    target: str = ""
    detail: dict = field(default_factory=dict)

    def label(self) -> str:
        where = f" rank {self.rank}" if self.rank is not None else ""
        tgt = f" on '{self.target}'" if self.target else ""
        return f"{self.kind}@{self.category}#{self.op_index}{where}{tgt}"


__all__ = [
    "PCIE_TRANSIENT", "PCIE_PERMANENT", "KERNEL_LAUNCH", "ECC", "OOM",
    "RANK_DEAD", "MPI_DROP", "MPI_DUP", "MPI_DELAY",
    "HALO_STALE_HOST", "HALO_STALE_DEVICE", "HALO_SEND_BEFORE_SYNC",
    "SHOT_POISON",
    "ALL_KINDS", "DEVICE_KINDS", "MPI_KINDS", "PROTOCOL_KINDS",
    "PERMANENT_KINDS", "CATEGORY", "KIND_ALIASES", "is_permanent",
    "FaultSpec", "FaultPlan", "FaultEvent",
    "parse_fault_spec", "parse_faults",
]
