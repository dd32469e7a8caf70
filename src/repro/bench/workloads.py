"""The 12 seismic cases (3 physics x 2 dimensions x {modeling, RTM}).

The paper does not publish its grid dimensions or step counts; these are
chosen so that (a) 2-D cases are small enough that launch overheads and
transfers matter (the paper's ~70 % 2-D GPU utilization vs ~90 % 3-D),
(b) the elastic 3-D working set exceeds the M2090's 6 GB but fits the K40
(the ``x`` cells of Tables 3-4), and (c) the acoustic 3-D RTM backward set
barely fits the M2090 — which is why the paper engineered the
forward/backward offload swap.

This module is also the one place that knows what a *seed case* is for
the command line: the ``iso2d`` spelling grammar, the short spellings in
table order, ``all`` / ``--mode both`` expansion, the reduced recording
grids and stencil order of the dry-run analyses, and the small
layered-model config of the executed smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class CaseSpec:
    """One seismic case's benchmark workload."""

    physics: str
    ndim: int
    shape: tuple[int, ...]
    nt: int
    snap_period: int
    nreceivers: int
    snapshot_decimate: int
    #: isotropic PML variant of the tuned build
    pml_variant: str = "restructured"

    @property
    def name(self) -> str:
        return f"{self.physics.upper()} {self.ndim}D"


_CASES: dict[tuple[str, int], CaseSpec] = {
    ("isotropic", 2): CaseSpec("isotropic", 2, (1024, 1024), 1000, 10, 128, 4),
    ("acoustic", 2): CaseSpec("acoustic", 2, (1024, 1024), 1000, 10, 128, 4),
    ("elastic", 2): CaseSpec("elastic", 2, (1024, 1024), 1000, 10, 128, 4),
    ("isotropic", 3): CaseSpec("isotropic", 3, (512, 512, 512), 1000, 10, 64, 4),
    ("acoustic", 3): CaseSpec("acoustic", 3, (512, 512, 512), 1000, 10, 64, 4),
    ("elastic", 3): CaseSpec("elastic", 3, (448, 448, 448), 1000, 10, 64, 4),
}

#: the paper's Table 3/4 row order
ALL_CASES: tuple[CaseSpec, ...] = (
    _CASES[("isotropic", 2)],
    _CASES[("acoustic", 2)],
    _CASES[("elastic", 2)],
    _CASES[("isotropic", 3)],
    _CASES[("acoustic", 3)],
    _CASES[("elastic", 3)],
)


def modeling_case(physics: str, ndim: int) -> CaseSpec:
    """Workload of one seismic case."""
    try:
        return _CASES[(physics.lower(), int(ndim))]
    except KeyError:
        raise ConfigurationError(
            f"no case for physics='{physics}', ndim={ndim}"
        ) from None


#: short physics spelling of each seed case (``iso2d``, ``ac3d``, ...)
_SHORT = {"isotropic": "iso", "acoustic": "ac", "elastic": "el"}

#: physics aliases accepted in case spellings: short or full names
_PHYSICS = {
    **{short: full for full, short in _SHORT.items()},
    **{full: full for full in _SHORT},
}

#: ``(physics, ndim)`` of the seed cases, in Table 3/4 row order
SEED_PAIRS: tuple[tuple[str, int], ...] = tuple(
    (c.physics, c.ndim) for c in ALL_CASES
)

#: short spellings of the seed cases, in Table 3/4 row order
SEED_CASES: tuple[str, ...] = tuple(
    f"{_SHORT[physics]}{ndim}d" for physics, ndim in SEED_PAIRS
)

#: reduced recording grids of the dry-run analyses (lint, sanitize, deps,
#: compile, validate) and of ``trace`` — the directive sequence does not
#: depend on the grid size, and the NumPy kernels finish in seconds
RECORD_SHAPES = {2: (96, 96), 3: (48, 48, 48)}

#: ``--mode both`` order; the values of :data:`repro.core.schedule.MODES`
#: (not imported: this module must not pull in :mod:`repro.core`)
MODES = ("modeling", "rtm")


def check_mode(mode: str) -> None:
    """Refuse a mode that is not one of :data:`MODES`."""
    if mode not in MODES:
        raise ConfigurationError(f"mode must be 'modeling' or 'rtm', not '{mode}'")


def check_rank_count(ranks: int) -> None:
    """Refuse a rank (simulated card) count below one."""
    if ranks < 1:
        raise ConfigurationError("ranks must be >= 1")


def space_order(ndim: int) -> int:
    """Stencil order of the reduced seed-case runs: 8 in 2-D, 4 in 3-D."""
    return 4 if ndim == 3 else 8


def parse_case(text: str) -> tuple[str, int]:
    """``'iso2d'`` -> ``('isotropic', 2)``; accepts short or full physics
    names with a ``2d``/``3d`` suffix."""
    t = text.strip().lower().replace("-", "").replace("_", "")
    ndim = None
    for suffix, n in (("2d", 2), ("3d", 3)):
        if t.endswith(suffix):
            t, ndim = t[: -len(suffix)], n
            break
    if ndim is None or t not in _PHYSICS:
        known = ", ".join(f"{p}{{2d,3d}}" for p in _SHORT.values())
        raise ConfigurationError(f"unknown case '{text}' (expected one of: {known})")
    return _PHYSICS[t], ndim


def is_all(case: str) -> bool:
    """Whether a CASE argument names the whole seed inventory (``all``,
    any letter case)."""
    return case.lower() == "all"


def expand_modes(mode: str) -> tuple[str, ...]:
    """``--mode`` -> the modes to run: ``both`` is modeling then rtm."""
    return MODES if mode == "both" else (mode,)


def case_targets(
    case: str | None, mode: str, command: str
) -> list[tuple[str, int, str]]:
    """Resolve ``CASE``/``all`` and ``--mode`` into ``(physics, ndim,
    mode)`` targets: ``all`` is every seed case in both modes (whatever
    ``--mode`` says); one case runs in the modes ``--mode`` names."""
    if case is None:
        raise ConfigurationError(
            f"{command} needs a CASE (or 'all', or --script FILE)"
        )
    if is_all(case):
        return [(p, n, m) for p, n in SEED_PAIRS for m in MODES]
    physics, ndim = parse_case(case)
    return [(physics, ndim, m) for m in expand_modes(mode)]


def small_case_config(physics: str, shape: tuple[int, ...], nt: int) -> dict:
    """``ModelingConfig``/``RTMConfig`` keyword arguments of a small
    executed run: a two-layer model (interface at mid-depth, 1500/2600
    m/s, ``vs_ratio`` 0.5) on a 10 m grid, a 12 Hz source, 8-cell
    boundary and a snapshot every 4 steps."""
    from repro.model import layered_model

    model = layered_model(
        shape, spacing=10.0, interfaces=[shape[0] * 10.0 / 2],
        velocities=[1500.0, 2600.0], vs_ratio=0.5,
    )
    return dict(
        physics=physics, model=model, nt=nt, peak_freq=12.0,
        space_order=space_order(len(shape)),
        boundary_width=8, snap_period=4,
    )
