"""Field inventories: what each formulation keeps on the device.

Sizes drive the data directives of the Figure-4 pipeline and the OOM
behaviour (elastic 3-D exceeding the M2090's 6 GB). The C-PML memory
variables are carried *slab-restricted* on the device (only the absorbing
frame needs them), as production codes do — our host implementation keeps
them full-size for simplicity, which is a host-memory trade only.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ConfigurationError

_F32 = 4


def _npoints(shape: tuple[int, ...]) -> int:
    return int(np.prod([int(n) for n in shape]))


def _pml_frame_fraction(shape: tuple[int, ...], width: int) -> float:
    """Fraction of the grid covered by the absorbing frame of ``width``."""
    total = _npoints(shape)
    interior = int(np.prod([max(n - 2 * width, 0) for n in shape]))
    return (total - interior) / total if total else 0.0


def field_inventory(
    physics: str,
    shape: tuple[int, ...],
    boundary_width: int = 16,
) -> dict[str, int]:
    """Device-resident bytes per named array for one formulation.

    Keys are grouped by prefix: ``wf:`` time-varying wavefields, ``mat:``
    material/coefficient fields, ``pml:`` boundary memory/coefficients.
    """
    physics = physics.lower()
    shape = tuple(int(n) for n in shape)
    ndim = len(shape)
    if ndim not in (2, 3):
        raise ConfigurationError(f"bad shape {shape}")
    n = _npoints(shape)
    fb = n * _F32
    frame = _pml_frame_fraction(shape, boundary_width)
    inv: dict[str, int] = {}
    if physics == "isotropic":
        inv["wf:u"] = fb
        inv["wf:u_prev"] = fb
        inv["mat:vp2dt2"] = fb
        # standard-PML coefficient fields (coeff_curr/prev/rhs + sigma2)
        for name in ("coeff_curr", "coeff_prev", "coeff_rhs", "sigma2"):
            inv[f"pml:{name}"] = fb
    elif physics == "acoustic":
        axes = ("z", "x", "y")[:ndim]
        inv["wf:p"] = fb
        for ax in axes:
            inv[f"wf:q{ax}"] = fb
        inv["mat:kappa"] = fb
        for ax in axes:
            inv[f"mat:buoy_{ax}"] = fb
        # psi memory: one per derivative (2 per axis), slab-restricted
        for ax in axes:
            inv[f"pml:psi_dq{ax}"] = int(fb * frame)
            inv[f"pml:psi_dp{ax}"] = int(fb * frame)
    elif physics == "elastic":
        if ndim == 2:
            wfs = ("vx", "vz", "sxx", "szz", "sxz")
            mats = ("lam", "lam2mu", "buoy_x", "buoy_z", "mu_xz")
            nderiv = 8
        else:
            wfs = ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz")
            mats = (
                "lam",
                "lam2mu",
                "buoy_x",
                "buoy_y",
                "buoy_z",
                "mu_xy",
                "mu_xz",
                "mu_yz",
            )
            nderiv = 22
        for w in wfs:
            inv[f"wf:{w}"] = fb
        for m in mats:
            inv[f"mat:{m}"] = fb
        for i in range(nderiv):
            inv[f"pml:psi{i}"] = int(fb * frame)
    elif physics == "vti":
        for w in ("p", "p_prev", "q", "q_prev"):
            inv[f"wf:{w}"] = fb
        for m in ("vp2dt2", "coef_h_p", "coef_h_q"):
            inv[f"mat:{m}"] = fb
        for name in ("coeff_curr", "coeff_prev", "coeff_rhs", "sigma2"):
            inv[f"pml:{name}"] = fb
    else:
        raise ConfigurationError(f"unknown physics '{physics}'")
    return inv


def device_resident_bytes(
    physics: str, shape: tuple[int, ...], boundary_width: int = 16
) -> int:
    """Total device bytes one phase of the pipeline keeps resident."""
    return sum(field_inventory(physics, shape, boundary_width).values())


def primary_wavefield(physics: str) -> str:
    """The observable field snapshots carry (what update host moves)."""
    return {
        "isotropic": "wf:u",
        "acoustic": "wf:p",
        "elastic": "wf:szz",
        "vti": "wf:p",
    }[physics.lower()]
