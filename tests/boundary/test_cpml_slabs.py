"""Slab-only C-PML against the full-grid recursion it replaced.

``CPML.damp`` touches only the two slabs along the differentiation axis
where the 1-D profile is not the identity. The reference below runs the
recursion on every grid point with full-grid memory variables. Inside the
slabs the two must agree bitwise; in the interior the full-grid sweep adds
a +0.0 memory variable, which turns a -0.0 derivative into +0.0, so there
they may differ only in the sign of a zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boundary import CPML
from repro.grid import Grid

STEPS = 10


def _reference_damp(cpml, psi, axis, deriv, half):
    shape = [1] * cpml.grid.ndim
    shape[axis] = cpml.grid.shape[axis]
    b = cpml.b[axis][half].reshape(shape)
    a = cpml.a[axis][half].reshape(shape)
    psi *= b
    psi += a * deriv
    deriv += psi
    return deriv


def _derivatives(shape, rng):
    """Random raw derivatives with exact zeros of both signs mixed in."""
    d = rng.standard_normal(shape).astype(np.float32)
    pick = rng.random(shape)
    d[pick < 0.2] = 0.0
    d[pick > 0.8] = -0.0
    return d


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


CASES = [
    ((40, 36), 8, 0.0),
    ((40, 36), 8, 25.0),
    ((24, 26, 22), 6, 0.0),
    ((24, 26, 22), 6, 25.0),
]


@pytest.mark.parametrize("shape,width,alpha_max", CASES)
def test_slab_damp_matches_full_grid_recursion(shape, width, alpha_max):
    grid = Grid(shape)
    cpml = CPML(grid, width, 2500.0, 1e-3, alpha_max=alpha_max)
    rng = np.random.default_rng(len(shape) * 100 + width)
    for axis in range(grid.ndim):
        for half in (False, True):
            psi_ref = np.zeros(shape, dtype=np.float32)
            active = (cpml.b[axis][half] != 1.0) | (cpml.a[axis][half] != 0.0)
            in_slab = np.zeros(shape, dtype=bool)
            in_slab[(slice(None),) * axis + (active,)] = True
            for _ in range(STEPS):
                raw = _derivatives(shape, rng)
                got = cpml.damp(f"d{axis}{half}", axis, raw.copy(), half)
                want = _reference_damp(cpml, psi_ref, axis, raw.copy(), half)
                same = _bits(got) == _bits(want)
                assert np.all(same[in_slab])
                # the interior differs from the reference only as -0.0 vs +0.0
                assert np.array_equal(got, want)
                assert np.all((got[~same] == 0.0) & (want[~same] == 0.0))


def test_psi_is_stored_for_the_slabs_only():
    grid = Grid((48, 40))
    cpml = CPML(grid, 10, 2000.0, 1e-3)
    cpml.damp("z", 0, np.ones(grid.shape, dtype=np.float32), half=False)
    cpml.damp("x", 1, np.ones(grid.shape, dtype=np.float32), half=True)
    # full positions: 10 + 10 rows; half positions: 10 + 11 columns
    assert cpml.memory_bytes() == (20 * 40 + 48 * 21) * 4


def _run(cpml, steps, rng_seed, shape):
    rng = np.random.default_rng(rng_seed)
    outs = []
    for _ in range(steps):
        for axis in range(len(shape)):
            d = cpml.damp(f"d{axis}", axis, _derivatives(shape, rng), half=axis == 0)
            outs.append(d.copy())
    return outs


@pytest.mark.parametrize("shape", [(40, 36), (24, 26, 22)])
def test_capture_restore_round_trip_is_byte_identical(shape):
    cpml = CPML(Grid(shape), 6, 2500.0, 1e-3, alpha_max=20.0)
    _run(cpml, 4, 1, shape)
    snapshot = cpml.capture()
    first = _run(cpml, 5, 2, shape)
    # a memory variable born after the capture must not survive restore
    cpml.damp("late", 0, np.ones(shape, dtype=np.float32), half=False)
    cpml.restore(snapshot)
    assert set(cpml.memory_names()) == set(snapshot)
    again = cpml.capture()
    for name, parts in snapshot.items():
        assert len(again[name]) == len(parts)
        for p, q in zip(parts, again[name]):
            assert p is not q
            np.testing.assert_array_equal(_bits(p), _bits(q))
    second = _run(cpml, 5, 2, shape)
    # the snapshot survives the replay: restoring it again replays again
    cpml.restore(snapshot)
    third = _run(cpml, 5, 2, shape)
    for a, b, c in zip(first, second, third):
        np.testing.assert_array_equal(_bits(a), _bits(b))
        np.testing.assert_array_equal(_bits(a), _bits(c))


def test_capture_is_a_deep_copy():
    shape = (40, 36)
    cpml = CPML(Grid(shape), 6, 2500.0, 1e-3)
    _run(cpml, 2, 3, shape)
    snapshot = cpml.capture()
    frozen = {n: [p.copy() for p in parts] for n, parts in snapshot.items()}
    _run(cpml, 2, 4, shape)
    for name, parts in snapshot.items():
        for p, q in zip(parts, frozen[name]):
            np.testing.assert_array_equal(_bits(p), _bits(q))


def test_width_zero_is_a_no_op():
    shape = (32, 30)
    cpml = CPML(Grid(shape), 0, 2000.0, 1e-3)
    raw = _derivatives(shape, np.random.default_rng(5))
    for axis in (0, 1):
        for half in (False, True):
            got = cpml.damp("d", axis, raw.copy(), half)
            np.testing.assert_array_equal(_bits(got), _bits(raw))
    assert cpml.memory_names() == ()
    assert cpml.memory_bytes() == 0
    assert cpml.capture() == {}
