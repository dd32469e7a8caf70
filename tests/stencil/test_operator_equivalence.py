"""Byte equality of the flat-sweep stencil operators with the per-axis
slice expressions they replaced.

The reference functions below are the operators' earlier expression form,
kept verbatim as the specification: one N-D slice pair per tap, a fresh
temporary per operation, tap order ``k = 1 .. m``. The operators must
produce the same float32 bits on the valid interior for every input,
``-0.0`` and subnormals included, and (for the staggered operators) +0.0
everywhere else, whatever ``out`` held before.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.stencil.coefficients import (
    second_derivative_coefficients,
    staggered_coefficients,
)
from repro.stencil.operators import (
    second_derivative,
    staggered_diff_backward,
    staggered_diff_forward,
    stencil_radius,
)
from repro.utils.errors import ConfigurationError


# ----------------------------------------------------------------------
# reference: the per-axis slice-expression form
# ----------------------------------------------------------------------
def _axis_slice(ndim, axis, sl):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def ref_second_derivative(u, axis, spacing, order, out, accumulate=False):
    m = order // 2
    n = u.shape[axis]
    c0, side = second_derivative_coefficients(order)
    inv_h2 = 1.0 / (spacing * spacing)
    ndim = u.ndim
    center = _axis_slice(ndim, axis, slice(m, n - m))
    scal = u.dtype.type
    acc = np.multiply(u[center], scal(c0 * inv_h2))
    for k, ck in enumerate(side, start=1):
        up = u[_axis_slice(ndim, axis, slice(m + k, n - m + k))]
        dn = u[_axis_slice(ndim, axis, slice(m - k, n - m - k))]
        acc += scal(ck * inv_h2) * (up + dn)
    if accumulate:
        out[center] += acc
    else:
        out[center] = acc
    return out


def ref_staggered_forward(u, axis, spacing, order, out):
    m = order // 2
    n = u.shape[axis]
    coefs = staggered_coefficients(order)
    inv_h = 1.0 / spacing
    ndim = u.ndim
    target = _axis_slice(ndim, axis, slice(m - 1, n - m))
    scal = u.dtype.type
    acc = None
    for k, ck in enumerate(coefs, start=1):
        hi = u[_axis_slice(ndim, axis, slice(m - 1 + k, n - m + k))]
        lo = u[_axis_slice(ndim, axis, slice(m - k, n - m - k + 1))]
        term = scal(ck * inv_h) * (hi - lo)
        acc = term if acc is None else acc + term
    out[target] = acc
    return out


def ref_staggered_backward(u, axis, spacing, order, out):
    m = order // 2
    n = u.shape[axis]
    coefs = staggered_coefficients(order)
    inv_h = 1.0 / spacing
    ndim = u.ndim
    target = _axis_slice(ndim, axis, slice(m, n - m + 1))
    scal = u.dtype.type
    acc = None
    for k, ck in enumerate(coefs, start=1):
        hi = u[_axis_slice(ndim, axis, slice(m + k - 1, n - m + k))]
        lo = u[_axis_slice(ndim, axis, slice(m - k, n - m - k + 1))]
        term = scal(ck * inv_h) * (hi - lo)
        acc = term if acc is None else acc + term
    out[target] = acc
    return out


# ----------------------------------------------------------------------
# generated cases
# ----------------------------------------------------------------------
TINY = float(np.finfo(np.float32).tiny)
#: signed zeros, subnormals (down to the smallest) and ordinary values
SPECIAL = [
    float(np.float32(x))
    for x in (0.0, -0.0, TINY / 2, -TINY / 3, 1.4e-45, -1.4e-45, TINY, 1.0, -2.5)
]
ELEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e4, 1e4, width=32, allow_subnormal=True),
)


@st.composite
def cases(draw, need_extra):
    """(u, axis, spacing, order) with the differentiation axis at its legal
    minimum length ``2m + need_extra`` or a few points longer."""
    ndim = draw(st.sampled_from((2, 3)))
    order = draw(st.sampled_from((2, 4, 8)))
    axis = draw(st.integers(0, ndim - 1))
    m = stencil_radius(order)
    shape = [draw(st.integers(1, 5)) for _ in range(ndim)]
    shape[axis] = 2 * m + need_extra + draw(st.integers(0, 4))
    u = draw(hnp.arrays(np.float32, tuple(shape), elements=ELEMENTS))
    spacing = draw(st.sampled_from((1.0, 10.0, 0.37)))
    return u, axis, spacing, order


def _valid(u, axis, first, count):
    mask = np.zeros(u.shape, dtype=bool)
    mask[_axis_slice(u.ndim, axis, slice(first, first + count))] = True
    return mask


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


STAGGERED = [
    (staggered_diff_forward, ref_staggered_forward, 0),
    (staggered_diff_backward, ref_staggered_backward, 1),
]


class TestStaggeredEquivalence:
    @pytest.mark.parametrize("op,ref,shift", STAGGERED, ids=["forward", "backward"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_equal_reference_and_border_is_plus_zero(self, op, ref, shift, data):
        u, axis, spacing, order = data.draw(cases(need_extra=shift))
        m = stencil_radius(order)
        out = np.full(u.shape, np.nan, dtype=np.float32)
        got = op(u, axis, spacing, order, out=out)
        assert got is out
        want = ref(u, axis, spacing, order, np.zeros_like(u))
        valid = _valid(u, axis, m - 1 + shift, u.shape[axis] - 2 * m + 1)
        np.testing.assert_array_equal(_bits(got)[valid], _bits(want)[valid])
        # +0.0 exactly (not -0.0, not the NaN out held) outside the range
        assert np.all(_bits(got)[~valid] == 0)

    @pytest.mark.parametrize("op,ref,shift", STAGGERED, ids=["forward", "backward"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_fresh_output_matches_too(self, op, ref, shift, data):
        u, axis, spacing, order = data.draw(cases(need_extra=shift))
        got = op(u, axis, spacing, order)
        want = ref(u, axis, spacing, order, np.zeros_like(u))
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("op,shift", [(staggered_diff_forward, 0),
                                          (staggered_diff_backward, 1)],
                             ids=["forward", "backward"])
    @pytest.mark.parametrize("order", (2, 4, 8))
    @pytest.mark.parametrize("axis", (0, 1, 2))
    def test_too_short_axis_raises(self, op, shift, order, axis):
        shape = [5, 5, 5]
        shape[axis] = 2 * stencil_radius(order) + shift - 1
        with pytest.raises(ConfigurationError):
            op(np.zeros(shape, dtype=np.float32), axis, 1.0, order)


class TestSecondDerivativeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), accumulate=st.booleans())
    def test_bytes_equal_reference_and_border_untouched(self, data, accumulate):
        u, axis, spacing, order = data.draw(cases(need_extra=1))
        m = stencil_radius(order)
        if accumulate:
            start = data.draw(hnp.arrays(np.float32, u.shape, elements=ELEMENTS))
        else:
            start = np.full(u.shape, np.nan, dtype=np.float32)
        got = second_derivative(
            u, axis, spacing, order, out=start.copy(), accumulate=accumulate
        )
        want = ref_second_derivative(
            u, axis, spacing, order, start.copy(), accumulate=accumulate
        )
        np.testing.assert_array_equal(_bits(got), _bits(want))
        valid = _valid(u, axis, m, u.shape[axis] - 2 * m)
        np.testing.assert_array_equal(_bits(got)[~valid], _bits(start)[~valid])

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_fresh_output_is_plus_zero_outside(self, data):
        u, axis, spacing, order = data.draw(cases(need_extra=1))
        m = stencil_radius(order)
        got = second_derivative(u, axis, spacing, order)
        valid = _valid(u, axis, m, u.shape[axis] - 2 * m)
        assert np.all(_bits(got)[~valid] == 0)

    @pytest.mark.parametrize("order", (2, 4, 8))
    @pytest.mark.parametrize("axis", (0, 1, 2))
    def test_too_short_axis_raises(self, order, axis):
        shape = [5, 5, 5]
        shape[axis] = 2 * stencil_radius(order)
        with pytest.raises(ConfigurationError):
            second_derivative(np.zeros(shape, dtype=np.float32), axis, 1.0, order)
