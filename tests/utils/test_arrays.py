import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.arrays import (
    DTYPE,
    as_f32,
    interior_slices,
    pad_tuple,
    shifted_slices,
)


class TestAsF32:
    def test_converts_dtype(self):
        a = as_f32(np.arange(5, dtype=np.float64))
        assert a.dtype == DTYPE

    def test_no_copy_when_compliant(self):
        a = np.zeros(4, dtype=DTYPE)
        assert as_f32(a) is a or np.shares_memory(as_f32(a), a)

    def test_accepts_lists(self):
        assert as_f32([1.0, 2.0]).dtype == DTYPE


class TestInteriorSlices:
    def test_zero_radius_full(self):
        a = np.arange(12).reshape(3, 4)
        assert a[interior_slices(2, 0)].shape == (3, 4)

    def test_radius_trims_both_sides(self):
        a = np.zeros((10, 10))
        assert a[interior_slices(2, 2)].shape == (6, 6)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            interior_slices(2, -1)


class TestShiftedSlices:
    def test_alignment_with_interior(self):
        """u[shifted(+s)] must align with u[interior] element-for-element."""
        a = np.arange(20.0)
        r = 3
        for s in (-3, -1, 0, 2, 3):
            shifted = a[shifted_slices(1, 0, s, r)]
            base = a[interior_slices(1, r)]
            np.testing.assert_array_equal(shifted, base + s)

    def test_shift_beyond_radius_rejected(self):
        with pytest.raises(ValueError):
            shifted_slices(2, 0, 4, 3)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=-4, max_value=4))
    def test_shapes_always_match_interior(self, radius, shift):
        if abs(shift) > radius:
            return
        n = 16
        a = np.zeros(n)
        assert a[shifted_slices(1, 0, shift, radius)].shape == a[interior_slices(1, radius)].shape


class TestPadTuple:
    def test_scalar_broadcast(self):
        assert pad_tuple(3, 3) == (3, 3, 3)

    def test_sequence_passthrough(self):
        assert pad_tuple([1, 2], 2) == (1, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            pad_tuple([1, 2, 3], 2)
