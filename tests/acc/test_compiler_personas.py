"""Compiler-persona lowering rules (paper Section 5.2)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.acc import (
    COMPILERS,
    CRAY_8_2_6,
    PGI_13_7,
    PGI_14_3,
    PGI_14_6,
    CompileFlags,
    LoopSchedule,
    compiler,
)
from repro.propagators.base import KernelWorkload
from repro.utils.errors import ConfigurationError


def wl(branches=False, contiguous=True, dims=(128, 128, 128)):
    import numpy as np

    return KernelWorkload(
        name="k",
        points=int(np.prod(dims)),
        flops_per_point=30.0,
        reads_per_point=12.0,
        writes_per_point=2.0,
        loop_dims=dims,
        address_streams=6,
        has_branches=branches,
        inner_contiguous=contiguous,
    )


class TestLoopSchedule:
    def test_gwv_is_explicit(self):
        assert LoopSchedule.gwv().explicit

    def test_auto_is_not(self):
        assert not LoopSchedule.auto().explicit

    def test_seq_conflicts_with_gang(self):
        with pytest.raises(ConfigurationError):
            LoopSchedule(seq=True, gang=True)

    def test_vector_length_bounds(self):
        with pytest.raises(ConfigurationError):
            LoopSchedule(vector_length=2048)


class TestPGILowering:
    def test_kernels_with_independent_gridifies(self):
        cfg = PGI_14_6.lower("kernels", wl(), LoopSchedule(independent=True))
        assert cfg.gridified
        assert cfg.collapsed_levels == 2

    def test_kernels_without_independent_does_not(self):
        cfg = PGI_14_6.lower("kernels", wl(), LoopSchedule.auto())
        assert not cfg.gridified

    def test_parallel_without_schedule_is_poor(self):
        """PGI parallel without explicit gang/vector maps gangs over the
        outer loop only."""
        cfg = PGI_14_6.lower("parallel", wl(), LoopSchedule.auto())
        assert not cfg.gridified

    def test_parallel_with_full_schedule_ok(self):
        cfg = PGI_14_6.lower("parallel", wl(), LoopSchedule.gwv())
        assert cfg.gridified

    def test_143_cannot_gridify_branchy_kernels(self):
        """The Figure 7 mechanism."""
        cfg = PGI_14_3.lower("kernels", wl(branches=True), LoopSchedule(independent=True))
        assert not cfg.gridified

    def test_146_gridifies_branchy_kernels(self):
        """The Figure 6 contrast."""
        cfg = PGI_14_6.lower("kernels", wl(branches=True), LoopSchedule(independent=True))
        assert cfg.gridified

    def test_preferred_construct(self):
        assert PGI_14_6.preferred_construct() == "kernels"

    def test_maxregcount_flag_propagates(self):
        cfg = PGI_14_6.lower(
            "kernels", wl(), LoopSchedule(independent=True), CompileFlags(maxregcount=64)
        )
        assert cfg.maxregcount == 64


class TestCRAYLowering:
    def test_parallel_gwv_best(self):
        cfg = CRAY_8_2_6.lower("parallel", wl(), LoopSchedule.gwv())
        assert cfg.gridified
        assert cfg.coalesced

    def test_parallel_auto_may_vectorize_wrong_loop(self):
        cfg = CRAY_8_2_6.lower("parallel", wl(), LoopSchedule.auto())
        assert not cfg.coalesced

    def test_kernels_auto_uncoalesced(self):
        """Figures 8-9: bare kernels under CRAY underperforms explicit
        parallel."""
        cfg = CRAY_8_2_6.lower("kernels", wl(), LoopSchedule.auto())
        assert not cfg.coalesced

    def test_preferred_construct(self):
        assert CRAY_8_2_6.preferred_construct() == "parallel"

    def test_inlining_support(self):
        assert CRAY_8_2_6.supports_inlining
        assert not PGI_14_6.supports_inlining

    def test_auto_async(self):
        assert CRAY_8_2_6.auto_async_kernels
        assert not PGI_14_6.auto_async_kernels

    def test_known_failures(self):
        assert "elastic-3d-rtm" in CRAY_8_2_6.known_failures
        assert PGI_14_6.known_failures == ()


class TestRegistry:
    def test_all_four_compilers(self):
        assert set(COMPILERS) == {"pgi-13.7", "pgi-14.3", "pgi-14.6", "cray-8.2.6"}

    def test_invalid_construct(self):
        with pytest.raises(ConfigurationError):
            PGI_13_7.lower("teams", wl())

    def test_pgi_async_factor_high(self):
        for p in (PGI_13_7, PGI_14_3, PGI_14_6):
            assert p.async_enqueue_factor > CRAY_8_2_6.async_enqueue_factor


# ----------------------------------------------------------------------
# the lowering memo
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(compiler, "_LOWERED", memo)
    return memo


schedules = st.builds(
    LoopSchedule,
    gang=st.booleans(),
    worker=st.booleans(),
    vector=st.booleans(),
    vector_length=st.integers(min_value=1, max_value=1024),
    collapse=st.integers(min_value=1, max_value=3),
    independent=st.booleans(),
)
flag_sets = st.builds(
    CompileFlags,
    maxregcount=st.none() | st.integers(min_value=16, max_value=255),
    pin=st.booleans(),
    auto_async=st.none() | st.booleans(),
)


class TestLoweringMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(COMPILERS)),
        st.sampled_from(["kernels", "parallel"]),
        st.none() | schedules,
        st.none() | flag_sets,
        st.none() | st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=1, max_value=256), min_size=1, max_size=3),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_memoised_equals_uncached(
        self, persona, construct, schedule, flags, queue, dims, branches,
        contiguous, points, flops,
    ):
        """A hit, even one primed by a workload that differs only in
        fields the rules do not read, returns what the body computes."""
        persona = COMPILERS[persona]
        w = wl(branches, contiguous, tuple(dims))
        twin = dataclasses.replace(w, points=points, flops_per_point=flops)
        persona.lower(construct, w, schedule, flags, queue)
        got = persona.lower(construct, twin, schedule, flags, queue)
        want = persona._lower(
            construct, twin, schedule or LoopSchedule.auto(),
            flags or CompileFlags(), queue,
        )
        assert got == want

    def test_repeat_call_returns_memoised_object(self, fresh_memo):
        a = PGI_14_6.lower("kernels", wl(), LoopSchedule(independent=True))
        b = PGI_14_6.lower("kernels", wl(), LoopSchedule(independent=True))
        assert a is b
        assert len(fresh_memo) == 1

    @pytest.mark.parametrize(
        "change", [{"branches": True}, {"contiguous": False}, {"dims": (64, 64)}]
    )
    def test_each_read_workload_field_gets_its_own_entry(self, fresh_memo, change):
        base = PGI_14_3.lower("kernels", wl(), LoopSchedule(independent=True))
        other = PGI_14_3.lower("kernels", wl(**change), LoopSchedule(independent=True))
        assert other is not base
        assert len(fresh_memo) == 2

    def test_persona_construct_schedule_flags_queue_are_keyed(self, fresh_memo):
        w = wl()
        PGI_14_6.lower("kernels", w)
        CRAY_8_2_6.lower("kernels", w)
        PGI_14_6.lower("parallel", w)
        PGI_14_6.lower("kernels", w, LoopSchedule.gwv())
        PGI_14_6.lower("kernels", w, flags=CompileFlags(maxregcount=None))
        PGI_14_6.lower("kernels", w, async_queue=1)
        assert len(fresh_memo) == 6
        # flags the rules never read share the entry
        PGI_14_6.lower("kernels", w, flags=CompileFlags(pin=False))
        assert len(fresh_memo) == 6

    def test_preferred_schedules_are_constants(self):
        for persona in COMPILERS.values():
            assert persona.preferred_schedule() is persona.preferred_schedule()
        assert PGI_14_6.preferred_schedule() == LoopSchedule(
            independent=True, vector_length=128
        )
        assert CRAY_8_2_6.preferred_schedule() == LoopSchedule.gwv(vector_length=128)

    def test_invalid_construct_raises_on_every_call(self, fresh_memo):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="construct"):
                PGI_14_6.lower("teams", wl())
        assert fresh_memo == {}

    def test_low_maxregcount_raises_on_every_call(self, fresh_memo):
        flags = CompileFlags()
        object.__setattr__(flags, "maxregcount", 8)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="maxregcount"):
                CRAY_8_2_6.lower("parallel", wl(), LoopSchedule.gwv(), flags)
        assert fresh_memo == {}

    def test_out_of_range_threads_raise_on_every_call(self, fresh_memo):
        schedule = LoopSchedule(independent=True)
        object.__setattr__(schedule, "vector_length", 0)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="threads_per_block"):
                PGI_14_6.lower("kernels", wl(), schedule)
        assert fresh_memo == {}
