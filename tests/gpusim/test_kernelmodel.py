import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import (
    K40,
    M2090,
    LaunchConfig,
    estimate_kernel_time,
    estimate_register_demand,
    kernelmodel,
)
from repro.gpusim.specs import CUDA_5_0, CUDA_5_5
from repro.propagators.base import KernelWorkload
from repro.utils.errors import ConfigurationError


def wl(**kw):
    base = dict(
        name="k",
        points=256**3,
        flops_per_point=40.0,
        reads_per_point=20.0,
        writes_per_point=2.0,
        loop_dims=(256, 256, 256),
        address_streams=6,
        has_branches=False,
        inner_contiguous=True,
    )
    base.update(kw)
    return KernelWorkload(**base)


class TestRegisterDemand:
    def test_grows_with_streams(self):
        assert estimate_register_demand(wl(address_streams=12)) > estimate_register_demand(wl(address_streams=4))

    def test_grows_with_dimensionality(self):
        w2 = wl(loop_dims=(512, 512))
        w3 = wl(loop_dims=(64, 64, 64))
        assert estimate_register_demand(w3) > estimate_register_demand(w2)

    def test_floor(self):
        tiny = wl(address_streams=1, flops_per_point=0.0, loop_dims=(8,))
        assert estimate_register_demand(tiny) >= 16


class TestRooflineBehaviour:
    def test_time_scales_with_points(self):
        a = estimate_kernel_time(K40, wl(points=10**6))
        b = estimate_kernel_time(K40, wl(points=4 * 10**6))
        assert b.seconds == pytest.approx(4 * a.seconds, rel=0.3)

    def test_memory_bound_for_stencils(self):
        assert estimate_kernel_time(K40, wl()).limited_by == "memory"

    def test_kepler_faster_than_fermi(self):
        assert (
            estimate_kernel_time(K40, wl()).seconds
            < estimate_kernel_time(M2090, wl()).seconds
        )

    def test_achieved_bandwidth_below_peak(self):
        e = estimate_kernel_time(K40, wl())
        assert 0 < e.achieved_bandwidth < K40.mem_bandwidth_bytes

    def test_uncoalesced_penalty(self):
        coal = estimate_kernel_time(K40, wl())
        unco = estimate_kernel_time(K40, wl(inner_contiguous=False))
        assert unco.seconds / coal.seconds == pytest.approx(4.0, rel=0.15)

    def test_ungridified_penalty(self):
        good = estimate_kernel_time(K40, wl())
        bad = estimate_kernel_time(K40, wl(), LaunchConfig(gridified=False))
        assert bad.seconds > 2.0 * good.seconds

    def test_divergence_cuda50_vs_cuda55(self):
        """Branchy bodies hurt badly under CUDA 5.0 and barely under the
        predicating CUDA 5.5 backend — the Figure 6 vs 7 contrast."""
        branchy = wl(has_branches=True)
        plain = wl()
        slow_50 = estimate_kernel_time(K40, branchy, toolkit=CUDA_5_0).seconds
        base_50 = estimate_kernel_time(K40, plain, toolkit=CUDA_5_0).seconds
        slow_55 = estimate_kernel_time(K40, branchy, toolkit=CUDA_5_5).seconds
        base_55 = estimate_kernel_time(K40, plain, toolkit=CUDA_5_5).seconds
        assert slow_50 / base_50 > 1.8
        assert slow_55 / base_55 < 1.3

    def test_multi_axis_gather_penalty(self):
        one = estimate_kernel_time(K40, wl(gather_axes=1))
        three = estimate_kernel_time(K40, wl(gather_axes=3))
        assert three.seconds > one.seconds

    def test_2d_utilization_derate(self):
        """Same total work as a 2-D nest runs a bit slower (paper: ~70 %
        2-D vs ~90 % 3-D utilization)."""
        w3 = wl()
        w2 = wl(loop_dims=(4096, 4096), points=4096 * 4096)
        e3 = estimate_kernel_time(K40, w3)
        e2 = estimate_kernel_time(K40, w2)
        per_pt_3 = e3.seconds / w3.points
        per_pt_2 = e2.seconds / w2.points
        assert per_pt_2 > per_pt_3


class TestRegisterEffects:
    def test_architectural_spill_on_fermi_only(self):
        """Demand beyond 63 registers spills on Fermi, not on Kepler —
        the Figure 12 fission mechanism."""
        heavy = wl(address_streams=10, flops_per_point=70.0)
        ef = estimate_kernel_time(M2090, heavy)
        ek = estimate_kernel_time(K40, heavy)
        assert ef.spilled_regs > 0
        assert ek.spilled_regs == 0

    def test_flag_clamp_absorbed_by_rematerialization(self):
        """maxregcount slightly below demand costs almost nothing (the
        Figure 10 shape at 64 registers)."""
        heavy = wl(address_streams=10, flops_per_point=70.0)
        e = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=64))
        assert e.spilled_regs == 0

    def test_deep_clamp_spills(self):
        heavy = wl(address_streams=10, flops_per_point=70.0)
        e = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=16))
        assert e.spilled_regs > 0

    def test_spill_traffic_slows_kernel(self):
        heavy = wl(address_streams=10, flops_per_point=70.0)
        ok = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=64)).seconds
        spilled = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=16)).seconds
        assert spilled > 1.5 * ok

    def test_occupancy_drop_at_high_regcount(self):
        heavy = wl(address_streams=10, flops_per_point=70.0)
        at64 = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=64))
        at255 = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=255))
        assert at255.occupancy < at64.occupancy

    def test_maxregcount_floor_validated(self):
        with pytest.raises(ConfigurationError):
            LaunchConfig(maxregcount=8)


class TestDeviceFloor:
    def test_tiny_kernel_floor(self):
        tiny = wl(points=1, loop_dims=(1,))
        e = estimate_kernel_time(K40, tiny)
        assert e.seconds >= 7e-6


class TestPropertyInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**7),
        st.floats(min_value=1.0, max_value=500.0),
        st.integers(min_value=2, max_value=16),
        st.sampled_from([M2090, K40]),
    )
    def test_time_positive_and_finite(self, points, flops, streams, spec):
        w = wl(points=points, flops_per_point=flops, address_streams=streams,
               loop_dims=(points,))
        e = estimate_kernel_time(spec, w)
        assert e.seconds > 0
        assert e.dram_bytes > 0
        assert 0 <= e.occupancy <= 1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=16, max_value=255))
    def test_monotone_spills(self, reg):
        """Lower maxregcount never reduces spilled registers."""
        heavy = wl(address_streams=12, flops_per_point=90.0)
        e_low = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=max(16, reg // 2)))
        e_high = estimate_kernel_time(K40, heavy, LaunchConfig(maxregcount=reg))
        assert e_low.spilled_regs >= e_high.spilled_regs


# ----------------------------------------------------------------------
# the memo (see the kernelmodel module docstring)
# ----------------------------------------------------------------------
#: the KernelWorkload fields the model reads, each with a changed value
PRICED_CHANGES = {
    "points": 255**3,
    "flops_per_point": 41.0,
    "writes_per_point": 3.0,
    "loop_dims": (256 * 256, 256),
    "address_streams": 7,
    "has_branches": True,
    "inner_contiguous": False,
    "gather_axes": 3,
}
#: fields it does not read
UNPRICED_CHANGES = {
    "name": "other",
    "reads_per_point": 99.0,
    "loop_dims": (128, 512, 256),
    "loop_carried": True,
}


def bits(est):
    """Every field of an estimate, floats by their exact bits."""
    return tuple(
        (type(v), v.hex() if isinstance(v, float) else v)
        for v in (getattr(est, f.name) for f in dataclasses.fields(est))
    )


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(kernelmodel, "_ESTIMATES", memo)
    return memo


launches = st.builds(
    LaunchConfig,
    threads_per_block=st.integers(min_value=1, max_value=1024),
    maxregcount=st.none() | st.integers(min_value=16, max_value=255),
    coalesced=st.booleans(),
    gridified=st.booleans(),
    collapsed_levels=st.integers(min_value=1, max_value=3),
    async_queue=st.none() | st.integers(min_value=0, max_value=3),
)
workloads = st.builds(
    wl,
    points=st.integers(min_value=1, max_value=10**8),
    flops_per_point=st.floats(min_value=0.0, max_value=500.0),
    writes_per_point=st.floats(min_value=0.0, max_value=8.0),
    loop_dims=st.lists(
        st.integers(min_value=1, max_value=512), min_size=1, max_size=3
    ).map(tuple),
    address_streams=st.integers(min_value=1, max_value=16),
    has_branches=st.booleans(),
    inner_contiguous=st.booleans(),
    gather_axes=st.integers(min_value=1, max_value=3),
)


class TestMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([M2090, K40]),
        st.sampled_from([CUDA_5_0, CUDA_5_5]),
        st.none() | launches,
        workloads,
        st.text(max_size=3),
        st.floats(min_value=0.0, max_value=64.0),
    )
    def test_memoised_equals_uncached_bitwise(
        self, spec, toolkit, launch, w, name, reads
    ):
        """A hit, even one primed by a workload that differs only in
        unpriced fields, returns exactly what the body computes."""
        twin = dataclasses.replace(w, name=name, reads_per_point=reads)
        estimate_kernel_time(spec, w, launch, toolkit)
        got = estimate_kernel_time(spec, twin, launch, toolkit)
        want = kernelmodel._estimate_kernel_time(
            spec, twin, launch or LaunchConfig(), toolkit
        )
        assert bits(got) == bits(want)
        assert got.efficiency.hex() == want.efficiency.hex()

    def test_repeat_call_returns_memoised_object(self, fresh_memo):
        a = estimate_kernel_time(K40, wl(), LaunchConfig(maxregcount=64))
        b = estimate_kernel_time(K40, wl(), LaunchConfig(maxregcount=64))
        assert a is b
        assert len(fresh_memo) == 1

    @pytest.mark.parametrize("field", sorted(PRICED_CHANGES))
    def test_each_priced_field_gets_its_own_entry(self, fresh_memo, field):
        base = estimate_kernel_time(K40, wl())
        other = estimate_kernel_time(K40, wl(**{field: PRICED_CHANGES[field]}))
        assert other is not base
        assert len(fresh_memo) == 2

    @pytest.mark.parametrize("field", sorted(UNPRICED_CHANGES))
    def test_unpriced_fields_share_an_entry(self, fresh_memo, field):
        base = estimate_kernel_time(K40, wl())
        assert estimate_kernel_time(K40, wl(**{field: UNPRICED_CHANGES[field]})) is base
        assert len(fresh_memo) == 1

    def test_spec_toolkit_and_launch_are_part_of_the_key(self, fresh_memo):
        w = wl()
        estimate_kernel_time(K40, w)
        estimate_kernel_time(M2090, w)
        estimate_kernel_time(K40, w, toolkit=CUDA_5_5)
        estimate_kernel_time(K40, w, LaunchConfig(threads_per_block=256))
        assert len(fresh_memo) == 4

    def test_mutated_workload_is_repriced(self, fresh_memo):
        """KernelWorkload is mutable: the key is its values, not its id."""
        w = wl()
        before = estimate_kernel_time(K40, w)
        w.points *= 2
        after = estimate_kernel_time(K40, w)
        assert after.seconds > before.seconds
        assert bits(after) == bits(kernelmodel._estimate_kernel_time(
            K40, w, LaunchConfig(), CUDA_5_0))

    def test_out_of_range_threads_raise_on_every_call(self, fresh_memo):
        bad = LaunchConfig()
        object.__setattr__(bad, "threads_per_block", 0)
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="threads_per_block"):
                estimate_kernel_time(K40, wl(), bad)
        assert fresh_memo == {}
