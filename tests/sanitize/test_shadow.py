"""Unit tests for the coherence engine's interval algebra and the per-array
dirty state its transfer functions keep (the state the sanitizer checks
every consumer against)."""

from repro.analyze import program_from_script
from repro.analyze.dataflow.absint import (
    UNKNOWN_EXTENT,
    CoherenceEngine,
    CoherenceState,
    coverage_of,
    describe,
    normalize,
    subtract_interval,
)


class TestIntervalAlgebra:
    def test_normalize_coalesces_touching(self):
        assert normalize([(0, 4), (4, 8)]) == [(0, 8)]

    def test_normalize_coalesces_overlapping(self):
        assert normalize([(0, 6), (4, 8), (10, 12)]) == [(0, 8), (10, 12)]

    def test_normalize_drops_empty(self):
        assert normalize([(4, 4), (8, 6)]) == []

    def test_subtract_interior_splits(self):
        assert subtract_interval([(0, 12)], 4, 8) == [(0, 4), (8, 12)]

    def test_subtract_edges(self):
        assert subtract_interval([(0, 12)], 0, 4) == [(4, 12)]
        assert subtract_interval([(0, 12)], 8, 12) == [(0, 8)]
        assert subtract_interval([(0, 12)], 0, 12) == []

    def test_subtract_disjoint_is_noop(self):
        assert subtract_interval([(0, 4)], 8, 12) == [(0, 4)]

    def test_describe(self):
        assert describe([(0, 4)]) == "[0, 4)"
        assert describe([]) == "(empty)"
        assert "more" in describe([(0, 1), (2, 3), (4, 5), (6, 7)], limit=2)


def array_after(body: str, extent: int | None = 1024):
    """Step the engine over ``enter data copyin(u)`` then ``body``; return
    u's (extent, host-dirty coverage, device-dirty coverage)."""
    header = f"!$lint extent(u={extent})\n" if extent else ""
    program = program_from_script(
        header + "!$acc enter data copyin(u)\n" + body
    )
    state = CoherenceState()
    CoherenceEngine(program, lambda f: None).run_range(
        state, 0, len(program.events), emit=True
    )
    st = state.arrays["u"]
    return st.extent, coverage_of(st.host_dirty), coverage_of(st.dev_dirty)


HOST_WRITE = "!$lint host_writes(u) bytes={n} offset={o}\n"
KERNEL_WRITE = "!$lint name=k writes=u\n!$acc parallel loop\n"


class TestShadowArray:
    def test_host_write_makes_device_stale(self):
        _, host, dev = array_after(HOST_WRITE.format(n=256, o=0))
        assert host == [(0, 256)]
        assert dev == []

    def test_update_device_clears_host_dirt(self):
        _, host, dev = array_after(
            HOST_WRITE.format(n=256, o=0)
            + "!$lint bytes=256 offset=0\n!$acc update device(u)\n"
        )
        assert host == dev == []

    def test_partial_update_leaves_remainder(self):
        _, host, _ = array_after(
            HOST_WRITE.format(n=512, o=0)
            + "!$lint bytes=128 offset=0\n!$acc update device(u)\n"
        )
        assert host == [(128, 512)]

    def test_device_write_makes_host_stale(self):
        _, _, dev = array_after(KERNEL_WRITE)  # full extent
        assert dev == [(0, 1024)]
        _, _, dev = array_after(KERNEL_WRITE + "!$acc update host(u)\n")
        assert dev == []

    def test_update_device_overwrites_device_dirt_in_range(self):
        """The transfer wins in the overwritten range: the device copy there
        now reflects the host, whatever the kernel wrote before."""
        _, _, dev = array_after(
            KERNEL_WRITE + "!$lint bytes=256 offset=0\n!$acc update device(u)\n"
        )
        assert dev == [(256, 1024)]

    def test_range_is_clamped_to_extent(self):
        _, host, _ = array_after(HOST_WRITE.format(n=500, o=50), extent=100)
        assert host == [(50, 100)]

    def test_unknown_extent_full_operations(self):
        extent, host, _ = array_after(HOST_WRITE.format(n=4096, o=0), None)
        assert extent == UNKNOWN_EXTENT and host == [(0, 4096)]
        # a sizeless update covers everything
        _, host, dev = array_after(
            HOST_WRITE.format(n=4096, o=0) + "!$acc update device(u)\n", None
        )
        assert host == dev == []
