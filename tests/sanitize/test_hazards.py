"""Golden-diagnostic tests: every sanitizer hazard code, fault-seeded.

Each live test wires one :class:`~repro.core.multigpu.ExchangeProtocol`
fault knob into the executed per-rank multi-GPU path and pins the single
diagnostic code the sanitizer must report for it; the script tests seed
the same hazards in hand-written ``!$acc`` scripts (including the
out-of-bounds transfer, which the live present table refuses to execute).
The live runs are also re-read by the static interpreter, which must prove
no rule on a rank that the sanitizer did not report there.
"""

import pytest

from repro.analyze.dataflow.absint import interpret_program
from repro.analyze.framework import Severity
from repro.analyze.rules import rule
from repro.core.multigpu import ExchangeProtocol
from repro.sanitize import PASSES, sanitize_pipeline, sanitize_script


def codes(result):
    return sorted({d.rule for d in result.diagnostics})


def run(protocol=None, halo_width=None, ranks=2, mode="rtm"):
    return sanitize_pipeline(
        "isotropic", (96, 96), mode, ranks=ranks, nt=8, snap_period=4,
        halo_width=halo_width, protocol=protocol,
    )


class TestLiveFaultSeeded:
    def test_clean_protocol_has_no_findings(self):
        r = run()
        assert r.clean(), codes(r)

    def test_missing_ghost_update_is_stale_device_read(self):
        """Halo arrives on the host but never goes back to the device."""
        r = run(ExchangeProtocol(update_ghost_device=False))
        assert codes(r) == ["stale-device-read"]
        assert all(d.severity is Severity.ERROR for d in r.diagnostics)

    def test_send_without_update_host_is_stale_host_read(self):
        """MPI sends the host copy while the kernel writes sit on device."""
        r = run(ExchangeProtocol(update_host_before_send=False))
        assert codes(r) == ["stale-host-read"]

    def test_async_update_without_wait_is_halo_send_before_sync(self):
        r = run(ExchangeProtocol(async_updates=True, sync_before_send=False))
        assert codes(r) == ["halo-send-before-sync"]

    def test_async_update_with_wait_is_clean(self):
        """The legitimate overlap pattern: async update + wait before send."""
        r = run(ExchangeProtocol(async_updates=True, sync_before_send=True))
        assert r.clean(), codes(r)

    def test_narrow_halo_is_short_ghost_transfer(self):
        """halo_width=2 under a radius-4 stencil (space_order=8)."""
        r = run(halo_width=2)
        assert "short-ghost-transfer" in codes(r)

    def test_rank_is_named_in_multirank_findings(self):
        r = run(ExchangeProtocol(update_ghost_device=False), ranks=4)
        assert any(d.message.startswith("[rank ") for d in r.diagnostics)

    def test_modeling_mode_also_detects(self):
        r = run(ExchangeProtocol(update_ghost_device=False), mode="modeling")
        assert codes(r) == ["stale-device-read"]


#: the live fault knobs above -> (``run`` keywords, the rule the static
#: interpreter proves on the recordings, or None when it proves none)
LIVE_FAULTS = {
    "clean": ({}, None),
    "no ghost update device": (
        {"protocol": ExchangeProtocol(update_ghost_device=False)},
        "stale-device-read",
    ),
    "no update host before send": (
        {"protocol": ExchangeProtocol(update_host_before_send=False)},
        "stale-host-read",
    ),
    "async update without wait": (
        {"protocol": ExchangeProtocol(async_updates=True, sync_before_send=False)},
        "halo-send-before-sync",
    ),
    "async update with wait": (
        {"protocol": ExchangeProtocol(async_updates=True, sync_before_send=True)},
        None,
    ),
    # the short ghost is found by comparing the decomposition's halo with
    # the stencil radius, which only the sanitizer is told
    "halo_width=2": ({"halo_width": 2}, None),
}


class TestStaticWithinDynamic:
    """The converse of the static/dynamic agreement on the scripts: on
    every live recording, each rule ``interpret_program`` proves is one
    the sanitizer reported for the same rank."""

    @pytest.mark.parametrize("mode", ["modeling", "rtm"])
    @pytest.mark.parametrize("ranks", [2, 4])
    @pytest.mark.parametrize("fault", sorted(LIVE_FAULTS))
    def test_static_rules_are_dynamic_rules(self, fault, ranks, mode):
        kwargs, expected = LIVE_FAULTS[fault]
        r = run(ranks=ranks, mode=mode, **kwargs)
        proved = set()
        for rank, program in enumerate(r.programs):
            dynamic = {
                rule(d.rule).static_rule for d in r.diagnostics
                if d.message.startswith(f"[rank {rank}] ")
            }
            static = {d.rule for d in interpret_program(program).diagnostics}
            assert static <= dynamic, (rank, static, dynamic)
            proved |= static
        assert proved == ({rule(expected).static_rule} if expected else set())


class TestScriptSeeded:
    def test_stale_device_read(self):
        r = sanitize_script("""
            !$lint extent(u=36864)
            !$acc enter data copyin(u)
            !$lint host_writes(u) bytes=768 offset=0
            !$lint name=fwd dims=96x96 reads=u writes=u
            !$acc parallel loop gang vector
            !$acc exit data delete(u)
        """)
        assert codes(r) == ["stale-device-read"]
        (d,) = r.diagnostics
        assert d.severity is Severity.ERROR
        assert d.fix is not None

    def test_update_device_makes_it_clean(self):
        r = sanitize_script("""
            !$lint extent(u=36864)
            !$acc enter data copyin(u)
            !$lint host_writes(u) bytes=768 offset=0
            !$acc update device(u)
            !$lint name=fwd dims=96x96 reads=u writes=u
            !$acc parallel loop gang vector
            !$acc exit data delete(u)
        """)
        assert r.clean(), codes(r)

    def test_stale_host_read_on_send(self):
        r = sanitize_script("""
            !$lint extent(u=36864)
            !$acc enter data copyin(u)
            !$lint name=fwd dims=96x96 reads=u writes=u
            !$acc parallel loop gang vector
            !$acc wait
            !$lint send(u) to=1 bytes=384 offset=384
            !$acc exit data delete(u)
        """)
        assert codes(r) == ["stale-host-read"]

    def test_halo_send_before_sync(self):
        """Async update host not waited on before the MPI send reads it."""
        r = sanitize_script("""
            !$lint extent(u=36864)
            !$acc enter data copyin(u)
            !$lint name=fwd dims=96x96 reads=u writes=u
            !$acc parallel loop gang vector
            !$lint bytes=384 offset=384
            !$acc update host(u) async(2)
            !$lint send(u) to=1 bytes=384 offset=384
            !$acc exit data delete(u)
        """)
        assert codes(r) == ["halo-send-before-sync"]

    def test_waited_async_update_is_clean(self):
        r = sanitize_script("""
            !$lint extent(u=36864)
            !$acc enter data copyin(u)
            !$lint name=fwd dims=96x96 reads=u writes=u
            !$acc parallel loop gang vector
            !$lint bytes=384 offset=384
            !$acc update host(u) async(2)
            !$acc wait(2)
            !$lint send(u) to=1 bytes=384 offset=384
            !$acc exit data delete(u)
        """)
        assert r.clean(), codes(r)

    def test_short_ghost_transfer(self):
        """A partial update device narrower than the stencil's ghost need."""
        r = sanitize_script("""
            !$lint extent(u=36864)
            !$acc enter data copyin(u)
            !$lint host_writes(u) bytes=768 offset=0
            !$lint bytes=384 offset=0
            !$acc update device(u)
            !$lint name=fwd dims=96x96 reads=u writes=u halo=2
            !$acc parallel loop gang vector
            !$acc exit data delete(u)
        """)
        assert codes(r) == ["short-ghost-transfer"]

    def test_ghost_transfer_out_of_bounds(self):
        r = sanitize_script("""
            !$lint extent(u=1024)
            !$acc enter data copyin(u)
            !$lint bytes=2048 offset=512
            !$acc update device(u)
            !$acc exit data delete(u)
        """)
        assert codes(r) == ["ghost-transfer-out-of-bounds"]

    def test_unflushed_device_writes_at_copyout(self):
        """exit data copyout while dev-dirty is a stale host copy."""
        r = sanitize_script("""
            !$lint extent(u=1024)
            !$acc enter data copyin(u)
            !$lint name=k writes=u
            !$acc parallel loop
            !$lint host_reads(u)
            !$acc exit data delete(u)
        """)
        assert "stale-host-read" in codes(r)


class TestRegistry:
    def test_every_rule_maps_to_a_pass(self):
        assert set(PASSES) == {
            "stale-device-read",
            "stale-host-read",
            "short-ghost-transfer",
            "ghost-transfer-out-of-bounds",
            "halo-send-before-sync",
        }

    def test_diagnostics_carry_registered_pass_names(self):
        r = run(ExchangeProtocol(update_ghost_device=False))
        for d in r.diagnostics:
            assert PASSES[d.rule] == d.pass_name
