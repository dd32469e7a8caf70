"""Golden-diagnostic tests: every sanitizer hazard code, fault-seeded.

Each live test wires one :class:`~repro.core.multigpu.ExchangeProtocol`
fault knob into the executed per-rank multi-GPU path and pins the single
diagnostic code the sanitizer must report for it; the script tests seed
the same hazards in hand-written ``!$acc`` scripts (including the
out-of-bounds transfer, which the live present table refuses to execute).
The live runs, the scripts and the one-rank seed programs are also
re-read by the static interpreter, which must prove no rule on a rank
that the sanitizer did not report there.
"""

import pytest

from repro.analyze.dataflow.absint import interpret_program
from repro.analyze.framework import Severity
from repro.analyze.rules import rule
from repro.bench.workloads import MODES, SEED_PAIRS
from repro.core.multigpu import ExchangeProtocol
from repro.sanitize import PASSES, sanitize_pipeline, sanitize_script
from repro.sanitize.cli import sanitize_case
from tests.sanitize.seeded import LIVE_FAULTS, SCRIPTS


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


class TestStaticWithinDynamic:
    """The converse of the static/dynamic agreement: on every live
    recording, seeded script and one-rank seed program, each rule
    ``interpret_program`` proves is one the sanitizer reported for the
    same rank."""

    @staticmethod
    def proved_within_reported(result) -> set[str]:
        proved = set()
        for rank, program in enumerate(result.programs):
            prefix = f"[rank {rank}] " if result.nranks > 1 else ""
            dynamic = {
                rule(d.rule).static_rule for d in result.diagnostics
                if d.message.startswith(prefix)
            }
            static = {d.rule for d in interpret_program(program).diagnostics}
            assert static <= dynamic, (rank, static, dynamic)
            proved |= static
        return proved

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ranks", [2, 4])
    @pytest.mark.parametrize("fault", sorted(LIVE_FAULTS))
    def test_static_rules_are_dynamic_rules(self, fault, ranks, mode):
        kwargs, expected = LIVE_FAULTS[fault]
        proved = self.proved_within_reported(
            run(ranks=ranks, mode=mode, **kwargs)
        )
        assert proved == ({rule(expected).static_rule} if expected else set())

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_seeded_scripts(self, name):
        self.proved_within_reported(sanitize_script(SCRIPTS[name]))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("physics,ndim", SEED_PAIRS)
    def test_seed_programs_at_one_rank(self, physics, ndim, mode):
        self.proved_within_reported(sanitize_case(physics, ndim, mode))


class TestScriptSeeded:
    def test_stale_device_read(self):
        r = sanitize_script(SCRIPTS["stale-device-read"])
        assert codes(r) == ["stale-device-read"]
        (d,) = r.diagnostics
        assert d.severity is Severity.ERROR
        assert d.fix is not None

    def test_update_device_makes_it_clean(self):
        r = sanitize_script(SCRIPTS["update-device-clean"])
        assert r.clean(), codes(r)

    def test_stale_host_read_on_send(self):
        r = sanitize_script(SCRIPTS["stale-host-read"])
        assert codes(r) == ["stale-host-read"]

    def test_halo_send_before_sync(self):
        """Async update host not waited on before the MPI send reads it."""
        r = sanitize_script(SCRIPTS["halo-send-before-sync"])
        assert codes(r) == ["halo-send-before-sync"]

    def test_waited_async_update_is_clean(self):
        r = sanitize_script(SCRIPTS["waited-async-update"])
        assert r.clean(), codes(r)

    def test_short_ghost_transfer(self):
        """A partial update device narrower than the stencil's ghost need."""
        r = sanitize_script(SCRIPTS["short-ghost-transfer"])
        assert codes(r) == ["short-ghost-transfer"]

    def test_ghost_transfer_out_of_bounds(self):
        r = sanitize_script(SCRIPTS["ghost-transfer-out-of-bounds"])
        assert codes(r) == ["ghost-transfer-out-of-bounds"]

    def test_unflushed_device_writes_at_copyout(self):
        """exit data copyout while dev-dirty is a stale host copy."""
        r = sanitize_script(SCRIPTS["unflushed-copyout"])
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
