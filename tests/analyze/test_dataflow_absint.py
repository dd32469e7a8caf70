"""The fixed-point coherence interpreter: static DF* proofs.

The scripts here are the *same* fault seeds the dynamic sanitizer tests
pin (tests/sanitize/test_hazards.py); the agreement class asserts that
every hazard the sanitizer catches at runtime is proven statically with
the matching ``DF*`` code and a non-empty event-chain witness.
"""

import pytest

from repro.analyze import program_from_script
from repro.analyze.cli import lint_case
from repro.analyze.dataflow import interpret_program
from repro.analyze.framework import Severity
from repro.analyze.rules import rule
from repro.bench.workloads import SEED_PAIRS as _INVENTORY
from repro.sanitize import sanitize_script

#: rule key -> the fault-seeded script both detectors must flag
SEEDED = {
    "stale-device-read": """
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint host_writes(u) bytes=768 offset=0
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$acc exit data delete(u)
    """,
    "stale-host-read": """
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$acc wait
        !$lint send(u) to=1 bytes=384 offset=384
        !$acc exit data delete(u)
    """,
    "halo-send-before-sync": """
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$lint bytes=384 offset=384
        !$acc update host(u) async(2)
        !$lint send(u) to=1 bytes=384 offset=384
        !$acc exit data delete(u)
    """,
    "short-ghost-transfer": """
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint host_writes(u) bytes=768 offset=0
        !$lint bytes=384 offset=0
        !$acc update device(u)
        !$lint name=fwd dims=96x96 reads=u writes=u halo=2
        !$acc parallel loop gang vector
        !$acc exit data delete(u)
    """,
    "ghost-transfer-out-of-bounds": """
        !$lint extent(u=1024)
        !$acc enter data copyin(u)
        !$lint bytes=2048 offset=512
        !$acc update device(u)
        !$acc exit data delete(u)
    """,
}

CLEAN = """
    !$lint extent(u=36864)
    !$acc enter data copyin(u)
    !$lint host_writes(u) bytes=768 offset=0
    !$acc update device(u)
    !$lint name=fwd dims=96x96 reads=u writes=u
    !$acc parallel loop gang vector
    !$acc update host(u)
    !$acc exit data delete(u)
"""


def interpret(text):
    return interpret_program(program_from_script(text))


class TestStaticProofs:
    @pytest.mark.parametrize("key", sorted(SEEDED))
    def test_seeded_hazard_is_proven(self, key):
        s = interpret(SEEDED[key])
        codes = {d.rule for d in s.diagnostics}
        assert rule(key).static_rule in codes, codes

    def test_clean_script_is_proven_clean(self):
        assert interpret(CLEAN).clean()

    def test_witness_is_the_event_chain(self):
        s = interpret(SEEDED["stale-device-read"])
        (d,) = s.diagnostics
        # host_write at event 1, consuming kernel at event 2
        assert d.witness == (1, 2)
        assert d.severity is Severity.ERROR
        assert "witness" in d.to_dict()

    def test_copyout_of_host_dirty_bytes(self):
        s = interpret("""
            !$lint extent(u=1024)
            !$acc enter data copyin(u)
            !$lint host_writes(u) bytes=256 offset=0
            !$acc exit data copyout(u)
        """)
        assert {d.rule for d in s.diagnostics} == {"DF001-stale-device-read"}

    def test_waited_async_update_is_clean(self):
        s = interpret("""
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
        assert s.clean(), [d.rule for d in s.diagnostics]


class TestLoopClosure:
    def test_second_iteration_hazard_is_proven(self):
        """The classic first-iteration-clean bug: the send reads bytes the
        *previous* iteration's kernel left device-dirty. Only the loop
        closure (joining the body's exit state into its entry) sees it."""
        body = """
            !$lint send(u) to=1 bytes=256 offset=0
            !$lint name=k writes=u
            !$acc parallel loop
        """
        s = interpret(
            "!$lint extent(u=1024)\n!$acc enter data copyin(u)\n"
            + body * 3
            + "!$acc exit data delete(u)"
        )
        assert len(s.regions) == 1
        assert {d.rule for d in s.diagnostics} == {"DF002-stale-host-read"}
        (d,) = s.diagnostics
        assert len(d.witness) >= 2  # the causing kernel + the send

    def test_fixpoint_converges_in_few_rounds(self):
        body = """
            !$lint name=k reads=u writes=u
            !$acc parallel loop
            !$acc update host(u)
        """
        s = interpret(
            "!$lint extent(u=1024)\n!$acc enter data copyin(u)\n" + body * 4
        )
        assert s.regions and all(n <= 4 for n in s.iterations.values())

    def test_steady_state_facts_mark_dead_transfers(self):
        """An update that never clears dirty bytes on either side is dead
        traffic — the fact the cancellation pass consumes."""
        s = interpret("""
            !$lint extent(u=1024)
            !$acc enter data copyin(u)
            !$acc update host(u)
            !$acc update device(u)
            !$acc exit data delete(u)
        """)
        dead = [
            idx for idx, f in s.facts.items()
            if f["host_dirty_cleared"] == 0 and f["dev_dirty_cleared"] == 0
        ]
        assert len(dead) == 2

    def test_live_transfer_facts_count_cleared_bytes(self):
        s = interpret("""
            !$lint extent(u=1024)
            !$acc enter data copyin(u)
            !$lint host_writes(u) bytes=256 offset=0
            !$acc update device(u)
            !$acc exit data delete(u)
        """)
        (fact,) = [f for f in s.facts.values() if f["host_dirty_cleared"]]
        assert fact["host_dirty_cleared"] == 256


class TestStaticDynamicAgreement:
    @pytest.mark.parametrize("key", sorted(SEEDED))
    def test_every_dynamic_finding_has_a_static_proof(self, key):
        dynamic = sanitize_script(SEEDED[key])
        static = interpret(SEEDED[key])
        static_codes = {d.rule for d in static.diagnostics}
        for d in dynamic.diagnostics:
            r = rule(d.rule)
            assert r.static_rule in static_codes, (d.rule, static_codes)
        for d in static.diagnostics:
            assert d.witness, d.rule

    def test_both_detectors_clean_on_the_clean_protocol(self):
        assert sanitize_script(CLEAN).clean()
        assert interpret(CLEAN).clean()


class TestSeedSweep:
    @pytest.mark.parametrize("physics,ndim", _INVENTORY)
    @pytest.mark.parametrize("mode", ["modeling", "rtm"])
    def test_seed_case_is_deep_clean(self, physics, ndim, mode):
        """All 12 recorded seed programs must carry zero statically-proven
        coherence errors (warnings from the local passes are fine)."""
        r = lint_case(physics, ndim, mode, nt=8, deep=True)
        errors = [d for d in r.diagnostics if d.severity is Severity.ERROR]
        assert errors == []
        assert not [d for d in r.diagnostics if d.rule.startswith("DF")]
