"""Fixit round trips: seeded script -> apply_fixes -> re-sanitize clean."""

from repro.sanitize import apply_fixes, collect_fixes, sanitize_script
from tests.sanitize.seeded import SCRIPTS


def roundtrip(text):
    before = sanitize_script(text)
    assert not before.clean(), "seed script must start dirty"
    fixed, applied = apply_fixes(text, before.diagnostics)
    assert applied == len(collect_fixes(before.diagnostics))
    after = sanitize_script(fixed)
    assert after.clean(), [d.rule for d in after.diagnostics]
    return fixed


class TestRoundTrips:
    def test_insert_update_device(self):
        fixed = roundtrip(SCRIPTS["stale-device-read"])
        assert "update device(u)" in fixed
        assert "bytes=768" in fixed  # minimal byte extent, not full array

    def test_insert_update_self(self):
        fixed = roundtrip(SCRIPTS["stale-host-read"])
        assert "update self(u)" in fixed
        assert "offset=384" in fixed

    def test_insert_wait_before_send(self):
        fixed = roundtrip(SCRIPTS["halo-send-before-sync"])
        assert "!$acc wait(2)" in fixed
        # the wait lands between the async update and the send
        lines = fixed.splitlines()
        i_upd = next(i for i, l in enumerate(lines) if "async(2)" in l)
        i_wait = next(i for i, l in enumerate(lines) if "wait(2)" in l)
        i_send = next(i for i, l in enumerate(lines) if "send(u)" in l)
        assert i_upd < i_wait < i_send

    def test_widen_short_ghost_update(self):
        fixed = roundtrip(SCRIPTS["short-ghost-transfer"])
        # widened in place: halo(2) * 96 cols * 4 bytes = 768
        assert "bytes=768" in fixed
        assert "bytes=384" not in fixed
        assert fixed.count("update device(u)") == 1

    def test_multiple_findings_fixed_in_one_pass(self):
        fixed = roundtrip(SCRIPTS["two-arrays-stale"])
        assert "update device(u)" in fixed
        assert "update device(v)" in fixed

    def test_indentation_matches_anchor(self):
        text = SCRIPTS["indented-anchor"]
        before = sanitize_script(text)
        fixed, _ = apply_fixes(text, before.diagnostics)
        inserted = [l for l in fixed.splitlines() if "update device" in l]
        assert inserted and inserted[0].startswith("    ")

    def test_apply_with_no_fixable_findings_is_noop(self):
        text = SCRIPTS["enter-exit-only"]
        result = sanitize_script(text)
        fixed, applied = apply_fixes(text, result.diagnostics)
        assert applied == 0 and fixed == text
