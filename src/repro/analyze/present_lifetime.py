"""Present-table lifetime pass.

Statically replays the OpenACC present table over the event sequence and
flags the lifetime bugs the paper fights by hand in its Section 5.1:

* ``use-before-copyin`` — a kernel, update or copyout references an array
  with no live device copy (the runtime's ``PresentTableError``, caught
  before running);
* ``double-delete`` — ``exit data`` detaching data that was never entered
  (or already freed);
* ``leaked-enter-data`` — data still attached when the program ends;
* ``dead-copyout`` — a copyout of an array no device-side event ever wrote
  (suppressed while any kernel with an unknown write set touches it);
* ``redundant-update-device`` — refreshing device data whose host copy has
  not changed since the last host-to-device transfer;
* ``hoistable-data-region`` — the same enter/exit name set cycled many
  times (per-step data regions the paper hoists into one persistent
  ``enter data``/``exit data`` pair around the time loop).
"""

from __future__ import annotations

from repro.analyze.framework import Diagnostic, LintPass, Severity
from repro.analyze.program import DirectiveProgram

#: enter/exit cycles of one name set before we suggest hoisting
HOIST_THRESHOLD = 3


class PresentLifetimePass(LintPass):
    name = "present-lifetime"

    def run(self, program: DirectiveProgram) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        refcount: dict[str, int] = {}
        #: names written on the device since their 0->1 attach
        device_written: set[str] = set()
        #: names whose host copy changed since the last h2d transfer
        host_dirty: set[str] = set()
        #: names a not-fully-analysed kernel may have written
        maybe_written: set[str] = set()
        #: consecutive enter/exit cycles per name set
        cycles: dict[tuple[str, ...], int] = {}
        hoist_reported: set[tuple[str, ...]] = set()

        def absent(name: str) -> bool:
            return refcount.get(name, 0) <= 0

        for e in program.events:
            if e.kind == "enter":
                for name in e.copyin + e.create:
                    refcount[name] = refcount.get(name, 0) + 1
                    if refcount[name] == 1:
                        device_written.discard(name)
                        maybe_written.discard(name)
                for name in e.copyin:
                    host_dirty.discard(name)
            elif e.kind == "exit":
                for name in e.copyout:
                    if absent(name):
                        out.append(self.diag(
                            "use-before-copyin", Severity.ERROR,
                            f"copyout of '{name}' which is not present on the "
                            "device", e.index, var=name,
                        ))
                        continue
                    if (
                        name not in device_written
                        and name not in maybe_written
                    ):
                        out.append(self.diag(
                            "dead-copyout", Severity.WARNING,
                            f"copyout of '{name}' but no kernel or update "
                            "device ever wrote it — the transfer moves stale "
                            "bytes", e.index, var=name,
                        ))
                    self._detach(refcount, name)
                for name in e.delete:
                    if absent(name):
                        out.append(self.diag(
                            "double-delete", Severity.ERROR,
                            f"exit data delete of '{name}' which was never "
                            "entered (or already freed)", e.index, var=name,
                        ))
                        continue
                    self._detach(refcount, name)
                key = tuple(sorted(e.copyout + e.delete))
                if key:
                    cycles[key] = cycles.get(key, 0) + 1
                    if (
                        cycles[key] >= HOIST_THRESHOLD
                        and key not in hoist_reported
                    ):
                        hoist_reported.add(key)
                        out.append(self.diag(
                            "hoistable-data-region", Severity.WARNING,
                            f"data region over ({', '.join(key)}) entered and "
                            f"exited {cycles[key]}+ times — hoist into one "
                            "persistent enter/exit data pair around the time "
                            "loop (paper S5.1: data stays resident across "
                            "steps)", e.index,
                        ))
            elif e.kind == "update":
                name = e.var or ""
                if absent(name):
                    out.append(self.diag(
                        "use-before-copyin", Severity.ERROR,
                        f"update {e.direction}({name}) but '{name}' is not "
                        "present on the device (missing enter data copyin?)",
                        e.index, var=name,
                    ))
                    continue
                if e.direction == "device":
                    if name not in host_dirty and name not in maybe_written:
                        out.append(self.diag(
                            "redundant-update-device", Severity.WARNING,
                            f"update device({name}) but the host copy has not "
                            "changed since the last host-to-device transfer — "
                            "the copy moves identical bytes", e.index, var=name,
                        ))
                    host_dirty.discard(name)
                    device_written.add(name)
                else:
                    host_dirty.discard(name)  # host now mirrors the device
                    maybe_written.discard(name)
            elif e.kind == "compute":
                for name in e.reads + e.writes:
                    if absent(name):
                        out.append(self.diag(
                            "use-before-copyin", Severity.ERROR,
                            f"kernel '{e.kernel}' references '{name}' with no "
                            "live device copy (present clause would fail at "
                            "run time)", e.index, var=name, kernel=e.kernel,
                        ))
                device_written.update(e.writes)
                if not e.writes_known:
                    # conservative: the kernel may write anything it touches
                    maybe_written.update(e.reads)
            elif e.kind == "host_write":
                host_dirty.update(e.writes)

        leaked = sorted(n for n, c in refcount.items() if c > 0)
        if leaked:
            out.append(self.diag(
                "leaked-enter-data", Severity.WARNING,
                f"still attached when the program ends: {', '.join(leaked)} "
                "(missing exit data delete/copyout)",
                len(program.events) - 1 if program.events else None,
            ))
        return out

    @staticmethod
    def _detach(refcount: dict[str, int], name: str) -> None:
        refcount[name] = refcount.get(name, 0) - 1


__all__ = ["PresentLifetimePass", "HOIST_THRESHOLD"]
