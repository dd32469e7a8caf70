"""Record a live :class:`~repro.acc.runtime.Runtime` into a DirectiveProgram.

The runtime exposes a recording hook (``Runtime.attach_recorder``); every
data/update/compute/wait directive it executes is re-emitted here as an
:class:`~repro.analyze.program.AccEvent`, so real pipeline runs produce the
same IR the script frontend builds — and the lint passes apply to both.
"""

from __future__ import annotations

from repro.analyze.program import AccEvent, DirectiveProgram, ProgramMeta


class ProgramRecorder:
    """Builds a :class:`DirectiveProgram` from runtime hook callbacks.

    Attach with ``rt.attach_recorder(recorder)`` *before* driving the
    runtime; read ``recorder.program`` afterwards. The recorder fills
    :class:`ProgramMeta` lazily from the runtime it is attached to (device
    spec, compiler persona, compile flags).
    """

    def __init__(self, name: str = "recorded"):
        self.program = DirectiveProgram(ProgramMeta(source="recorded", name=name))

    # ------------------------------------------------------------------
    def bind_runtime(self, rt) -> None:
        """Called by ``Runtime.attach_recorder`` — captures the context."""
        spec = rt.device.spec
        self.program.meta = ProgramMeta(
            source="recorded",
            name=self.program.meta.name,
            device=spec.name,
            warp_size=spec.warp_size,
            max_regs_per_thread=spec.max_regs_per_thread,
            max_threads_per_block=spec.max_threads_per_block,
            compiler=rt.compiler.name,
            vendor=rt.compiler.vendor,
            maxregcount=rt.flags.maxregcount,
            auto_async=rt._auto_async,
        )

    # ------------------------------------------------------------------
    def record(self, kind: str, sizes: dict[str, int] | None = None, **fields) -> None:
        """The hook entry point: one directive executed by the runtime."""
        self.program.add(AccEvent(
            kind=kind, index=len(self.program), **fields
        ), sizes=sizes)


__all__ = ["ProgramRecorder"]
