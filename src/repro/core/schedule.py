"""The Figure-4 schedule: the one place that knows a shot's time order.

Algorithm 1 / Figure 4 of the paper is a single control flow: allocate,
time-step forward with a snapshot every ``snap_period``, swap the
forward data for the backward data, time-step backward applying the
imaging condition at every snapshot step, finalize. :func:`figure4`
spells that order out as a flat sequence of ``(phase, step)`` events;
every driver — physics execution, estimate-mode accounting, program
recording, compiled replay, multi-rank runs, checkpoint/restart — walks
the same sequence with :func:`walk`, supplying one callable per phase.

The visitor contract:

* a consumer passes ``visit``, a mapping of every phase name to a
  callable taking the event's step (``None`` for the one-shot phases
  ``allocate``, ``swap`` and ``finalize``);
* device OOM needs no special casing here — ``allocate`` and ``swap``
  hold the schedule's only ``enter data``, so a consumer that maps OOM
  to a failed run wraps the whole walk;
* a restartable handler raises :class:`Rewind` with the event index to
  resume from: a restart moves the cursor back to the first event of the
  checkpointed loop iteration (see :func:`loop_positions`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

from repro.utils.errors import ConfigurationError


#: every phase, in schedule order
PHASES = (
    "allocate", "forward", "snapshot", "swap", "load_snapshot", "imaging", "backward",
    "finalize",
)
#: the phases that repeat once per time step (or per snapshot step)
REPEATED_PHASES = ("forward", "snapshot", "load_snapshot", "imaging", "backward")
MODES = ("modeling", "rtm")

Event = tuple[str, "int | None"]


def is_snap_step(n: int, snap_period: int) -> bool:
    """Whether a snapshot is taken *after* time step ``n`` (0-based; the
    first snap lands on step ``snap_period - 1``)."""
    return (n + 1) % snap_period == 0


@lru_cache(maxsize=64)
def figure4(mode: str, nt: int, snap_period: int) -> tuple[Event, ...]:
    """The flat event sequence of one shot.

    ``modeling`` is the forward half only: allocate, ``nt`` forward steps
    with a snapshot after every snap step, finalize. ``rtm`` adds the
    swap and the backward half, which walks the steps in reverse and
    reloads the stored snapshot and images before each snap step's
    backward step.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode '{mode}'")
    if nt < 0 or snap_period < 1:
        raise ConfigurationError(
            f"need nt >= 0 and snap_period >= 1 (got {nt}, {snap_period})"
        )
    events: list[Event] = [("allocate", None)]
    for n in range(nt):
        events.append(("forward", n))
        if is_snap_step(n, snap_period):
            events.append(("snapshot", n))
    if mode == "rtm":
        events.append(("swap", None))
        for n in range(nt - 1, -1, -1):
            if is_snap_step(n, snap_period):
                events.append(("load_snapshot", n))
                events.append(("imaging", n))
            events.append(("backward", n))
    events.append(("finalize", None))
    return tuple(events)


class Rewind(Exception):
    """Raised by an event handler to move the walk's cursor: the walk
    resumes at event ``index`` (a restart from a checkpoint)."""

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


def walk(
    events: Sequence[Event],
    visit: Mapping[str, Callable[["int | None"], object]],
) -> None:
    """Dispatch every event, in order, to ``visit[phase](step)``; a
    handler raising :class:`Rewind` moves the cursor instead."""
    i = 0
    while i < len(events):
        phase, step = events[i]
        try:
            visit[phase](step)
        except Rewind as rewind:
            i = rewind.index
        else:
            i += 1


def loop_positions(events: Sequence[Event]) -> dict[Event, tuple[str, int]]:
    """Each repeated event's loop iteration: ``(loop, iteration)``.

    ``loop`` is ``"forward"`` (a forward step plus its snapshot) or
    ``"backward"`` (a snapshot reload, imaging, then the backward step);
    ``iteration`` counts the loop's completed iterations, so forward
    step ``n`` is iteration ``n`` and backward step ``n`` is iteration
    ``nt - 1 - n``. Checkpoints are taken and restored on these
    boundaries.
    """
    nt = sum(1 for phase, _ in events if phase == "forward")
    out: dict[Event, tuple[str, int]] = {}
    for phase, step in events:
        if phase in ("forward", "snapshot"):
            out[(phase, step)] = ("forward", step)
        elif phase in ("load_snapshot", "imaging", "backward"):
            out[(phase, step)] = ("backward", nt - 1 - step)
    return out

