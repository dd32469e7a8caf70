"""The Figure-4 schedule (``repro.core.schedule``) against the loop order
the drivers used to hand-write.

The oracle below is a literal copy of the control flow of the former
``run_pipeline_modeling`` / ``run_pipeline_rtm`` estimate loops, driving
a recorder instead of a device. The schedule must produce exactly the
same phase-method call sequence for every mode, ``nt`` and
``snap_period`` — including ``nt < snap_period`` and non-multiples.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import (
    PHASES,
    Rewind,
    figure4,
    is_snap_step,
    loop_positions,
    walk,
)
from repro.utils.errors import ConfigurationError

#: schedule phase -> the OffloadPipeline method the old loops called
METHOD = {
    "allocate": "allocate_forward",
    "forward": "forward_step",
    "snapshot": "snapshot_to_host",
    "swap": "swap_to_backward",
    "load_snapshot": "load_forward_snapshot",
    "imaging": "imaging_step",
    "backward": "backward_step",
    "finalize": "finalize",
}


class _Recorder:
    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *a, **k: self.calls.append(name)


def _oracle(mode, nt, snap_period):
    pipeline = _Recorder()
    if mode == "modeling":
        pipeline.allocate_forward()
        for n in range(nt):
            pipeline.forward_step()
            if (n + 1) % snap_period == 0:
                pipeline.snapshot_to_host(decimate=4)
        pipeline.finalize(with_image=False)
        return pipeline.calls
    pipeline.allocate_forward()
    for n in range(nt):
        pipeline.forward_step()
        if (n + 1) % snap_period == 0:
            pipeline.snapshot_to_host(decimate=1)
    pipeline.swap_to_backward()
    for n in range(nt - 1, -1, -1):
        if (n + 1) % snap_period == 0:
            pipeline.load_forward_snapshot()
            pipeline.imaging_step()
        pipeline.backward_step()
    pipeline.finalize(with_image=True)
    return pipeline.calls


schedules = st.tuples(
    st.sampled_from(("modeling", "rtm")),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=9),
)


@settings(max_examples=200, deadline=None)
@given(schedules)
def test_schedule_matches_the_hand_written_loops(schedule):
    mode, nt, snap_period = schedule
    events = figure4(mode, nt, snap_period)
    assert [METHOD[phase] for phase, _ in events] == _oracle(mode, nt, snap_period)
    # the step numbers: repeated phases carry their time step, one-shot
    # phases none; snapshot steps are exactly the snap predicate's
    for phase, step in events:
        if phase in ("allocate", "swap", "finalize"):
            assert step is None
        elif phase != "forward" and phase != "backward":
            assert is_snap_step(step, snap_period)
    assert [s for p, s in events if p == "forward"] == list(range(nt))
    if mode == "rtm":
        assert [s for p, s in events if p == "backward"] == list(range(nt))[::-1]


@settings(max_examples=100, deadline=None)
@given(schedules)
def test_walk_dispatches_every_event_in_order(schedule):
    events = figure4(*schedule)
    seen = []
    walk(events, {p: (lambda s, p=p: seen.append((p, s))) for p in PHASES})
    assert seen == list(events)


@settings(max_examples=100, deadline=None)
@given(schedules)
def test_loop_positions_follow_the_iterations(schedule):
    mode, nt, _ = schedule
    events = figure4(*schedule)
    pos = loop_positions(events)
    assert set(pos) == {e for e in events if e[1] is not None}
    for (phase, step), (loop, it) in pos.items():
        if loop == "forward":
            assert phase in ("forward", "snapshot") and it == step
        else:
            assert mode == "rtm" and it == nt - 1 - step
    # iterations run 0, 1, 2, ... within each loop
    order = []
    for e in events:
        if e in pos and (not order or order[-1] != pos[e]):
            order.append(pos[e])
    assert order == [("forward", n) for n in range(nt)] + (
        [("backward", m) for m in range(nt)] if mode == "rtm" else []
    )


def test_rewind_moves_the_cursor_back():
    events = figure4("modeling", 6, 2)
    seen, failed = [], []

    def forward(step):
        if step == 4 and not failed:
            failed.append(step)
            raise Rewind(events.index(("forward", 2)))
        seen.append(step)

    visit = {p: (lambda s: None) for p in PHASES}
    visit["forward"] = forward
    walk(events, visit)
    assert seen == [0, 1, 2, 3, 2, 3, 4, 5]


def test_walk_propagates_handler_errors():
    visit = {p: (lambda s: None) for p in PHASES}
    visit["finalize"] = lambda s: 1 / 0
    with pytest.raises(ZeroDivisionError):
        walk(figure4("rtm", 3, 2), visit)


def test_is_snap_step():
    assert [n for n in range(12) if is_snap_step(n, 5)] == [4, 9]


def test_nt_below_snap_period_takes_no_snapshot():
    events = figure4("rtm", 3, 5)
    assert not [e for e in events if e[0] in ("snapshot", "load_snapshot", "imaging")]


@pytest.mark.parametrize("args", [("migrate", 4, 2), ("rtm", -1, 2), ("rtm", 4, 0)])
def test_bad_schedule_is_a_configuration_error(args):
    with pytest.raises(ConfigurationError):
        figure4(*args)
