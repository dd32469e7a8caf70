"""``DirectiveProgram.add``: re-indexing is a field copy equal to
``dataclasses.replace``, the source event is never mutated, and an event
that already carries its position is shared rather than copied."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.acc.clauses import LoopSchedule
from repro.bench.workloads import RECORD_SHAPES as _SHAPES
from repro.analyze.dataflow.opportunities import (
    OptimizationOpportunity,
    apply_opportunity,
)
from repro.analyze.drivers import record_pipeline_program
from repro.analyze.program import KINDS, AccEvent, DirectiveProgram

names = st.lists(
    st.sampled_from(("u", "v", "w", "vx", "sxx")), max_size=3, unique=True,
).map(tuple)
maybe_int = st.none() | st.integers(0, 1 << 20)
schedules = st.none() | st.builds(
    LoopSchedule,
    gang=st.booleans(), vector=st.booleans(),
    vector_length=st.sampled_from((32, 128, 256)),
    collapse=st.integers(1, 3),
)

events = st.builds(
    AccEvent,
    kind=st.sampled_from(KINDS),
    index=st.integers(0, 40),
    queue=st.none() | st.integers(0, 3),
    label=st.none() | st.sampled_from(("forward", "line 7")),
    copyin=names, create=names, delete=names, copyout=names,
    structured=st.booleans(),
    direction=st.none() | st.sampled_from(("host", "device")),
    var=st.none() | st.sampled_from(("u", "v")),
    nbytes=maybe_int,
    chunks=st.integers(1, 4),
    offset=st.integers(0, 4096),
    peer=st.none() | st.integers(0, 3),
    construct=st.none() | st.sampled_from(("parallel", "kernels")),
    kernel=st.none() | st.sampled_from(("k1", "k2")),
    reads=names, writes=names,
    writes_known=st.booleans(),
    schedule=schedules,
    loop_dims=st.lists(st.integers(1, 512), max_size=3).map(tuple),
    inner_contiguous=st.booleans(),
    loop_carried=st.booleans(),
    halo=maybe_int,
    regs_demand=maybe_int,
    wait_on=st.lists(st.integers(0, 3), max_size=2).map(tuple),
    wait_all=st.booleans(),
)


def _snapshot(e):
    return dict(e.__dict__)


@settings(max_examples=200, deadline=None)
@given(prefix=st.lists(events, max_size=6), event=events)
def test_add_equals_replace(prefix, event):
    program = DirectiveProgram()
    for e in prefix:
        program.add(e)
    position = len(program)
    before = _snapshot(event)
    added = program.add(event)
    expected = replace(event, index=position)
    assert added == expected
    assert hash(added) == hash(expected)
    assert added.__dict__ == expected.__dict__
    assert type(added) is AccEvent
    assert program.events[-1] is added
    assert _snapshot(event) == before
    if event.index == position:
        assert added is event
    else:
        assert added is not event


@settings(max_examples=50, deadline=None)
@given(event=events)
def test_added_copy_is_frozen(event):
    program = DirectiveProgram()
    added = program.add(replace(event, index=7))
    with pytest.raises(AttributeError):
        added.index = 3


@pytest.mark.parametrize("kind", ("", "launch", "Compute", "update "))
def test_unknown_kind_raises_at_construction(kind):
    with pytest.raises(ValueError, match="unknown event kind"):
        AccEvent(kind=kind)


@settings(max_examples=100, deadline=None)
@given(stream=st.lists(events, max_size=12), anchor=st.integers(0, 11))
def test_apply_without_removal_keeps_sha(stream, anchor):
    program = DirectiveProgram()
    for e in stream:
        program.add(e)
    opp = OptimizationOpportunity(
        kind="cancel-update-pair", events=(anchor,), remove_events=(),
    )
    out = apply_opportunity(program, opp)
    assert out.sha() == program.sha()
    assert all(a is b for a, b in zip(out.events, program.events))


@pytest.mark.parametrize("mode", ("modeling", "rtm"))
def test_recorded_program_rebuild_keeps_sha_and_shares_events(mode):
    program = record_pipeline_program(
        "acoustic", _SHAPES[2], mode, nt=6, snap_period=4,
    )
    assert all(e.index == i for i, e in enumerate(program.events))
    opp = OptimizationOpportunity(
        kind="cancel-update-pair", events=(0,), remove_events=(),
    )
    out = apply_opportunity(program, opp)
    assert out.sha() == program.sha()
    assert len(out) == len(program)
    assert all(a is b for a, b in zip(out.events, program.events))


def _no_copy(event, index):
    raise AssertionError(f"event re-indexed from {event.index} to {index}")


@pytest.mark.parametrize("ranks", (1, 2))
def test_recording_never_copies(monkeypatch, ranks):
    """The recorder and the sanitizer stamp each event with its position
    when they build it, so recording appends without a copy."""
    from repro.analyze import program as program_module
    from repro.sanitize.drivers import sanitize_pipeline

    monkeypatch.setattr(program_module, "_reindexed", _no_copy)
    if ranks == 1:
        programs = [record_pipeline_program(
            "acoustic", _SHAPES[2], "rtm", nt=6, snap_period=4,
        )]
    else:
        programs = sanitize_pipeline(
            "acoustic", _SHAPES[2], "rtm", ranks=2, nt=6, snap_period=4,
        ).programs
        assert any(e.kind in ("send", "recv") for e in programs[1].events)
    for program in programs:
        assert all(e.index == i for i, e in enumerate(program.events))
