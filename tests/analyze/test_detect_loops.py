"""``detect_loops`` against the pure-Python period scan it replaced.

The oracle below is a literal copy of the former loop detector: per
period, a Python scan for maximal runs of ``sig[i] == sig[i + period]``
over signature tuples, then the same candidate sort and greedy choice.
The array-based detector must return exactly the same regions for every
stream, ``min_reps`` and ``max_period`` — periodic bodies with injected
noise, random streams, and the empty and one-event programs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.dataflow import detect_loops
from repro.analyze.dataflow.graph import LoopRegion, _signature
from repro.analyze.program import AccEvent, DirectiveProgram

#: six events with pairwise distinct signatures, one per symbol
ALPHABET = (
    AccEvent(kind="compute", kernel="k0", reads=("u",), writes=("v",)),
    AccEvent(kind="compute", kernel="k1", reads=("v",), queue=1),
    AccEvent(kind="update", direction="host", var="u", nbytes=64),
    AccEvent(kind="wait", wait_on=(1,)),
    AccEvent(kind="host_write", writes=("u",)),
    AccEvent(kind="enter", copyin=("w",)),
)


def _oracle(program, min_reps=2, max_period=256):
    sigs = [_signature(e) for e in program.events]
    n = len(sigs)
    candidates: list[tuple[int, int, int]] = []  # (start, period, reps)
    for period in range(1, min(max_period, n // min_reps) + 1):
        match = [False] * n
        for i in range(n - period):
            match[i] = sigs[i] == sigs[i + period]
        i = 0
        while i < n - period:
            if not match[i]:
                i += 1
                continue
            j = i
            while j < n - period and match[j]:
                j += 1
            # sigs[i .. j+period) is periodic with this period
            reps = (j + period - i) // period
            if reps >= min_reps:
                candidates.append((i, period, reps))
            i = j + 1
    # prefer large coverage; among equals, the smaller period (tighter loop)
    candidates.sort(key=lambda c: (-(c[1] * c[2]), c[1], c[0]))
    chosen: list[LoopRegion] = []
    taken: list[tuple[int, int]] = []
    for start, period, reps in candidates:
        stop = start + period * reps
        if any(start < t_stop and stop > t_start for t_start, t_stop in taken):
            continue
        chosen.append(LoopRegion(start=start, period=period, reps=reps))
        taken.append((start, stop))
    chosen.sort(key=lambda r: r.start)
    return chosen


def _program(symbols):
    """One event per symbol; labels vary per position, as script line
    numbers do, and must not break periodicity."""
    p = DirectiveProgram()
    for pos, s in enumerate(symbols):
        p.add(AccEvent(**{**ALPHABET[s].__dict__, "label": f"line {pos}"}))
    return p


@st.composite
def periodic_streams(draw):
    k = draw(st.integers(1, 6))
    sym = st.integers(0, k - 1)
    body = draw(st.lists(sym, min_size=1, max_size=24))
    reps = draw(st.integers(0, 300 // len(body)))
    prefix = draw(st.lists(sym, max_size=12))
    suffix = draw(st.lists(sym, max_size=12))
    stream = (prefix + body * reps + suffix)[:300]
    noise = draw(st.lists(
        st.tuples(st.integers(0, 299), sym), max_size=8,
    ))
    for pos, s in noise:
        if pos < len(stream):
            stream[pos] = s
    return stream


@st.composite
def random_streams(draw):
    k = draw(st.integers(1, 6))
    return draw(st.lists(st.integers(0, k - 1), max_size=300))


PARAMS = dict(
    min_reps=st.sampled_from((1, 2, 3)),
    max_period=st.sampled_from((1, 4, 256)),
)


@settings(max_examples=120, deadline=None)
@given(stream=periodic_streams(), **PARAMS)
def test_periodic_streams_match_the_scan(stream, min_reps, max_period):
    p = _program(stream)
    assert detect_loops(p, min_reps, max_period) == _oracle(
        p, min_reps, max_period
    )


@settings(max_examples=80, deadline=None)
@given(stream=random_streams(), **PARAMS)
def test_random_streams_match_the_scan(stream, min_reps, max_period):
    p = _program(stream)
    assert detect_loops(p, min_reps, max_period) == _oracle(
        p, min_reps, max_period
    )


@pytest.mark.parametrize("min_reps", (1, 2, 3))
@pytest.mark.parametrize("max_period", (1, 4, 256))
@pytest.mark.parametrize("stream", ([], [0], [3]))
def test_empty_and_one_event_programs(stream, min_reps, max_period):
    p = _program(stream)
    assert detect_loops(p, min_reps, max_period) == []
    assert _oracle(p, min_reps, max_period) == []


def test_regions_carry_python_ints():
    # regions feed JSON artifacts (``repro deps --format json``)
    (r,) = detect_loops(_program([0, 1, 2] * 5))
    assert r == LoopRegion(start=0, period=3, reps=5)
    assert all(type(v) is int for v in (r.start, r.period, r.reps))
