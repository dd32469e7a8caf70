"""Reduction engine: synthetic span sets plus a golden 2-rank trace."""

import json
import os

import pytest

from repro.observe.reduce import (
    interval_measure,
    intersect_intervals,
    merge_intervals,
    percentile,
    rank_of_event,
    reduce_trace,
)
from repro.trace.tracer import SPAN, TraceEvent


def span(name, cat, start, end, process="gpu:sim", track="queue:0"):
    return TraceEvent(name, cat, process, track, start, end, SPAN)


class TestIntervalAlgebra:
    def test_merge_unions_overlaps(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(2, 2), (3, 1)]) == []

    def test_measure(self):
        assert interval_measure([(0, 2), (5, 6)]) == pytest.approx(3.0)

    def test_intersect(self):
        a = [(0.0, 4.0), (6.0, 8.0)]
        b = [(2.0, 7.0)]
        assert intersect_intervals(a, b) == [(2.0, 4.0), (6.0, 7.0)]


class TestPercentile:
    """Nearest rank: the value at rank ceil(q * n), 1-based."""

    def test_ten_values(self):
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 0.50) == 5.0
        assert percentile(values, 0.90) == 9.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 10.0

    def test_twenty_values_p95_is_not_the_max(self):
        values = [float(v) for v in range(1, 21)]
        assert percentile(values, 0.50) == 10.0
        assert percentile(values, 0.95) == 19.0

    def test_empty(self):
        assert percentile([], 0.95) == 0.0


class TestRankOfEvent:
    def test_prefixed_process(self):
        assert rank_of_event(span("k", "kernel", 0, 1,
                                  process="rank3:gpu:sim")) == 3

    def test_halo_track(self):
        assert rank_of_event(span("halo.recv", "halo", 0, 1,
                                  process="mpi", track="rank:2")) == 2

    def test_unranked(self):
        assert rank_of_event(span("k", "kernel", 0, 1)) is None


class TestOverlapFractions:
    def test_fully_overlapped(self):
        # comm entirely under a compute span: 100% hidden
        events = [
            span("k", "kernel", 0.0, 10.0),
            span("halo.recv", "halo", 2.0, 4.0, process="mpi", track="rank:0"),
        ]
        red = reduce_trace(events)
        rank = red.ranks[0]
        assert rank.comm_overlap_fraction == pytest.approx(1.0)
        assert red.comm_overlap_fraction == pytest.approx(1.0)

    def test_disjoint(self):
        events = [
            span("k", "kernel", 0.0, 5.0),
            span("up", "h2d", 5.0, 8.0),
        ]
        red = reduce_trace(events)
        rank = red.ranks[0]
        assert rank.transfer_overlap_fraction == pytest.approx(0.0)
        assert rank.compute_s == pytest.approx(5.0)
        assert rank.transfer_s == pytest.approx(3.0)
        assert red.makespan_s == pytest.approx(8.0)

    def test_partial_overlap(self):
        # transfer [4, 10], compute [0, 7]: 3 of 6 transfer seconds hidden
        events = [
            span("k", "kernel", 0.0, 7.0),
            span("up", "h2d", 4.0, 10.0),
        ]
        red = reduce_trace(events)
        rank = red.ranks[0]
        assert rank.transfer_overlap_s == pytest.approx(3.0)
        assert rank.transfer_overlap_fraction == pytest.approx(0.5)

    def test_union_not_double_counted(self):
        # two overlapping kernels count their union, not their sum
        events = [
            span("a", "kernel", 0.0, 4.0),
            span("b", "kernel", 2.0, 6.0, track="queue:1"),
        ]
        red = reduce_trace(events)
        assert red.ranks[0].compute_s == pytest.approx(6.0)

    def test_ranks_kept_separate(self):
        events = [
            span("k", "kernel", 0.0, 4.0, process="rank0:gpu:sim"),
            span("k", "kernel", 0.0, 8.0, process="rank1:gpu:sim"),
            span("halo.recv", "halo", 1.0, 2.0, process="mpi", track="rank:1"),
        ]
        red = reduce_trace(events)
        assert red.nranks == 2
        assert red.ranks[0].comm_s == 0.0
        assert red.ranks[1].comm_s == pytest.approx(1.0)
        assert red.ranks[1].comm_overlap_fraction == pytest.approx(1.0)
        # aggregate compute is the slowest rank's (lockstep semantics)
        assert red.compute_s == pytest.approx(8.0)


class TestQueuesAndKernels:
    def test_multi_queue_utilization(self):
        events = [
            span("a", "kernel", 0.0, 5.0, track="queue:1"),
            span("b", "kernel", 0.0, 10.0, track="queue:2"),
            span("up", "h2d", 5.0, 10.0, track="queue:1"),
        ]
        red = reduce_trace(events)
        util = {(q.process, q.track): q.utilization for q in red.queues}
        assert util[("gpu:sim", "queue:1")] == pytest.approx(1.0)
        assert util[("gpu:sim", "queue:2")] == pytest.approx(1.0)
        busy = {(q.process, q.track): q.busy_s for q in red.queues}
        assert busy[("gpu:sim", "queue:1")] == pytest.approx(10.0)

    def test_kernel_aggregates(self):
        events = [span("stencil", "kernel", float(i), float(i) + 1.0)
                  for i in range(10)]
        events.append(span("stencil", "kernel", 20.0, 25.0))
        red = reduce_trace(events)
        agg = red.kernels["stencil"]
        assert agg.count == 11
        assert agg.total_s == pytest.approx(15.0)
        assert agg.max_s == pytest.approx(5.0)
        assert agg.p95_s == pytest.approx(5.0)
        assert agg.mean_s == pytest.approx(15.0 / 11)

    def test_phase_spans_excluded_from_work(self):
        # the umbrella phase span must not dominate the critical chain
        events = [
            span("run", "phase", 0.0, 100.0, process="host", track="run"),
            span("k", "kernel", 0.0, 3.0),
        ]
        red = reduce_trace(events)
        assert red.makespan_s == pytest.approx(3.0)
        assert red.critical_path.chain_s == pytest.approx(3.0)


class TestCriticalPath:
    def test_chain_picks_heaviest_sequence(self):
        # chain a(0-4) -> c(5-11) = 10 beats b(0-9) = 9
        events = [
            span("a", "kernel", 0.0, 4.0),
            span("b", "kernel", 0.0, 9.0, track="queue:1"),
            span("c", "kernel", 5.0, 11.0, track="queue:2"),
        ]
        red = reduce_trace(events)
        assert red.critical_path.chain_s == pytest.approx(10.0)

    def test_composition_priority_and_idle(self):
        # compute [0,4], comm [2,6] (2s exclusive), idle [6,8] before [8,9]
        events = [
            span("k", "kernel", 0.0, 4.0),
            span("halo.recv", "halo", 2.0, 6.0, process="mpi", track="rank:0"),
            span("up", "h2d", 8.0, 9.0),
        ]
        red = reduce_trace(events)
        comp = red.critical_path.composition
        assert comp["compute"] == pytest.approx(4.0)
        assert comp["comm"] == pytest.approx(2.0)
        assert comp["transfer"] == pytest.approx(1.0)
        assert comp["idle"] == pytest.approx(2.0)
        total = sum(comp.values())
        assert total == pytest.approx(red.makespan_s)

    def test_empty_trace(self):
        red = reduce_trace([])
        assert red.makespan_s == 0.0
        assert red.summary_metrics()["kernel_launches"] == 0


class TestGoldenTwoRank:
    def test_recorded_2rank_trace_matches_golden(self):
        from repro.trace.cli import trace_case

        path = os.path.join(os.path.dirname(__file__), "golden",
                            "iso2d_rtm_2rank.json")
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
        tracer, _ = trace_case("iso2d", mode="rtm", nt=8, ranks=2)
        doc = reduce_trace(tracer).to_json()
        for key, want in golden["summary"].items():
            assert doc["summary"][key] == pytest.approx(want, rel=1e-9), key
        assert len(doc["ranks"]) == len(golden["ranks"])
        for got, want in zip(doc["ranks"], golden["ranks"]):
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-9), key
        cp = golden["critical_path"]
        assert doc["critical_path"]["chain_s"] == pytest.approx(
            cp["chain_s"], rel=1e-9
        )
        for cls, value in cp["composition"].items():
            assert doc["critical_path"]["composition"][cls] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            ), cls
