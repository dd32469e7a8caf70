"""Tracer span/instant semantics and the metrics registry."""

import threading

import pytest

from repro.trace import NULL_TRACER, INSTANT, SPAN, MetricsRegistry, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestSpans:
    def test_span_records_interval(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("step", phase="forward", shot=3):
            clk.t = 2.0
        (ev,) = tr.events
        assert ev.name == "step"
        assert ev.kind == SPAN
        assert (ev.start, ev.end) == (0.0, 2.0)
        assert ev.args == {"phase": "forward", "shot": 3}

    def test_nesting_order(self):
        """Inner spans close (and record) before their parents."""
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("outer"):
            clk.t = 1.0
            with tr.span("inner"):
                clk.t = 2.0
            clk.t = 3.0
        names = [e.name for e in tr.events]
        assert names == ["inner", "outer"]
        inner, outer = tr.events
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_zero_duration_span_clamped(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        clk.t = 5.0
        with tr.span("empty"):
            pass
        (ev,) = tr.events
        assert ev.start == ev.end == 5.0
        assert ev.duration == 0.0

    def test_instant_marker(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        clk.t = 1.5
        tr.instant("cudaMalloc:u", bytes=4096)
        (ev,) = tr.events
        assert ev.kind == INSTANT
        assert ev.start == ev.end == 1.5
        assert ev.args["bytes"] == 4096

    def test_emit_pretimed(self):
        tr = Tracer(clock=FakeClock())
        tr.emit("kernel", 1.0, 2.5, process="gpu", track="queue:1")
        (ev,) = tr.events
        assert (ev.start, ev.end, ev.track) == (1.0, 2.5, "queue:1")

    def test_find_and_by_category(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("a", cat="x"):
            pass
        with tr.span("b", cat="y"):
            pass
        assert [e.name for e in tr.find("a")] == ["a"]
        assert [e.name for e in tr.by_category("y")] == ["b"]

    def test_disabled_tracer_records_nothing(self):
        with NULL_TRACER.span("ghost"):
            NULL_TRACER.instant("marker")
        assert NULL_TRACER.events == []

    def test_disabled_span_is_one_shared_noop(self):
        tr = Tracer(clock=FakeClock(), enabled=False)
        first = tr.span("a", cat="x", shot=1)
        assert first is tr.span("b") is NULL_TRACER.span("c")
        with first as entered:
            with first:  # reusable and re-entrant
                pass
        assert entered is None
        assert tr.events == []

    def test_disabled_span_propagates_exceptions(self):
        tr = Tracer(clock=FakeClock(), enabled=False)
        with pytest.raises(KeyError, match="boom"):
            with tr.span("a"):
                raise KeyError("boom")
        assert tr.events == []

    def test_enabled_span_records_and_propagates_exceptions(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with pytest.raises(KeyError, match="boom"):
            with tr.span("a", cat="x") as entered:
                clk.t = 3.0
                raise KeyError("boom")
        assert entered is None
        (ev,) = tr.events
        assert (ev.name, ev.cat, ev.start, ev.end) == ("a", "x", 0.0, 3.0)

    def test_bind_default_clock_only_when_unbound(self):
        clk = FakeClock()
        tr = Tracer()  # wall clock by default
        tr.bind_default_clock(clk)
        clk.t = 7.0
        assert tr.now() == 7.0
        # an explicitly constructed clock is never overridden
        tr2 = Tracer(clock=clk)
        tr2.bind_default_clock(lambda: 99.0)
        assert tr2.now() == 7.0

    def test_clear(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            pass
        tr.metrics.counter("c").add(3)
        tr.clear()
        assert tr.events == []
        assert tr.metrics.counter("c").value == 0


class TestMetrics:
    def test_counter_accumulates_across_shots(self):
        m = MetricsRegistry()
        for shot in range(4):
            m.counter("pipeline.snapshots").add(2)
            m.counter("gpu.kernel_launches").add()
        assert m.counter("pipeline.snapshots").value == 8
        assert m.counter("gpu.kernel_launches").value == 4

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("c").add(-1)

    def test_gauge_tracks_max(self):
        g = MetricsRegistry().gauge("resident")
        g.set(10)
        g.set(4)
        assert g.value == 4
        assert g.max == 10

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("t")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert (s["min"], s["max"]) == (1.0, 3.0)

    def test_create_or_get_same_instance(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")
        assert m.histogram("h") is m.histogram("h")

    def test_thread_safety(self):
        m = MetricsRegistry()

        def work():
            for _ in range(1000):
                m.counter("n").add()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n").value == 8000

    def test_snapshot_and_text(self):
        m = MetricsRegistry()
        m.counter("gpu.h2d_bytes").add(1024)
        m.gauge("g").set(2)
        m.histogram("h").observe(1.0)
        snap = m.snapshot()
        assert snap["counters"]["gpu.h2d_bytes"] == 1024
        text = m.to_text()
        assert "KiB" in text  # *_bytes names render human-readable
