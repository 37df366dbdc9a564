"""Tests for structured tracing."""

from __future__ import annotations

from repro.sim.trace import Tracer


class TestRecording:
    def test_records_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a")
        tracer.record(2.0, "b", detail=1)
        assert [e.kind for e in tracer.events] == ["a", "b"]
        assert tracer.events[1].details == {"detail": 1}

    def test_len_and_count(self):
        tracer = Tracer()
        tracer.record(0.0, "x")
        tracer.record(1.0, "x")
        tracer.record(2.0, "y")
        assert len(tracer) == 3
        assert tracer.count("x") == 2

    def test_of_kind_filters(self):
        tracer = Tracer()
        tracer.record(0.0, "a")
        tracer.record(1.0, "b")
        tracer.record(2.0, "a")
        assert [e.timestamp for e in tracer.of_kind("a")] == [0.0, 2.0]

    def test_first_and_last(self):
        tracer = Tracer()
        tracer.record(0.0, "x", n=1)
        tracer.record(5.0, "x", n=2)
        assert tracer.first("x").details["n"] == 1
        assert tracer.last("x").details["n"] == 2
        assert tracer.first("missing") is None
        assert tracer.last("missing") is None

    def test_capacity_limit(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record(float(i), "e")
        assert len(tracer) == 2

    def test_subscriber_sees_all_events(self):
        tracer = Tracer(capacity=1)
        seen = []
        tracer.subscribe(seen.append)
        tracer.record(0.0, "a")
        tracer.record(1.0, "b")
        assert [e.kind for e in seen] == ["a", "b"]

