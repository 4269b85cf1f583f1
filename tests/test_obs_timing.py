"""Nested span timing: paths, aggregation, disabled mode."""

import time

import pytest

from repro.obs.timing import Tracer


class TestSpans:
    def test_nested_spans_build_slash_paths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            assert tracer.current_path() == "outer"
            with tracer.span("inner"):
                assert tracer.current_path() == "outer/inner"
        flat = tracer.flat()
        assert set(flat) == {"outer", "outer/inner"}
        assert flat["outer"]["count"] == 1

    def test_repeated_spans_aggregate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase"):
                pass
        flat = tracer.flat()
        assert flat["phase"]["count"] == 3
        assert flat["phase"]["wall_s"] >= 0.0

    def test_wall_time_measures_sleep(self):
        tracer = Tracer()
        with tracer.span("nap"):
            time.sleep(0.02)
        entry = tracer.flat()["nap"]
        assert entry["wall_s"] >= 0.015
        # Sleeping burns wall time, not CPU time.
        assert entry["cpu_s"] < entry["wall_s"]

    def test_exception_still_records_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError), tracer.span("boom"):
            raise RuntimeError("x")
        assert tracer.flat()["boom"]["count"] == 1
        assert tracer.current_path() is None

    def test_sibling_spans_do_not_nest(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert set(tracer.flat()) == {"a", "b"}


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer"), tracer.span("inner"):
            pass
        assert tracer.flat() == {}

    def test_reset_clears_spans(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.flat() == {}
