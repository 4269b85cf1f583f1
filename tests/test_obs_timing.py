"""Span timing: name chains, aggregation into the phase table, disabled
mode and reset."""

import time

import pytest

from repro.obs.trace import (
    current_path,
    phase_table,
    reset_trace_state,
    set_tracing_enabled,
    span,
)


@pytest.fixture(autouse=True)
def _clean_trace_state():
    reset_trace_state()
    yield
    set_tracing_enabled(True)
    reset_trace_state()


class TestSpans:
    def test_nested_spans_build_slash_paths(self):
        with span("outer"):
            assert current_path() == "outer"
            with span("inner"):
                assert current_path() == "outer/inner"
        table = phase_table()
        assert set(table) == {"outer", "outer/inner"}
        assert table["outer"]["count"] == 1

    def test_repeated_spans_aggregate(self):
        for _ in range(3):
            with span("phase"):
                pass
        table = phase_table()
        assert table["phase"]["count"] == 3
        assert table["phase"]["wall_s"] >= 0.0

    def test_wall_time_measures_sleep(self):
        with span("nap"):
            time.sleep(0.02)
        entry = phase_table()["nap"]
        assert entry["wall_s"] >= 0.015
        # Sleeping burns wall time, not CPU time.
        assert entry["cpu_s"] < entry["wall_s"]

    def test_exception_still_records_span(self):
        with pytest.raises(RuntimeError), span("boom"):
            raise RuntimeError("x")
        assert phase_table()["boom"]["count"] == 1
        assert current_path() is None

    def test_sibling_spans_do_not_nest(self):
        with span("a"):
            pass
        with span("b"):
            pass
        assert set(phase_table()) == {"a", "b"}


class TestDisabledTracing:
    def test_disabled_records_nothing(self):
        set_tracing_enabled(False)
        with span("outer"), span("inner"):
            assert current_path() is None
        assert phase_table() == {}

    def test_reset_clears_spans(self):
        with span("x"):
            pass
        reset_trace_state()
        assert phase_table() == {}
