"""Sampling self-profiler: attribution, summaries, rendering."""

import time

from repro.obs.journal import configure_journal
from repro.obs.selfprof import SamplingProfiler, format_profile
from repro.obs.trace import reset_trace_state, span


def _busy(seconds):
    deadline = time.perf_counter() + seconds
    value = 0
    while time.perf_counter() < deadline:
        value += 1
    return value


class TestSamplingProfiler:
    def test_samples_attribute_to_enclosing_span(self, tmp_path):
        configure_journal(str(tmp_path / "run"))
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        try:
            with span("hot"):
                _busy(0.2)
        finally:
            profiler.stop()
            configure_journal(None)
            reset_trace_state()
        summary = profiler.summary()
        assert summary["samples"] > 0
        assert summary["interval_s"] == 0.001
        spans = {row["span"] for row in summary["top"]}
        assert "hot" in spans
        hot = next(row for row in summary["top"] if row["span"] == "hot")
        assert hot["function"].endswith("_busy")

    def test_without_spans_samples_fall_in_no_span_bucket(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        try:
            _busy(0.1)
        finally:
            profiler.stop()
        summary = profiler.summary()
        assert summary["samples"] > 0
        assert {row["span"] for row in summary["top"]} == {"<no span>"}

    def test_stop_is_idempotent_and_shares_sum_to_one(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        _busy(0.05)
        profiler.stop()
        profiler.stop()
        summary = profiler.summary()
        assert sum(row["share"] for row in summary["top"]) <= 1.0 + 1e-9
        assert sum(row["samples"] for row in summary["top"]) \
            <= summary["samples"]

    def test_format_profile_renders_shares(self):
        summary = {"interval_s": 0.005, "samples": 40, "top": [
            {"span": "sim.run", "function": "sim/functional.py:step",
             "samples": 30, "share": 0.75},
            {"span": "<no span>", "function": "cli.py:main",
             "samples": 10, "share": 0.25},
        ]}
        text = format_profile(summary)
        assert "40 samples" in text
        assert "75.0%" in text
        assert "sim.run" in text

    def test_format_profile_empty(self):
        text = format_profile({"interval_s": 0.005, "samples": 0,
                               "top": []})
        assert "0 samples" in text
