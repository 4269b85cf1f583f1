"""Metrics registry semantics: instruments and snapshots."""

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        assert counter.snapshot() == {"type": "counter", "value": 42}

    def test_gauge_keeps_last_value(self):
        gauge = Gauge("g")
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("b").set(0.5)
        snap = registry.snapshot()
        assert snap["a"] == {"type": "counter", "value": 3}
        assert snap["b"] == {"type": "gauge", "value": 0.5}

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}
        assert registry.get("a") is None
