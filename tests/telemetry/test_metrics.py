"""Tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry


def test_counter_accumulates():
    registry = MetricsRegistry()
    registry.counter("frames").inc()
    registry.counter("frames").inc(4)
    assert registry.value("frames") == 5


def test_counter_rejects_decrease():
    registry = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        registry.counter("frames").inc(-1)


def test_gauge_keeps_last_value():
    registry = MetricsRegistry()
    registry.gauge("depth").set(3)
    registry.gauge("depth").set(1)
    assert registry.value("depth") == 1


def test_histogram_summary():
    registry = MetricsRegistry()
    histogram = registry.histogram("wait_ns")
    for value in (10, 20, 60):
        histogram.observe(value)
    assert histogram.count == 3
    assert histogram.min == 10
    assert histogram.max == 60
    assert registry.value("wait_ns") == pytest.approx(30.0)


def test_kind_conflict_rejected():
    registry = MetricsRegistry()
    registry.counter("frames")
    with pytest.raises(ConfigurationError):
        registry.gauge("frames")


def test_unknown_metric_value_is_none():
    assert MetricsRegistry().value("nope") is None


def test_wire_roundtrip():
    registry = MetricsRegistry()
    registry.counter("frames").inc(7)
    registry.gauge("depth").set(2)
    registry.histogram("wait").observe(5.0)
    clone = MetricsRegistry.from_dict(registry.to_dict())
    assert clone.value("frames") == 7
    assert clone.value("depth") == 2
    assert clone.histogram("wait").count == 1
    assert clone.to_dict() == registry.to_dict()


def test_empty_histogram_roundtrip():
    registry = MetricsRegistry()
    registry.histogram("never")
    clone = MetricsRegistry.from_dict(registry.to_dict())
    assert clone.histogram("never").count == 0
    assert clone.value("never") == 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        MetricsRegistry.from_dict({"x": {"kind": "mystery"}})


def test_merge_semantics():
    left = MetricsRegistry()
    left.counter("frames").inc(2)
    left.gauge("depth").set(1)
    left.histogram("wait").observe(10)
    right = MetricsRegistry()
    right.counter("frames").inc(3)
    right.gauge("depth").set(5)
    right.histogram("wait").observe(30)
    left.merge(right)
    assert left.value("frames") == 5  # counters add
    assert left.value("depth") == 6  # gauges add: each is one run's total
    merged = left.histogram("wait")
    assert merged.count == 2 and merged.min == 10 and merged.max == 30
