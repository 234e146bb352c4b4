"""Tests for telemetry sessions and the process-wide runtime."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import runtime
from repro.telemetry.session import (
    NULL_TELEMETRY,
    QUEUED,
    SPAWN,
    TELEMETRY_SCHEMA_VERSION,
    UI_COMPLETE,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    record_emissions,
    resolve_telemetry,
)
from repro.testing import light_params, make_animation, run_vsync


def test_snapshot_holds_only_simulated_time():
    session = Telemetry()
    session.trace.add_span("ui", "frame-0", 100, 200)
    session.metrics.counter("ui.frames").inc(3)
    wire = session.snapshot("s").to_dict()
    assert sorted(wire) == ["metrics", "name", "trace", "version"]
    assert wire["version"] == TELEMETRY_SCHEMA_VERSION == 2


def test_snapshot_wire_roundtrip():
    session = Telemetry("run")
    session.trace.add_span("ui", "frame-0", 100, 200)
    session.metrics.counter("ui.frames").inc(3)
    snapshot = session.snapshot("vsync@demo")
    clone = TelemetrySnapshot.from_dict(snapshot.to_dict())
    assert clone.name == "vsync@demo"
    assert clone.trace.spans == snapshot.trace.spans
    assert clone.metrics_registry().value("ui.frames") == 3
    assert clone == snapshot


def test_histograms_appear_only_once_observed():
    result = run_vsync(make_animation(light_params(), "histograms"))
    idle, waited = 0, 1
    result.frames[idle].buffer_wait_ns = 0
    result.frames[waited].buffer_wait_ns = 250_000

    def names(emissions):
        session = Telemetry("histograms")
        record_emissions(session, result, emissions, ticks=0, events=1)
        return session.metrics.names()

    assert names([(SPAWN, idle)]) == [
        "run.drops", "run.frames", "run.presents", "sim.events", "trigger.frames"
    ]
    assert "queue.buffer_wait_ns" not in names([(QUEUED, idle)])
    observed = names([(UI_COMPLETE, idle), (QUEUED, waited)])
    assert {"ui.self_ns", "queue.buffer_wait_ns"} <= set(observed)


def test_snapshot_version_checked():
    with pytest.raises(ConfigurationError):
        TelemetrySnapshot.from_dict({"version": 99, "name": "x"})


def test_resolve_telemetry_tristate():
    assert isinstance(resolve_telemetry(True, "n"), Telemetry)
    assert resolve_telemetry(False) is NULL_TELEMETRY
    session = Telemetry("mine")
    assert resolve_telemetry(session) is session
    assert resolve_telemetry(NULL_TELEMETRY) is NULL_TELEMETRY
    with pytest.raises(ConfigurationError):
        resolve_telemetry("yes")


def test_resolve_none_defers_to_runtime_switch():
    assert resolve_telemetry(None) is NULL_TELEMETRY
    runtime.set_enabled(True)
    try:
        resolved = resolve_telemetry(None, "auto")
        assert isinstance(resolved, Telemetry)
        assert resolved.name == "auto"
    finally:
        runtime.set_enabled(False)


def test_runtime_switch_and_collector():
    assert runtime.enabled() is False
    previous = runtime.set_enabled(True)
    assert previous is False
    assert runtime.enabled() is True
    snapshot = Telemetry("x").snapshot()
    runtime.collect(snapshot)
    runtime.collect(None)  # ignored
    assert runtime.collector().snapshots == [snapshot]
    runtime.reset()
    assert runtime.enabled() is False
    assert runtime.collector().snapshots == []


def test_collector_merges_snapshot_metrics():
    collector = runtime.Collector()
    assert collector.merged_metrics().names() == []
    for name in ("a", "b"):
        session = Telemetry(name)
        session.metrics.counter("sim.events").inc(1000)
        session.metrics.gauge("run.frames").set(len(name))
        collector.add_snapshot(session.snapshot())
    merged = collector.merged_metrics()
    assert merged.value("sim.events") == 2000  # counters add
    assert merged.value("run.frames") == 1  # gauges keep the last value


def test_null_telemetry_is_reusable_across_runs():
    assert isinstance(NULL_TELEMETRY, NullTelemetry)
    assert NULL_TELEMETRY.name == "telemetry-off"
    assert NULL_TELEMETRY.snapshot() is None
