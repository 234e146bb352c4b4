"""Tests for the Chrome trace-event JSON exporter."""

import json

import pytest

from repro.telemetry.chrome import (
    REQUIRED_EVENT_KEYS,
    chrome_trace,
    chrome_trace_from_results,
    save_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.session import Telemetry
from repro.testing import light_params, make_animation, run_vsync
from repro.trace.record import Trace
from repro.vsync.scheduler import VSyncScheduler


def make_snapshot(name="run"):
    session = Telemetry(name)
    session.trace.add_span("ui", "frame-0", 1_000_000, 2_000_000)
    session.trace.add_instant("ui", "wake", 1_500_000)
    session.trace.add_counter("queue-depth", 2_000_000, 3)
    return session.snapshot(name)


def test_every_event_has_required_keys():
    document = chrome_trace([make_snapshot()])
    assert document["traceEvents"]
    for event in document["traceEvents"]:
        for key in REQUIRED_EVENT_KEYS:
            assert key in event, f"missing {key} in {event}"
    assert validate_chrome_trace(document) == len(document["traceEvents"])


def test_event_kinds_and_microsecond_timestamps():
    document = chrome_trace([make_snapshot()])
    by_kind = {}
    for event in document["traceEvents"]:
        by_kind.setdefault(event["ph"], []).append(event)
    span = by_kind["X"][0]
    assert span["ts"] == pytest.approx(1_000.0)  # ns -> µs
    assert span["dur"] == pytest.approx(1_000.0)
    instant = by_kind["i"][0]
    assert instant["s"] == "t"
    counter = by_kind["C"][0]
    assert counter["args"]["value"] == 3
    # Process and thread metadata name the run and its tracks.
    names = [e["args"]["name"] for e in by_kind["M"]]
    assert "run" in names and "ui" in names


def test_multiple_snapshots_get_distinct_pids():
    document = chrome_trace([make_snapshot("a"), make_snapshot("b")])
    pids = {event["pid"] for event in document["traceEvents"]}
    assert pids == {1, 2}


def test_results_without_snapshots_fall_back_to_record_run():
    result = run_vsync(make_animation(light_params(), "chrome-fallback"))
    assert result.telemetry is None
    document = chrome_trace_from_results([result])
    assert validate_chrome_trace(document) > 0


def test_instrumented_result_exports_its_snapshot(pixel5):
    driver = make_animation(light_params(), "chrome-live")
    result = VSyncScheduler(driver, pixel5, telemetry=True).run()
    document = chrome_trace_from_results([result])
    assert validate_chrome_trace(document) > 0
    names = {
        e["args"]["name"] for e in document["traceEvents"] if e["ph"] == "M"
    }
    assert "vsync@chrome-live" in names


def test_save_writes_loadable_json(tmp_path):
    path = tmp_path / "trace.json"
    written = save_chrome_trace(path, [make_snapshot()])
    loaded = json.loads(path.read_text())
    assert loaded == written
    assert validate_chrome_trace(loaded) == len(written["traceEvents"])


def test_validate_rejects_missing_keys():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({})
    with pytest.raises(ValueError, match="missing required keys"):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "ts": 0}]}
        )


def test_plain_trace_accepted():
    trace = Trace(name="bare")
    trace.add_span("ui", "frame-0", 0, 100)
    document = chrome_trace([trace])
    assert validate_chrome_trace(document) > 0
