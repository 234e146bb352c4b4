"""Tests for the Chrome trace-event JSON exporter."""

import json
import math

import pytest

from repro.exec.executor import Executor
from repro.experiments import registry
from repro.study.core import execute_studies
from repro.telemetry import runtime
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
    assert loaded == chrome_trace([make_snapshot()])
    assert validate_chrome_trace(loaded) == len(written["traceEvents"])


def assert_saved_bytes_match_reference(path, items):
    """The streamed file is byte for byte ``json.dumps`` of the dict document."""
    written = save_chrome_trace(path, items)
    assert path.read_bytes() == json.dumps(chrome_trace(items)).encode()
    loaded = json.loads(path.read_bytes())
    assert len(written["traceEvents"]) == len(loaded["traceEvents"])
    return written


def test_save_matches_reference_for_many_runs_and_a_bare_trace(tmp_path):
    bare = Trace(name="bare")
    bare.add_span("ui", "frame-0", 0, 100)
    bare.add_instant("janks", "frame-drop", 50)
    items = [make_snapshot("a"), bare, make_snapshot("b")]
    assert_saved_bytes_match_reference(tmp_path / "trace.json", items)


def test_save_matches_reference_for_a_trace_without_events(tmp_path):
    empty = Trace(name="empty")
    assert empty.tracks() == []
    written = assert_saved_bytes_match_reference(tmp_path / "trace.json", [empty])
    assert len(written["traceEvents"]) == 1  # only the process name
    assert_saved_bytes_match_reference(tmp_path / "none.json", [])


def test_save_matches_reference_for_escaped_and_non_ascii_names(tmp_path):
    trace = Trace(name='run "quoted" \\ back\\slash — é')
    trace.add_span('track "q"', "frame-\\0", 0, 1_500)
    trace.add_instant("défilement", "日本\n\t", 2_000)
    trace.add_counter("queue\\depth", 3_000, 2)
    assert_saved_bytes_match_reference(tmp_path / "trace.json", [trace])


def test_save_matches_reference_for_counter_values_and_extreme_times(tmp_path):
    trace = Trace(name="values")
    for time, value in enumerate([0, 3, -1, 2.5, 1e-7, 1e22, math.nan, math.inf, True]):
        trace.add_counter("queue-depth", time * 333, value)
    trace.add_span("ui", "frame-0", 0, 10**15)
    trace.add_span("ui", "frame-1", 10**15, 10**15)
    trace.add_instant("display", "frame-1", 10**15)
    trace.add_counter("fps", 10**15, 59.94)
    assert_saved_bytes_match_reference(tmp_path / "trace.json", [trace])


def test_save_matches_reference_for_fig05_quick(tmp_path):
    runtime.set_enabled(True)
    execute_studies(
        [registry.STUDIES["fig05"](quick=True)],
        executor=Executor(jobs=1, backend="inprocess", cache=False),
    )
    snapshots = runtime.collector().snapshots
    assert snapshots
    assert_saved_bytes_match_reference(tmp_path / "trace.json", snapshots)


def test_returned_events_view_builds_the_reference_events(tmp_path):
    items = [make_snapshot("a"), make_snapshot("b")]
    view = save_chrome_trace(tmp_path / "trace.json", items)["traceEvents"]
    events = chrome_trace(items)["traceEvents"]
    assert list(view) == events
    assert [view[i] for i in range(-len(view), len(view))] == events + events
    assert view[1:4] == events[1:4]
    with pytest.raises(IndexError):
        view[len(view)]


def test_failed_export_leaves_the_previous_file_and_no_temp_file(tmp_path):
    path = tmp_path / "trace.json"
    save_chrome_trace(path, [make_snapshot()])
    before = path.read_bytes()
    broken = Trace(name="broken")
    broken.add_counter("queue-depth", 0, object())  # not JSON-encodable
    with pytest.raises(TypeError):
        save_chrome_trace(path, [make_snapshot("first"), broken])
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


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
