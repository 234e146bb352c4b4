"""Tests for trace serialization through the versioned schema module."""

import pytest

from repro.errors import WorkloadError
from repro.pipeline.frame import FrameWorkload
from repro.testing import light_params, make_animation, run_vsync
from repro.trace import schema
from repro.trace.record import record_run
from repro.workloads.frametrace import FrameTrace


def test_event_trace_roundtrip(tmp_path):
    result = run_vsync(make_animation(light_params(), "fmt-run"))
    trace = record_run(result)
    path = tmp_path / "trace.json"
    schema.save(trace, path)
    clone = schema.load(path)
    assert clone.name == trace.name
    assert clone.spans == trace.spans
    assert clone.instants == trace.instants
    assert clone.counters == trace.counters


def test_dict_roundtrip_without_files():
    result = run_vsync(make_animation(light_params(), "fmt-dict"))
    trace = record_run(result)
    clone = schema.from_payload(schema.to_payload(trace))
    assert clone.spans == trace.spans


def test_frame_trace_roundtrip(tmp_path):
    trace = FrameTrace(
        name="game", refresh_hz=30,
        workloads=[FrameWorkload(ui_ns=1000, render_ns=2000, gpu_ns=500)],
    )
    path = tmp_path / "frames.json"
    schema.save(trace, path)
    clone = schema.load(path)
    assert clone.workloads == trace.workloads
    assert clone.refresh_hz == 30


def test_load_dispatches_by_kind(tmp_path):
    """schema.load returns the right type for either payload kind."""
    frame_trace = FrameTrace(
        name="game", refresh_hz=30, workloads=[FrameWorkload(1, 2)]
    )
    path = tmp_path / "frames.json"
    schema.save(frame_trace, path)
    assert isinstance(schema.load(path), FrameTrace)


def test_malformed_event_payload_rejected():
    with pytest.raises(WorkloadError):
        schema.event_trace_from_payload({"kind": "event-trace", "name": "x"})


def test_unknown_kind_rejected():
    with pytest.raises(WorkloadError):
        schema.from_payload({"kind": "mystery", "version": 1})


def test_version_mismatch_rejected():
    with pytest.raises(WorkloadError):
        schema.from_payload(
            {"kind": schema.EVENT_TRACE_KIND, "version": 999, "name": "x"}
        )
