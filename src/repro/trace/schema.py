"""Versioned serialization schema for traces — the one save/load seam.

Both trace flavors share a single versioned envelope::

    {"version": 1, "kind": "event-trace" | "frame-trace", ...}

:func:`save` / :func:`load` and :func:`to_payload` / :func:`from_payload`
dispatch on the object (or the envelope's ``kind``), so callers never pick
a function per trace flavor.

``SCHEMA_VERSION`` covers the envelope itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.errors import WorkloadError
from repro.trace.record import CounterSample, Instant, Span, Trace
from repro.workloads.frametrace import FrameTrace

#: Envelope version written by this module (and accepted on load).
SCHEMA_VERSION = 1

EVENT_TRACE_KIND = "event-trace"
FRAME_TRACE_KIND = "frame-trace"


# ------------------------------------------------------------- event traces
def event_trace_to_payload(trace: Trace) -> dict:
    """Versioned plain-dict form of an event trace."""
    return {
        "version": SCHEMA_VERSION,
        "kind": EVENT_TRACE_KIND,
        "name": trace.name,
        "spans": [
            {"track": s.track, "name": s.name, "start": s.start, "end": s.end}
            for s in trace.spans
        ],
        "instants": [
            {"track": i.track, "name": i.name, "time": i.time} for i in trace.instants
        ],
        "counters": [
            {"track": c.track, "time": c.time, "value": c.value} for c in trace.counters
        ],
    }


def event_trace_from_payload(data: Mapping) -> Trace:
    """Inverse of :func:`event_trace_to_payload`."""
    _check_kind(data, EVENT_TRACE_KIND)
    try:
        trace = Trace(name=data["name"])
        trace.spans = [
            Span(s["track"], s["name"], s["start"], s["end"]) for s in data["spans"]
        ]
        trace.instants = [
            Instant(i["track"], i["name"], i["time"]) for i in data["instants"]
        ]
        trace.counters = [
            CounterSample(c["track"], c["time"], c["value"]) for c in data["counters"]
        ]
        return trace
    except (KeyError, TypeError) as exc:
        raise WorkloadError(f"malformed trace payload: {exc}") from exc


# ------------------------------------------------------------- frame traces
def frame_trace_to_payload(trace: FrameTrace) -> dict:
    """Versioned plain-dict form of a frame workload trace."""
    return {"version": SCHEMA_VERSION, "kind": FRAME_TRACE_KIND, **trace.to_dict()}


def frame_trace_from_payload(data: Mapping) -> FrameTrace:
    """Inverse of :func:`frame_trace_to_payload`."""
    _check_kind(data, FRAME_TRACE_KIND)
    return FrameTrace.from_dict(dict(data))


# ---------------------------------------------------------------- dispatch
def _check_kind(data: Mapping, expected: str) -> None:
    kind = data.get("kind")
    if kind != expected:
        raise WorkloadError(f"not a {expected.replace('-', ' ')}: kind={kind!r}")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise WorkloadError(
            f"unsupported trace schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )


def to_payload(trace: Trace | FrameTrace) -> dict:
    """Versioned payload for either trace flavor."""
    if isinstance(trace, Trace):
        return event_trace_to_payload(trace)
    if isinstance(trace, FrameTrace):
        return frame_trace_to_payload(trace)
    raise WorkloadError(
        f"cannot serialize {type(trace).__name__}: expected Trace or FrameTrace"
    )


def from_payload(data: Mapping) -> Trace | FrameTrace:
    """Reconstruct either trace flavor from its envelope."""
    kind = data.get("kind")
    if kind == EVENT_TRACE_KIND:
        return event_trace_from_payload(data)
    if kind == FRAME_TRACE_KIND:
        return frame_trace_from_payload(data)
    raise WorkloadError(f"unknown trace kind {kind!r}")


def save(trace: Trace | FrameTrace, path: str | Path) -> None:
    """Write either trace flavor to a JSON file."""
    Path(path).write_text(json.dumps(to_payload(trace)), encoding="utf-8")


def load(path: str | Path) -> Trace | FrameTrace:
    """Read a trace of either flavor from a JSON file."""
    return from_payload(json.loads(Path(path).read_text(encoding="utf-8")))
