"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Converts the repository's :class:`~repro.trace.record.Trace` vocabulary —
spans, instants, counter samples — into the Trace Event Format both viewers
load: complete events (``"ph": "X"``), instant events (``"ph": "i"``), and
counter events (``"ph": "C"``), plus metadata events naming each process and
thread. Timestamps convert from simulated nanoseconds to the format's
microseconds.

One exported file can hold many runs: each telemetry snapshot (or recorded
run trace) becomes its own ``pid``, and each track within it a ``tid``, so a
``--trace`` capture of a whole experiment opens as a stack of per-run
process groups.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path

from repro.pipeline.scheduler_base import RunResult
from repro.telemetry.session import TelemetrySnapshot
from repro.trace.record import Trace, record_run

#: Keys every emitted trace event carries (the validation contract).
REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")


def _metadata_event(name: str, pid: int, tid: int, value: str) -> dict:
    return {
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "name": name,
        "args": {"name": value},
    }


def chrome_events_from_trace(trace: Trace, pid: int = 1) -> list[dict]:
    """Flatten one event trace into trace-event dicts under process *pid*.

    Tracks map to stable ``tid`` values (sorted track order) and are named
    with ``thread_name`` metadata; counter tracks keep their own ``ph: "C"``
    series keyed by track name.
    """
    events: list[dict] = [_metadata_event("process_name", pid, 0, trace.name)]
    tids = {track: tid for tid, track in enumerate(trace.tracks(), start=1)}
    for track, tid in tids.items():
        events.append(_metadata_event("thread_name", pid, tid, track))
    for span in trace.spans:
        events.append(
            {
                "ph": "X",
                "ts": span.start / 1000.0,
                "dur": span.duration / 1000.0,
                "pid": pid,
                "tid": tids[span.track],
                "name": span.name,
                "cat": span.track,
            }
        )
    for instant in trace.instants:
        events.append(
            {
                "ph": "i",
                "ts": instant.time / 1000.0,
                "pid": pid,
                "tid": tids[instant.track],
                "name": instant.name,
                "cat": instant.track,
                "s": "t",
            }
        )
    for sample in trace.counters:
        events.append(
            {
                "ph": "C",
                "ts": sample.time / 1000.0,
                "pid": pid,
                "tid": tids[sample.track],
                "name": sample.track,
                "args": {"value": sample.value},
            }
        )
    return events


def chrome_trace(
    snapshots: Iterable[TelemetrySnapshot | Trace],
) -> dict:
    """Build a complete Chrome trace document from snapshots and/or traces."""
    events: list[dict] = []
    for pid, item in enumerate(snapshots, start=1):
        trace = item.trace if isinstance(item, TelemetrySnapshot) else item
        events.extend(chrome_events_from_trace(trace, pid=pid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry.chrome"},
    }


def chrome_trace_from_results(results: Sequence[RunResult]) -> dict:
    """Chrome trace document for finished runs.

    Runs that carry a telemetry snapshot export it directly; runs without one
    fall back to :func:`repro.trace.record.record_run`, so the exporter works
    on any RunResult regardless of how it was collected.
    """
    items: list[TelemetrySnapshot | Trace] = []
    for result in results:
        if result.telemetry is not None:
            items.append(result.telemetry)
        else:
            items.append(record_run(result))
    return chrome_trace(items)


def _value_json(value) -> str:
    """A counter value as ``json.dumps`` renders it inside the document."""
    return int.__repr__(value) if value.__class__ is int else json.dumps(value)


class _Stamps(dict):
    """Nanosecond time -> its microsecond ``ts`` text, formatted once per run.

    Spans, instants and counters share most of their timestamps, and the
    float ``repr`` is the costliest step of formatting an event.
    """

    def __missing__(self, ns):
        text = self[ns] = float.__repr__(ns / 1000.0)
        return text


def _run_events_json(trace: Trace, pid: int) -> tuple[str, int]:
    """One run's events as ``json.dumps`` writes them, and how many there are.

    Formats straight from the trace records the same events, in the same
    order and spelling, that :func:`chrome_events_from_trace` builds as
    dicts. Every fragment that depends only on the track is encoded once per
    track. Timestamps are integer nanoseconds, so their microsecond value is
    a finite float and ``float.__repr__`` writes it as ``json.dumps`` does.
    """
    enc, stamps, float_text = encode_basestring_ascii, _Stamps(), float.__repr__
    meta = f'{{"ph": "M", "ts": 0, "pid": {pid}, "tid": '
    events = [
        f'{meta}0, "name": "process_name", "args": {{"name": {enc(trace.name)}}}}}'
    ]
    span_parts, instant_parts, counter_head = {}, {}, {}
    for tid, track in enumerate(trace.tracks(), start=1):
        cat = enc(track)
        ids = f', "pid": {pid}, "tid": {tid}, "name": '
        events.append(
            f'{meta}{tid}, "name": "thread_name", "args": {{"name": {cat}}}}}'
        )
        span_parts[track] = (ids, f', "cat": {cat}}}')
        instant_parts[track] = (ids, f', "cat": {cat}, "s": "t"}}')
        counter_head[track] = f'{ids}{cat}, "args": {{"value": '
    append = events.append
    for span in trace.spans:
        ids, tail = span_parts[span.track]
        start = span.start
        dur = float_text((span.end - start) / 1000.0)
        append(
            f'{{"ph": "X", "ts": {stamps[start]}, "dur": {dur}{ids}{enc(span.name)}{tail}'
        )
    for instant in trace.instants:
        ids, tail = instant_parts[instant.track]
        append(
            f'{{"ph": "i", "ts": {stamps[instant.time]}{ids}{enc(instant.name)}{tail}'
        )
    for sample in trace.counters:
        append(
            f'{{"ph": "C", "ts": {stamps[sample.time]}{counter_head[sample.track]}'
            f'{_value_json(sample.value)}}}}}'
        )
    return ", ".join(events), len(events)


class _TraceEvents(Sequence):
    """Read-only ``traceEvents`` of a written document, one run per trace.

    Its length is counted while writing; events are built as dicts (by
    :func:`chrome_events_from_trace`) only when indexed or iterated.
    """

    def __init__(self, traces: list[Trace], sizes: list[int]) -> None:
        self._traces = traces
        self._sizes = sizes

    def __len__(self) -> int:
        return sum(self._sizes)

    def __iter__(self):
        for pid, trace in enumerate(self._traces, start=1):
            yield from chrome_events_from_trace(trace, pid=pid)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        position = range(len(self))[index]  # normalizes negatives, raises IndexError
        for pid, (trace, size) in enumerate(zip(self._traces, self._sizes), start=1):
            if position < size:
                return chrome_events_from_trace(trace, pid=pid)[position]
            position -= size
        raise AssertionError("unreachable: position is within the counted length")


def save_chrome_trace(
    path: str | Path, snapshots: Iterable[TelemetrySnapshot | Trace]
) -> dict:
    """Write a Chrome trace JSON file; returns the document written.

    The file holds exactly the bytes of ``json.dumps(chrome_trace(snapshots))``
    but is streamed one run at a time, so neither the event dicts nor the
    whole document are ever in memory. It is written to a temporary file
    beside *path* and moved onto it only once complete: a failed export
    leaves an earlier file at *path* as it was. The returned document's
    ``traceEvents`` is a read-only view that counts the events written and
    builds them as dicts only on access.
    """
    path = Path(path)
    traces = [
        item.trace if isinstance(item, TelemetrySnapshot) else item
        for item in snapshots
    ]
    sizes: list[int] = []
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="ascii") as handle:
            handle.write('{"traceEvents": [')
            for pid, trace in enumerate(traces, start=1):
                chunk, size = _run_events_json(trace, pid)
                if sizes:
                    handle.write(", ")
                handle.write(chunk)
                sizes.append(size)
            handle.write(
                '], "displayTimeUnit": "ms", '
                '"otherData": {"exporter": "repro.telemetry.chrome"}}'
            )
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return {
        "traceEvents": _TraceEvents(traces, sizes),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry.chrome"},
    }


def validate_chrome_trace(document: dict) -> int:
    """Check a trace document against the event contract.

    Returns the number of events; raises ``ValueError`` on the first event
    missing a required key (``ph``/``ts``/``pid``/``tid``/``name``) or on a
    document without a ``traceEvents`` list. Used by the CI artifact gate.
    """
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace document has no traceEvents list")
    for position, event in enumerate(events):
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            raise ValueError(
                f"traceEvents[{position}] missing required keys: {', '.join(missing)}"
            )
    return len(events)
