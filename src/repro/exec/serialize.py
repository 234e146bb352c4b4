"""Compact, lossless wire form for :class:`RunResult`.

Results must cross process boundaries (the executor's process-pool backend)
and cache round-trips without drift, so every record type serializes to a
fixed-order JSON array and reconstructs to an equal dataclass. A result has
one encoding, :func:`encode_wire` of its wire: the bytes of its cache entry.
A pool worker encodes its result once and returns those bytes; the parent
decodes them once and writes the same object to the cache. An in-process
run hands back the result it built and is encoded only to be cached. A cache
hit, a pool result and a fresh local run are still indistinguishable to
callers, because a fresh result already equals its decoded form, types
included: scheduler and fault hooks store only JSON-native scalars, lists
and str-keyed dicts in ``extra``. ``extra`` is still canonicalized on the
way in (tuples become lists), so a stray tuple cannot corrupt a wire.
"""

from __future__ import annotations

import contextlib
import gc
import json
from typing import Any

from repro.display.hal import PresentRecord
from repro.errors import ReproError
from repro.exec.spec import device_from_wire, device_to_wire
from repro.pipeline.compositor import DropEvent
from repro.pipeline.frame import FrameCategory, FrameRecord, FrameWorkload
from repro.pipeline.scheduler_base import RunResult
from repro.telemetry.session import TelemetrySnapshot

#: Bump when the wire layout changes; folded into the cache key.
#: v2: optional ``telemetry`` key carrying a TelemetrySnapshot payload.
RESULT_SCHEMA_VERSION = 2

_FRAME_FIELDS = (
    "frame_id",
    "trigger_time",
    "content_timestamp",
    "decoupled",
    "ui_start",
    "ui_end",
    "render_start",
    "render_end",
    "gpu_end",
    "queued_time",
    "latch_time",
    "present_time",
    "buffer_slot",
    "render_rate_hz",
    "buffer_wait_ns",
    "content_value",
    "input_predicted",
)

_CATEGORIES = {category.value: category for category in FrameCategory}

_DROP_FIELDS = ("time", "vsync_index", "queued_depth", "frames_in_flight")

_PRESENT_FIELDS = (
    "frame_id",
    "present_time",
    "vsync_index",
    "content_timestamp",
    "queue_depth_after",
    "refresh_period",
)


def jsonable(value: Any) -> Any:
    """Canonicalize a value for JSON: tuples/lists and dicts recurse."""
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return value


def _frame_to_wire(frame: FrameRecord) -> list:
    wire = [getattr(frame, field) for field in _FRAME_FIELDS]
    workload = frame.workload
    wire.append(
        [workload.ui_ns, workload.render_ns, workload.gpu_ns, workload.category.value]
    )
    return wire


def _frame_from_wire(wire: list) -> FrameRecord:
    # _FRAME_FIELDS order, then the workload; FrameRecord takes it second.
    (
        frame_id, trigger_time, content_timestamp, decoupled,
        ui_start, ui_end, render_start, render_end, gpu_end,
        queued_time, latch_time, present_time, buffer_slot,
        render_rate_hz, buffer_wait_ns, content_value, input_predicted,
        (ui_ns, render_ns, gpu_ns, category),
    ) = wire
    return FrameRecord(
        frame_id,
        FrameWorkload(ui_ns, render_ns, gpu_ns, _CATEGORIES[category]),
        trigger_time, content_timestamp, decoupled,
        ui_start, ui_end, render_start, render_end, gpu_end,
        queued_time, latch_time, present_time, buffer_slot,
        render_rate_hz, buffer_wait_ns, content_value, input_predicted,
    )


def result_to_wire(result: RunResult) -> dict:
    """Serialize a run result to its compact JSON-able wire form."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "scheduler": result.scheduler,
        "scenario": result.scenario,
        "device": device_to_wire(result.device),
        "buffer_count": result.buffer_count,
        "frames": [_frame_to_wire(f) for f in result.frames],
        "drops": [
            [getattr(d, field) for field in _DROP_FIELDS] for d in result.drops
        ],
        "presents": [
            [getattr(p, field) for field in _PRESENT_FIELDS]
            for p in result.presents
        ],
        "start_time": result.start_time,
        "end_time": result.end_time,
        "ui_busy_ns": result.ui_busy_ns,
        "render_busy_ns": result.render_busy_ns,
        "gpu_busy_ns": result.gpu_busy_ns,
        "scheduler_overhead_ns": result.scheduler_overhead_ns,
        "extra": jsonable(result.extra),
        "telemetry": (
            result.telemetry.to_dict() if result.telemetry is not None else None
        ),
    }


def result_from_wire(wire: dict) -> RunResult:
    """Reconstruct a run result from its wire.

    ``extra`` is taken from the wire as is, not copied. Rows unpack
    positionally into the real constructors, so their checks run; any
    malformed wire, nested payloads included, raises ValueError.
    """
    try:
        schema = wire.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunResult schema {schema!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        telemetry = wire.get("telemetry")
        return RunResult(
            scheduler=wire["scheduler"],
            scenario=wire["scenario"],
            device=device_from_wire(wire["device"]),
            buffer_count=wire["buffer_count"],
            frames=[_frame_from_wire(f) for f in wire["frames"]],
            drops=[DropEvent(*d) for d in wire["drops"]],
            presents=[PresentRecord(*p) for p in wire["presents"]],
            start_time=wire["start_time"],
            end_time=wire["end_time"],
            ui_busy_ns=wire["ui_busy_ns"],
            render_busy_ns=wire["render_busy_ns"],
            gpu_busy_ns=wire["gpu_busy_ns"],
            scheduler_overhead_ns=wire["scheduler_overhead_ns"],
            extra=wire["extra"],
            telemetry=(
                None if telemetry is None else TelemetrySnapshot.from_dict(telemetry)
            ),
        )
    except (AttributeError, KeyError, TypeError, ReproError) as exc:
        raise ValueError(f"malformed RunResult wire: {exc!r}") from exc


def encode_wire(wire: dict) -> bytes:
    """A result wire as the bytes of its cache entry (compact JSON)."""
    return json.dumps(wire, separators=(",", ":")).encode()


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic GC for one decode and restore the caller's state.

    A decode builds one record per frame and per present, and with the
    collector on those allocations trigger collections that scan every
    record built so far. The records form no cycles, so reference counting
    frees everything the pause defers. The pause covers one decode only;
    the process-wide setting is the caller's, and a decode that raises
    restores it too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def ok_envelope(result: bytes | RunResult, seconds: float) -> dict:
    """Wrap a successful attempt's result for the settle step.

    A pool worker's result is its cache entry's bytes (:func:`encode_wire`);
    in-process it is the ``RunResult`` itself. Workers never raise across
    the pool: success and failure both travel as tagged envelopes, so a
    custom exception that does not pickle (or pickles to something that
    re-raises on load) can never poison the pool protocol.
    """
    return {"ok": True, "result": result, "seconds": seconds}


def error_envelope(kind: str, message: str, traceback_text: str | None) -> dict:
    """Wrap a worker-side failure (taxonomy kind + cause) for the pool wire."""
    return {
        "ok": False,
        "kind": kind,
        "message": message,
        "traceback": traceback_text,
    }
