"""Telemetry sessions: the per-run recorder, filled once the run is over.

A :class:`Telemetry` session owns three stores:

- an event :class:`~repro.trace.record.Trace` (spans / instants / counter
  samples in *simulated* nanoseconds);
- a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges,
  and histograms;
- a wall-clock profile: named blocks measured with ``time.perf_counter``
  (scheduler run time, engine loop time, executor batches).

During a run either engine only logs the order of what happened, and
:func:`record_emissions` computes the trace and metrics afterwards, from the
same log the invariant checker reads. Disabled telemetry is the
:data:`NULL_TELEMETRY` singleton, which never allocates a store — schedulers
built without a session register **zero** telemetry hooks, so the disabled
path costs one branch at construction and nothing per frame.

A finished session freezes into a :class:`TelemetrySnapshot`, the JSON-able
form that rides on ``RunResult.telemetry`` across the executor's process-pool
wire (see ``repro.exec.serialize``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.record import CounterSample, Instant, Span, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.scheduler_base import RunResult

#: Bump when the snapshot wire layout changes (folded into the RunResult
#: schema via repro.exec.serialize).
TELEMETRY_SCHEMA_VERSION = 1

#: Emission kinds of a run's ordered ``(kind, index)`` log. A frame kind
#: indexes ``RunResult.frames`` (by frame id), a present or a drop
#: ``RunResult.presents`` / ``RunResult.drops``. A verified run's log also
#: holds the checker's kinds (:mod:`repro.verify.invariants`), which read
#: ``QUEUED`` too.
SPAWN, UI_COMPLETE, QUEUED, PRESENT, DROP = (
    "spawn", "ui-complete", "queued", "present", "drop"
)


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """The frozen, JSON-able record of one telemetry session.

    Attributes:
        name: Session label (scheduler\\@scenario by convention).
        trace: Event trace in simulated nanoseconds.
        metrics: Wire form of the session's metrics registry.
        profile: Wall-clock blocks — name to ``{"seconds", "count"}``.
    """

    name: str
    trace: Trace
    metrics: dict
    profile: dict

    def to_dict(self) -> dict:
        from repro.trace.schema import event_trace_to_payload

        return {
            "version": TELEMETRY_SCHEMA_VERSION,
            "name": self.name,
            "trace": event_trace_to_payload(self.trace),
            "metrics": self.metrics,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TelemetrySnapshot":
        from repro.trace.schema import event_trace_from_payload

        version = data.get("version")
        if version != TELEMETRY_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported telemetry snapshot version {version!r} "
                f"(expected {TELEMETRY_SCHEMA_VERSION})"
            )
        return cls(
            name=data["name"],
            trace=event_trace_from_payload(data["trace"]),
            metrics={key: dict(value) for key, value in data["metrics"].items()},
            profile={key: dict(value) for key, value in data["profile"].items()},
        )

    def metrics_registry(self) -> MetricsRegistry:
        """Rehydrate the metrics registry from its wire form."""
        return MetricsRegistry.from_dict(self.metrics)

    def profile_seconds(self, block: str) -> float:
        """Total wall-clock seconds recorded for one profile block."""
        entry = self.profile.get(block)
        return entry["seconds"] if entry else 0.0


class Telemetry:
    """A live, enabled telemetry session for one scheduler run."""

    enabled = True

    def __init__(self, name: str = "telemetry") -> None:
        self.name = name
        self.trace = Trace(name=name)
        self.metrics = MetricsRegistry()
        self._profile: dict[str, dict[str, float]] = {}
        self._claimed = False

    # ------------------------------------------------------- wall-clock blocks
    def add_profile(self, block: str, seconds: float, count: int = 1) -> None:
        """Accumulate wall-clock time under a named profile block."""
        entry = self._profile.setdefault(block, {"seconds": 0.0, "count": 0})
        entry["seconds"] += seconds
        entry["count"] += count

    @contextlib.contextmanager
    def profile_block(self, block: str):
        """Measure the wall-clock time of a ``with`` body."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.add_profile(block, time.perf_counter() - started)

    def profile_seconds(self, block: str) -> float:
        entry = self._profile.get(block)
        return entry["seconds"] if entry else 0.0

    # --------------------------------------------------------------- snapshot
    def snapshot(self, name: str | None = None) -> TelemetrySnapshot:
        """Freeze the session into its wire-able form."""
        return TelemetrySnapshot(
            name=name or self.name,
            trace=self.trace,
            metrics=self.metrics.to_dict(),
            profile={key: dict(value) for key, value in self._profile.items()},
        )


class NullTelemetry:
    """Disabled telemetry: no stores, no snapshot."""

    enabled = False

    @property
    def name(self) -> str:
        return "telemetry-off"

    def add_profile(self, block: str, seconds: float, count: int = 1) -> None:
        pass

    @contextlib.contextmanager
    def profile_block(self, block: str):
        yield self

    def profile_seconds(self, block: str) -> float:
        return 0.0

    def snapshot(self, name: str | None = None) -> None:
        return None


#: The process-wide disabled session.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(
    telemetry: "Telemetry | NullTelemetry | bool | None",
    name: str = "telemetry",
) -> "Telemetry | NullTelemetry":
    """Normalize a telemetry argument into the session for one run.

    ``None`` defers to the process-wide default (``repro.telemetry.runtime``),
    ``True``/``False`` force a fresh session or the null one, and an existing
    session passes through unchanged. A session records exactly one run: its
    snapshot shares its trace, so resolving a used session raises.
    """
    if telemetry is None:
        from repro.telemetry.runtime import new_run_session

        return new_run_session(name)
    if telemetry is True:
        return Telemetry(name)
    if telemetry is False:
        return NULL_TELEMETRY
    if isinstance(telemetry, Telemetry):
        if telemetry._claimed:
            raise ConfigurationError("a Telemetry session records exactly one run")
        telemetry._claimed = True
        return telemetry
    if isinstance(telemetry, NullTelemetry):
        return telemetry
    raise ConfigurationError(
        f"telemetry must be a Telemetry session, bool, or None, "
        f"got {type(telemetry).__name__}"
    )


def record_emissions(
    session: Telemetry, result: "RunResult", emissions: Iterable[tuple[str, int]],
    ticks: int, events: int,
) -> None:
    """Fill *session*'s trace and metrics from a finished run.

    *emissions* is the run's ordered ``(kind, index)`` log, *ticks* the
    number of compositor ticks it executed and *events* the number of
    simulator events. Trace events are appended in log order, the order the
    Chrome export writes them in; the records they read are final by now.
    The invariant checker's entries in a verified run's log are skipped.
    """
    trace, metrics, frames = session.trace, session.metrics, result.frames
    add_span, add_instant = trace.spans.append, trace.instants.append
    add_counter = trace.counters.append
    # Histograms are looked up at their first observation, so one that
    # observes nothing does not appear.
    ui_self = buffer_wait = None
    spawns = presents = drops = 0
    for kind, index in emissions:
        if kind == SPAWN:
            frame = frames[index]
            trigger = "d-vsync" if frame.decoupled else "vsync-app"
            add_instant(Instant("trigger", trigger, frame.trigger_time))
            spawns += 1
        elif kind == UI_COMPLETE:
            frame = frames[index]
            ui_start, ui_end = frame.ui_start, frame.ui_end
            if ui_start is not None and ui_end is not None:
                add_span(Span("ui", f"frame-{index}", ui_start, ui_end))
                if ui_self is None:
                    ui_self = metrics.histogram("ui.self_ns").observe
                ui_self(ui_end - ui_start)
        elif kind == QUEUED:
            frame = frames[index]
            label, render_end = f"frame-{index}", frame.render_end
            if frame.render_start is not None and render_end is not None:
                add_span(Span("render", label, frame.render_start, render_end))
            if frame.workload.gpu_ns and render_end is not None and frame.gpu_end:
                add_span(Span("gpu", label, render_end, frame.gpu_end))
            if frame.buffer_wait_ns:
                if buffer_wait is None:
                    buffer_wait = metrics.histogram("queue.buffer_wait_ns").observe
                buffer_wait(frame.buffer_wait_ns)
        elif kind == PRESENT:
            record = result.presents[index]
            at = record.present_time
            add_instant(Instant("display", f"frame-{record.frame_id}", at))
            add_counter(CounterSample("queue-depth", at, record.queue_depth_after))
            presents += 1
        elif kind == DROP:
            add_instant(Instant("janks", "frame-drop", result.drops[index].time))
            drops += 1
    # A counter appears once it has counted something; sim.events always does.
    for name, count in (
        ("trigger.frames", spawns),
        ("display.presents", presents),
        ("janks.ticks", ticks),
        ("janks.drops", drops),
    ):
        if count:
            metrics.counter(name).inc(count)
    metrics.counter("sim.events").inc(events)
    metrics.gauge("run.frames").set(len(frames))
    metrics.gauge("run.drops").set(len(result.drops))
    metrics.gauge("run.presents").set(len(result.presents))
