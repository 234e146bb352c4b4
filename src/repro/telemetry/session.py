"""Telemetry sessions: the per-run recorder, filled once the run is over.

A :class:`Telemetry` session owns two stores, both in *simulated* time:

- an event :class:`~repro.trace.record.Trace` (spans / instants / counter
  samples in simulated nanoseconds);
- a :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges,
  and histograms.

During a run either engine only logs the order of what happened, and
:func:`record_emissions` computes the trace and metrics afterwards, from the
same log the invariant checker reads. Disabled telemetry is the
:data:`NULL_TELEMETRY` singleton, which never allocates a store — schedulers
built without a session register **zero** telemetry hooks, so the disabled
path costs one branch at construction and nothing per frame.

A finished session freezes into a :class:`TelemetrySnapshot`, the JSON-able
form that rides on ``RunResult.telemetry`` across the executor's process-pool
wire (see ``repro.exec.serialize``). It holds no wall-clock time, so it is
a function of the run's spec, byte-identical across reruns, engines and
backends; wall-clock time is measured outside the program, by ``perfbench``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.record import CounterSample, Instant, Span, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.scheduler_base import RunResult

#: Bump when the snapshot wire layout changes (folded into the RunResult
#: schema via repro.exec.serialize).
TELEMETRY_SCHEMA_VERSION = 2

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
    """

    name: str
    trace: Trace
    metrics: dict

    def to_dict(self) -> dict:
        from repro.trace.schema import event_trace_to_payload

        return {
            "version": TELEMETRY_SCHEMA_VERSION,
            "name": self.name,
            "trace": event_trace_to_payload(self.trace),
            "metrics": self.metrics,
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
        )

    def metrics_registry(self) -> MetricsRegistry:
        """Rehydrate the metrics registry from its wire form."""
        return MetricsRegistry.from_dict(self.metrics)


class Telemetry:
    """A live, enabled telemetry session for one scheduler run."""

    enabled = True

    def __init__(self, name: str = "telemetry") -> None:
        self.name = name
        self.trace = Trace(name=name)
        self.metrics = MetricsRegistry()
        self._claimed = False

    def snapshot(self, name: str | None = None) -> TelemetrySnapshot:
        """Freeze the session into its wire-able form."""
        return TelemetrySnapshot(
            name=name or self.name,
            trace=self.trace,
            metrics=self.metrics.to_dict(),
        )


class NullTelemetry:
    """Disabled telemetry: no stores, no snapshot."""

    enabled = False

    @property
    def name(self) -> str:
        return "telemetry-off"

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
