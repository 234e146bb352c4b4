"""Perfetto-lite runtime traces.

Graphics engineers live in trace viewers (§7: "graphics programmers often
rely on runtime traces to locate performance bottlenecks"); this module
gives the simulation the same vocabulary: spans (named intervals on named
tracks), instants (point events), and counters (sampled values).
:func:`record_run` converts a finished :class:`RunResult` into a trace with
one track per pipeline stage, so a D-VSync run can be inspected frame by
frame — accumulation ramps, sync pacing, drop clusters — exactly like the
paper's Fig 10 timelines.
"""

from __future__ import annotations

import dataclasses

from repro.pipeline.scheduler_base import RunResult


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    """A named interval on a track."""

    track: str
    name: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span {self.name!r} ends before it starts")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclasses.dataclass(frozen=True, slots=True)
class Instant:
    """A point event on a track (drops, VSync edges, present fences)."""

    track: str
    name: str
    time: int


@dataclasses.dataclass(frozen=True, slots=True)
class CounterSample:
    """One sample of a numeric counter (queue depth, FPS)."""

    track: str
    time: int
    value: float


@dataclasses.dataclass
class Trace:
    """A recorded run: spans + instants + counters, queryable by track."""

    name: str
    spans: list[Span] = dataclasses.field(default_factory=list)
    instants: list[Instant] = dataclasses.field(default_factory=list)
    counters: list[CounterSample] = dataclasses.field(default_factory=list)

    def add_span(self, track: str, name: str, start: int, end: int) -> None:
        self.spans.append(Span(track, name, start, end))

    def add_instant(self, track: str, name: str, time: int) -> None:
        self.instants.append(Instant(track, name, time))

    def add_counter(self, track: str, time: int, value: float) -> None:
        self.counters.append(CounterSample(track, time, value))

    def spans_on(self, track: str) -> list[Span]:
        """All spans of one track, in start order."""
        return sorted((s for s in self.spans if s.track == track), key=lambda s: s.start)

    def instants_on(self, track: str) -> list[Instant]:
        """All instants of one track, in time order."""
        return sorted((i for i in self.instants if i.track == track), key=lambda i: i.time)

    def tracks(self) -> list[str]:
        """Names of every track appearing in the trace."""
        names = {s.track for s in self.spans}
        names.update(i.track for i in self.instants)
        names.update(c.track for c in self.counters)
        return sorted(names)

    def time_bounds(self) -> tuple[int, int]:
        """(earliest, latest) timestamp across all events."""
        times: list[int] = []
        times += [s.start for s in self.spans] + [s.end for s in self.spans]
        times += [i.time for i in self.instants]
        times += [c.time for c in self.counters]
        if not times:
            return (0, 0)
        return (min(times), max(times))


def record_run(result: RunResult) -> Trace:
    """Build a pipeline trace from a finished run."""
    trace = Trace(name=f"{result.scenario}@{result.scheduler}")
    for frame in result.frames:
        label = f"frame-{frame.frame_id}"
        if frame.ui_start is not None and frame.ui_end is not None:
            trace.add_span("ui", label, frame.ui_start, frame.ui_end)
        if frame.render_start is not None and frame.render_end is not None:
            trace.add_span("render", label, frame.render_start, frame.render_end)
        if frame.workload.gpu_ns and frame.render_end is not None and frame.gpu_end:
            trace.add_span("gpu", label, frame.render_end, frame.gpu_end)
        if frame.queued_time is not None and frame.latch_time is not None:
            trace.add_span("queue", label, frame.queued_time, frame.latch_time)
        if frame.present_time is not None and frame.latch_time is not None:
            trace.add_span("display", label, frame.latch_time, frame.present_time)
        trace.add_instant(
            "trigger",
            "d-vsync" if frame.decoupled else "vsync-app",
            frame.trigger_time,
        )
    for drop in result.drops:
        trace.add_instant("janks", "frame-drop", drop.time)
    for present in result.presents:
        trace.add_instant("present", f"frame-{present.frame_id}", present.present_time)
        trace.add_counter("queue-depth", present.present_time, present.queue_depth_after)
    return trace
