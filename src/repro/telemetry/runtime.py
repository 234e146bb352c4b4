"""Process-wide telemetry switch and snapshot collector.

Telemetry is *process-wide-optional*: nothing records unless the process (or
an individual scheduler) opts in. The CLI's ``--trace`` flag calls
:func:`set_enabled`; from then on every scheduler built without an explicit
session records into a fresh one, every :class:`~repro.exec.spec.RunSpec`
minted by the experiment runner carries ``telemetry=True`` across the
process-pool wire, and the :class:`Collector` in the parent process
accumulates the snapshots that come back — whether the run was in-process,
pooled, or served from the result cache, which replays them byte for byte.

Supervision, governance and study counters are not mirrored here: they live
only in :class:`~repro.exec.executor.ExecStats` and
:class:`~repro.study.StudyStats`, which count with telemetry on or off.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import NULL_TELEMETRY, NullTelemetry, Telemetry, TelemetrySnapshot

_enabled = False


def set_enabled(enabled: bool) -> bool:
    """Flip the process-wide telemetry switch; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def enabled() -> bool:
    """True when the process has opted into telemetry recording."""
    return _enabled


def new_run_session(name: str = "telemetry") -> Telemetry | NullTelemetry:
    """A fresh session when telemetry is on, the null session otherwise."""
    return Telemetry(name) if _enabled else NULL_TELEMETRY


class Collector:
    """Accumulates telemetry snapshots in-process."""

    def __init__(self) -> None:
        self.snapshots: list[TelemetrySnapshot] = []

    def add_snapshot(self, snapshot: TelemetrySnapshot) -> None:
        self.snapshots.append(snapshot)

    def merged_metrics(self) -> MetricsRegistry:
        """Every snapshot's metrics folded into one registry."""
        metrics = MetricsRegistry()
        for snapshot in self.snapshots:
            metrics.merge(snapshot.metrics_registry())
        return metrics

    def clear(self) -> None:
        self.snapshots.clear()


_collector = Collector()


def collector() -> Collector:
    """The process-wide snapshot collector."""
    return _collector


def collect(snapshot: TelemetrySnapshot | None) -> None:
    """Publish a run's snapshot to the process-wide capture.

    A no-op unless the process opted in via :func:`set_enabled` — callers that
    request telemetry per-run/per-spec get their snapshot on the result and
    own it; the collector only accumulates for ``--trace``-style process-wide
    captures. ``None`` is always ignored.
    """
    if snapshot is not None and _enabled:
        _collector.add_snapshot(snapshot)


def reset() -> None:
    """Disable telemetry and drop everything collected (tests, CLI re-runs)."""
    set_enabled(False)
    _collector.clear()
