"""Telemetry: run traces and metrics in simulated time, and trace export.

The observability spine of the reproduction (DESIGN.md §9). Telemetry is
computed from the finished run and a log of its order, so either engine can
record it. Zero-cost when disabled — schedulers built without a session
register no hooks; process-wide opt-in (:func:`set_enabled`, driven by the
CLI's ``--trace``) turns every subsequent run into a recorded one, including
runs that execute in pool workers and come back over the result wire.
"""

from repro.telemetry.chrome import (
    REQUIRED_EVENT_KEYS,
    chrome_events_from_trace,
    chrome_trace,
    chrome_trace_from_results,
    save_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.runtime import (
    Collector,
    collect,
    collector,
    enabled,
    new_run_session,
    reset,
    set_enabled,
)
from repro.telemetry.session import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySnapshot,
    resolve_telemetry,
)

__all__ = [
    "REQUIRED_EVENT_KEYS",
    "chrome_events_from_trace",
    "chrome_trace",
    "chrome_trace_from_results",
    "save_chrome_trace",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Collector",
    "collect",
    "collector",
    "enabled",
    "new_run_session",
    "reset",
    "set_enabled",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
    "resolve_telemetry",
]
