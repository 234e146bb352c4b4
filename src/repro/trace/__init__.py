"""Trace recording, serialization, and analysis (perfetto-lite)."""

from repro.trace import schema
from repro.trace.analyze import TraceAnalysis, analyze, decoupling_lead_ms
from repro.trace.record import CounterSample, Instant, Span, Trace, record_run
from repro.trace.render_ascii import render_queue_depth, render_timeline

__all__ = [
    "schema",
    "TraceAnalysis",
    "analyze",
    "decoupling_lead_ms",
    "CounterSample",
    "Instant",
    "Span",
    "Trace",
    "record_run",
    "render_queue_depth",
    "render_timeline",
]
