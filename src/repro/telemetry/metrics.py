"""Counters, gauges, and histograms for run telemetry.

The :class:`MetricsRegistry` is the numeric half of a telemetry session:
probes increment counters (frames triggered, VSync edges, cache hits), set
gauges (a run's frame count), and feed histograms (per-frame wall times, span
durations). Everything is JSON-able so registries survive the executor's
process-pool wire round-trip and merge across runs for fleet-level summaries.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Mapping

from repro.errors import ConfigurationError


@dataclasses.dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": "counter", "value": self.value}


@dataclasses.dataclass
class Gauge:
    """A value a run sets once (its frame count); merged registries add it."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"kind": "gauge", "value": self.value}


@dataclasses.dataclass
class Histogram:
    """Summary statistics of an observed distribution.

    Keeps count / sum / min / max rather than raw samples so a histogram's
    wire form stays O(1) regardless of run length.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, get-or-create by name.

    A name belongs to exactly one instrument kind; asking for the same name
    with a different kind is a configuration error, which catches track-name
    typos early instead of silently splitting a metric in two.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ConfigurationError(
                f"metric {name!r} is a {type(instrument).__name__.lower()}, "
                f"not a {kind.__name__.lower()}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        return iter(self._instruments.values())

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def value(self, name: str) -> float | None:
        """Current value of a counter/gauge, or a histogram's mean."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return instrument.mean
        return instrument.value

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters and gauges add,
        histograms combine their summaries).

        Gauges add because every gauge a run records is that run's total
        (``run.frames``, ``run.drops``, ``run.presents``), so a merge over
        runs reports totals over runs, like the counters beside them.
        """
        for instrument in other:
            if isinstance(instrument, Counter):
                self.counter(instrument.name).inc(instrument.value)
            elif isinstance(instrument, Gauge):
                mine = self.gauge(instrument.name)
                mine.set(mine.value + instrument.value)
            else:
                mine = self.histogram(instrument.name)
                mine.count += instrument.count
                mine.total += instrument.total
                mine.min = min(mine.min, instrument.min)
                mine.max = max(mine.max, instrument.max)

    def to_dict(self) -> dict:
        """JSON-able form, keyed by metric name."""
        return {name: self._instruments[name].to_dict() for name in sorted(self._instruments)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        registry = cls()
        for name, payload in data.items():
            kind = payload.get("kind")
            if kind == "counter":
                registry.counter(name).value = payload["value"]
            elif kind == "gauge":
                registry.gauge(name).set(payload["value"])
            elif kind == "histogram":
                histogram = registry.histogram(name)
                histogram.count = payload["count"]
                histogram.total = payload["total"]
                histogram.min = payload["min"] if payload["min"] is not None else math.inf
                histogram.max = payload["max"] if payload["max"] is not None else -math.inf
            else:
                raise ConfigurationError(f"unknown metric kind {kind!r} for {name!r}")
        return registry
